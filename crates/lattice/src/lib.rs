//! Lattice Boltzmann velocity sets and Hermite-space machinery.
//!
//! This crate provides the mathematical substrate shared by every solver in
//! the workspace:
//!
//! * the [`Lattice`] trait describing a discrete velocity set (D2Q9, D3Q19,
//!   D3Q27, D3Q15),
//! * Hermite polynomial tensors `H⁽⁰⁾ … H⁽⁴⁾` evaluated on lattice velocities
//!   ([`hermite`]),
//! * the moment space `{ρ, u, Π}` used by the moment-representation solvers
//!   ([`moments`]), implementing eqs. (1)–(3) and (8) of the paper,
//! * second-order Maxwell–Boltzmann equilibria (eq. 4) and the
//!   moment-to-distribution maps (eqs. 11 and 14) ([`equilibrium`]),
//! * the compile-time per-direction table those maps read ([`table`]),
//! * a Gram-matrix analysis that *derives* which Hermite components are
//!   representable on a given lattice ([`gram`]), validating the hand-listed
//!   component sets used by recursive regularization.
//!
//! Everything is in lattice units: `Δx = Δt = 1`, `c_s² = 1/3`, and all
//! populations are `f64` (the paper's byte-traffic analysis assumes
//! double precision).

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod equilibrium;
pub mod gram;
pub mod hermite;
pub mod moments;
pub mod recursion;
pub mod sets;
pub mod table;
pub mod tensor;

pub use sets::{D2Q9, D3Q15, D3Q19, D3Q27, D3Q39};
pub use table::{Table, MAX_Q};

/// Square of the lattice speed of sound shared by all single-speed lattices
/// in this crate.
pub const CS2: f64 = 1.0 / 3.0;

/// Fourth power of the lattice speed of sound.
pub const CS4: f64 = CS2 * CS2;

/// A discrete velocity set (a "DdQq lattice").
///
/// Implementors are zero-sized marker types; all data lives in associated
/// constants so the solvers monomorphize to straight-line code.
///
/// Velocities are padded to three components; two-dimensional lattices keep
/// `c_z = 0` for every direction, which lets 2D and 3D code share the moment
/// and Hermite machinery.
pub trait Lattice: Copy + Clone + Default + Send + Sync + 'static {
    /// Human-readable name, e.g. `"D2Q9"`.
    const NAME: &'static str;

    /// Spatial dimension (2 or 3).
    const D: usize;

    /// Number of discrete velocities.
    const Q: usize;

    /// Number of stored moments in the moment representation:
    /// `1 + D + D(D+1)/2` (density, momentum, symmetric second-order tensor).
    const M: usize;

    /// Square of this lattice's speed of sound. `1/3` for the single-speed
    /// sets; multi-speed sets override it (D3Q39: `2/3`).
    const CS2: f64 = CS2;

    /// Largest velocity component magnitude (streaming reach). `1` for
    /// single-speed lattices; the moment-representation kernels require 1.
    const REACH: i32 = 1;

    /// Discrete velocities `c_i`, padded with `z = 0` in 2D.
    const C: &'static [[i32; 3]];

    /// Lattice weights `ω_i`; they sum to one.
    const W: &'static [f64];

    /// Index of the opposite velocity: `C[OPP[i]] == -C[i]`.
    const OPP: &'static [usize];

    /// Lattice-representable third-order Hermite components, as sorted index
    /// triples with their symmetric multiplicity (number of distinct index
    /// permutations). Used by recursive regularization (eq. 14); empty when
    /// the recursive scheme is not supported on this lattice.
    const H3_COMPONENTS: &'static [([usize; 3], f64)];

    /// Lattice-representable fourth-order Hermite components with
    /// multiplicities. See [`Lattice::H3_COMPONENTS`].
    const H4_COMPONENTS: &'static [([usize; 4], f64)];

    /// Velocity `c_i` as floating point.
    #[inline(always)]
    fn cf(i: usize) -> [f64; 3] {
        let c = Self::C[i];
        [c[0] as f64, c[1] as f64, c[2] as f64]
    }

    /// The per-direction constants `c_i`, `w_i` and `H⁽²⁾(c_i)`, evaluated at
    /// compile time ([`table`]).
    const TABLE: &'static Table = &Table::new(Self::D, Self::CS2, Self::C, Self::W);

    /// Whether the recursive-regularization component tables are populated.
    #[inline]
    fn supports_recursive() -> bool {
        !Self::H3_COMPONENTS.is_empty()
    }
}

/// Ordered symmetric index pairs `(α, β)` with `α ≤ β` for dimension `D`,
/// defining the storage layout of the second-order moment `Π`.
///
/// For `D = 2` the first three entries are used (`xx, xy, yy`); for `D = 3`
/// all six (`xx, xy, xz, yy, yz, zz`).
pub const PAIRS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];

/// Number of independent components of a symmetric rank-2 tensor in `D`
/// dimensions.
#[inline]
pub const fn sym_pairs(d: usize) -> usize {
    d * (d + 1) / 2
}

/// Index into the [`PAIRS`]-ordered symmetric storage for component
/// `(a, b)` in dimension `d`. Order of `a` and `b` does not matter.
#[inline]
pub fn pair_index(d: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    debug_assert!(hi < d);
    match d {
        2 => match (lo, hi) {
            (0, 0) => 0,
            (0, 1) => 1,
            (1, 1) => 2,
            _ => unreachable!("invalid 2D pair"),
        },
        3 => match (lo, hi) {
            (0, 0) => 0,
            (0, 1) => 1,
            (0, 2) => 2,
            (1, 1) => 3,
            (1, 2) => 4,
            (2, 2) => 5,
            _ => unreachable!("invalid 3D pair"),
        },
        _ => panic!("unsupported dimension {d}"),
    }
}

/// The symmetric multiplicity of pair `(a, b)`: 1 on the diagonal, 2 off it.
#[inline]
pub fn pair_multiplicity(a: usize, b: usize) -> f64 {
    if a == b {
        1.0
    } else {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basic<L: Lattice>() {
        assert_eq!(L::C.len(), L::Q);
        assert_eq!(L::W.len(), L::Q);
        assert_eq!(L::OPP.len(), L::Q);
        assert_eq!(L::M, 1 + L::D + sym_pairs(L::D));

        // Weights are a probability distribution.
        let sum: f64 = L::W.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-14,
            "{} weights sum to {sum}",
            L::NAME
        );
        assert!(L::W.iter().all(|&w| w > 0.0));

        // Opposite table is an involution mapping c to -c.
        for i in 0..L::Q {
            let o = L::OPP[i];
            assert_eq!(L::OPP[o], i);
            for a in 0..3 {
                assert_eq!(L::C[o][a], -L::C[i][a], "{} dir {i}", L::NAME);
            }
        }

        // 2D lattices stay in the plane.
        if L::D == 2 {
            assert!(L::C.iter().all(|c| c[2] == 0));
        }
    }

    /// First- and third-order velocity moments of the weights vanish; the
    /// second-order moment is cs² δ; the fourth satisfies the isotropy
    /// condition Σ w c⁴ = 3cs⁴ on the diagonal (Gaussian moments).
    fn check_weight_isotropy<L: Lattice>() {
        for a in 0..L::D {
            let m1: f64 = (0..L::Q).map(|i| L::W[i] * L::cf(i)[a]).sum();
            assert!(m1.abs() < 1e-14);
            for b in 0..L::D {
                let m2: f64 = (0..L::Q).map(|i| L::W[i] * L::cf(i)[a] * L::cf(i)[b]).sum();
                let expect = if a == b { L::CS2 } else { 0.0 };
                assert!((m2 - expect).abs() < 1e-14, "{} m2[{a}{b}]={m2}", L::NAME);
                for g in 0..L::D {
                    let m3: f64 = (0..L::Q)
                        .map(|i| L::W[i] * L::cf(i)[a] * L::cf(i)[b] * L::cf(i)[g])
                        .sum();
                    assert!(m3.abs() < 1e-14);
                }
            }
            let m4: f64 = (0..L::Q).map(|i| L::W[i] * L::cf(i)[a].powi(4)).sum();
            assert!(
                (m4 - 3.0 * L::CS2 * L::CS2).abs() < 1e-14,
                "{} m4={m4}",
                L::NAME
            );
        }
    }

    #[test]
    fn d2q9_structure() {
        check_basic::<D2Q9>();
        check_weight_isotropy::<D2Q9>();
    }

    #[test]
    fn d3q19_structure() {
        check_basic::<D3Q19>();
        check_weight_isotropy::<D3Q19>();
    }

    #[test]
    fn d3q27_structure() {
        check_basic::<D3Q27>();
        check_weight_isotropy::<D3Q27>();
    }

    #[test]
    fn d3q15_structure() {
        check_basic::<D3Q15>();
        check_weight_isotropy::<D3Q15>();
    }

    /// The multi-speed D3Q39 satisfies the same Gaussian-moment conditions
    /// with its own c_s² = 2/3 — a sixth-order quadrature.
    #[test]
    fn d3q39_structure() {
        check_basic::<D3Q39>();
        check_weight_isotropy::<D3Q39>();
        assert_eq!(D3Q39::CS2, 2.0 / 3.0);
        assert_eq!(D3Q39::REACH, 3);
        // Streaming reach: the largest velocity component is 3.
        let max_c = D3Q39::C
            .iter()
            .flat_map(|c| c.iter())
            .map(|v| v.abs())
            .max();
        assert_eq!(max_c, Some(3));
    }

    #[test]
    fn pair_index_roundtrip() {
        for d in [2usize, 3] {
            let n = sym_pairs(d);
            let mut seen = vec![false; n];
            for a in 0..d {
                for b in a..d {
                    let k = pair_index(d, a, b);
                    assert!(k < n);
                    assert!(!seen[k], "duplicate pair index");
                    seen[k] = true;
                    assert_eq!(k, pair_index(d, b, a));
                }
            }
            assert!(seen.into_iter().all(|s| s));
        }
    }

    #[test]
    fn moment_counts() {
        assert_eq!(D2Q9::M, 6);
        assert_eq!(D3Q19::M, 10);
        assert_eq!(D3Q27::M, 10);
    }
}

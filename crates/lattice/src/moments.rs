//! The moment space `M = {ρ, u, Π}` and mappings from distribution space.
//!
//! Implements eqs. (1)–(3) of the paper: density, velocity, and the
//! second-order Hermite moment `Π_αβ = Σ_i (c_iα c_iβ − c_s² δ_αβ) f_i`.
//! `Π` is stored as its `D(D+1)/2` independent components in [`crate::PAIRS`]
//! order.
//!
//! The flat layout used by the moment-representation GPU kernels is
//! `[ρ, u_x, …, Π_xx, …]`, `M = 1 + D + D(D+1)/2` doubles per node — 6 in 2D
//! and 10 in 3D, which is what gives the MR pattern its bandwidth advantage
//! (Table 2: 96 vs 144 B/F for D2Q9, 160 vs 304 for D3Q19).

use crate::{pair_index, sym_pairs, Lattice, PAIRS};

/// The first three velocity moments of a distribution at one lattice node.
///
/// `u` and `pi` are padded to 3D sizes; two-dimensional lattices leave the
/// out-of-plane entries zero.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Moments {
    /// Density `ρ` (eq. 1).
    pub rho: f64,
    /// Velocity `u = (Σ c_i f_i)/ρ` (eq. 2).
    pub u: [f64; 3],
    /// Second-order Hermite moment `Π` (eq. 3) in [`PAIRS`] order.
    pub pi: [f64; 6],
}

impl Moments {
    /// Compute `{ρ, u, Π}` from a distribution (eqs. 1–3), with the
    /// coefficients of [`Lattice::TABLE`]. Every sum accumulates from `+0.0`
    /// in direction order and skips the terms whose coefficient is an exact
    /// zero — bitwise-neutral for finite `f` (a `+0.0`-seeded sum is never
    /// `−0.0`), and the same terms the lane kernels of `lbm-core` skip.
    pub fn from_f<L: Lattice>(f: &[f64]) -> Self {
        debug_assert_eq!(f.len(), L::Q);
        let t = L::TABLE;
        let mut rho = 0.0;
        let mut j = [0.0f64; 3];
        for i in 0..L::Q {
            let fi = f[i];
            rho += fi;
            for a in 0..3 {
                if t.c[i][a] != 0.0 {
                    j[a] += t.c[i][a] * fi;
                }
            }
        }
        let inv_rho = 1.0 / rho;
        let u = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
        // Π in storage order; 2D lattices fill canonical slots 0, 1, 3.
        let mut pi = [0.0f64; 6];
        for k in 0..sym_pairs(L::D) {
            let mut s = 0.0;
            for i in 0..L::Q {
                if t.h2[i][k] != 0.0 {
                    s += t.h2[i][k] * f[i];
                }
            }
            pi[pairs_storage_to_canonical(L::D, k)] = s;
        }
        Moments { rho, u, pi }
    }

    /// Equilibrium second-order moment `Π^eq_αβ = ρ u_α u_β` (paper, after
    /// eq. 10).
    pub fn pi_eq(rho: f64, u: [f64; 3], d: usize) -> [f64; 6] {
        let mut pi = [0.0f64; 6];
        for (k, &(a, b)) in PAIRS.iter().enumerate() {
            if b < d {
                pi[k] = rho * u[a] * u[b];
            }
        }
        pi
    }

    /// Non-equilibrium part `Π^neq = Π − Π^eq` (eq. 8 evaluated in moment
    /// space).
    pub fn pi_neq(&self, d: usize) -> [f64; 6] {
        let eq = Self::pi_eq(self.rho, self.u, d);
        let mut out = [0.0f64; 6];
        for k in 0..6 {
            out[k] = self.pi[k] - eq[k];
        }
        out
    }

    /// Read a `Π` component by its tensor indices.
    #[inline]
    pub fn pi_at(&self, d: usize, a: usize, b: usize) -> f64 {
        self.pi[pair_index_3d(d, a, b)]
    }

    /// Pack into the flat moment-vector layout `[ρ, u…, Π…]` used by the
    /// moment-representation storage.
    pub fn pack<L: Lattice>(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), L::M);
        out[0] = self.rho;
        out[1..1 + L::D].copy_from_slice(&self.u[..L::D]);
        let np = sym_pairs(L::D);
        for k in 0..np {
            out[1 + L::D + k] = self.pi[pairs_storage_to_canonical(L::D, k)];
        }
    }

    /// Inverse of [`Moments::pack`].
    pub fn unpack<L: Lattice>(m: &[f64]) -> Self {
        debug_assert_eq!(m.len(), L::M);
        let mut out = Moments {
            rho: m[0],
            ..Default::default()
        };
        out.u[..L::D].copy_from_slice(&m[1..1 + L::D]);
        let np = sym_pairs(L::D);
        for k in 0..np {
            out.pi[pairs_storage_to_canonical(L::D, k)] = m[1 + L::D + k];
        }
        out
    }
}

/// Map a (possibly 2D) pair index into the canonical 3D [`PAIRS`] slot.
///
/// In 2D the independent pairs are `xx, xy, yy`, which live at canonical
/// slots 0, 1, 3; in 3D storage order and canonical order coincide.
#[inline]
pub const fn pairs_storage_to_canonical(d: usize, k: usize) -> usize {
    match d {
        3 => k,
        2 => match k {
            0 => 0, // xx
            1 => 1, // xy
            2 => 3, // yy
            _ => panic!("2D pair index out of range"),
        },
        _ => panic!("unsupported dimension"),
    }
}

/// [`crate::pair_index`] generalized to return the canonical 3D slot.
#[inline]
pub fn pair_index_3d(d: usize, a: usize, b: usize) -> usize {
    match d {
        3 => pair_index(3, a, b),
        2 => pairs_storage_to_canonical(2, pair_index(2, a, b)),
        _ => panic!("unsupported dimension {d}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::equilibrium;
    use crate::{D2Q9, D3Q19};

    /// Moments of the equilibrium distribution must reproduce the inputs:
    /// ρ, u, and Π^eq = ρ u u.
    fn equilibrium_moments_roundtrip<L: Lattice>(rho: f64, u: [f64; 3]) {
        let mut f = vec![0.0; L::Q];
        equilibrium::<L>(rho, u, &mut f);
        let m = Moments::from_f::<L>(&f);
        assert!((m.rho - rho).abs() < 1e-12);
        for a in 0..L::D {
            assert!(
                (m.u[a] - u[a]).abs() < 1e-12,
                "u[{a}]: {} vs {}",
                m.u[a],
                u[a]
            );
        }
        let pi_eq = Moments::pi_eq(rho, u, L::D);
        for k in 0..6 {
            assert!(
                (m.pi[k] - pi_eq[k]).abs() < 1e-12,
                "{} pi[{k}]: {} vs {}",
                L::NAME,
                m.pi[k],
                pi_eq[k]
            );
        }
    }

    #[test]
    fn equilibrium_moments_2d() {
        equilibrium_moments_roundtrip::<D2Q9>(1.0, [0.05, -0.03, 0.0]);
        equilibrium_moments_roundtrip::<D2Q9>(1.1, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn equilibrium_moments_3d() {
        equilibrium_moments_roundtrip::<D3Q19>(0.97, [0.04, 0.01, -0.02]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let m = Moments {
            rho: 1.05,
            u: [0.02, -0.01, 0.005],
            pi: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        };
        let mut flat = vec![0.0; D3Q19::M];
        m.pack::<D3Q19>(&mut flat);
        let back = Moments::unpack::<D3Q19>(&flat);
        assert_eq!(m, back);

        let mut m2 = m;
        m2.u[2] = 0.0;
        // 2D: out-of-plane Π entries are not stored; zero them for equality.
        m2.pi[2] = 0.0;
        m2.pi[4] = 0.0;
        m2.pi[5] = 0.0;
        let mut flat2 = vec![0.0; D2Q9::M];
        m2.pack::<D2Q9>(&mut flat2);
        assert_eq!(flat2.len(), 6);
        let back2 = Moments::unpack::<D2Q9>(&flat2);
        assert_eq!(m2, back2);
    }

    #[test]
    fn pi_neq_of_equilibrium_is_zero() {
        let mut f = vec![0.0; D2Q9::Q];
        equilibrium::<D2Q9>(1.0, [0.08, 0.02, 0.0], &mut f);
        let m = Moments::from_f::<D2Q9>(&f);
        for v in m.pi_neq(2) {
            assert!(v.abs() < 1e-13);
        }
    }
}

//! The compile-time direction table of a velocity set.
//!
//! Everything the moment maps of eqs. (1)–(3) and (11) need per direction —
//! `c_i` as floats, `w_i`, and the `H⁽²⁾_ab(c_i)` coefficients of the stored
//! Π pairs — is a function of the velocity set alone, so it is evaluated
//! once, at compile time, into [`Lattice::TABLE`](crate::Lattice::TABLE). Code that indexes it
//! with a constant direction (the unrolled lane kernels of `lbm-core`) sees
//! every coefficient as an immediate, and can drop the terms whose
//! coefficient is an exact zero; the scalar maps walk the same table and
//! drop the same terms (see [`crate::equilibrium::f_from_moments`]).
//!
//! Each entry is the exact f64 the run-time expression forms:
//! `h2[i][k] == hermite::h2::<L>(L::cf(i), a, b)` and
//! `h2m[i][k] == mult · h2[i][k]` to the bit, sign of zero included.

use crate::moments::pairs_storage_to_canonical;
use crate::{sym_pairs, PAIRS};

/// Capacity of a [`Table`]: an upper bound on `Q` across the velocity sets
/// of this crate (D3Q39 has 39).
pub const MAX_Q: usize = 48;

/// Per-direction constants of a lattice, rows `0..Q` valid (the rest zero).
/// Π columns are in storage order (2D: xx, xy, yy), `0..sym_pairs(D)`
/// valid.
#[derive(Clone, Copy, Debug)]
pub struct Table {
    /// `c_i` as floats, `z = 0` in 2D.
    pub c: [[f64; 3]; MAX_Q],
    /// Lattice weights `w_i`.
    pub w: [f64; MAX_Q],
    /// `H⁽²⁾_ab(c_i) = c_a c_b − c_s² δ_ab`: the coefficients of the Π sums
    /// (eq. 3).
    pub h2: [[f64; 6]; MAX_Q],
    /// `mult · H⁽²⁾_ab(c_i)` with the symmetric multiplicity (1 on the
    /// diagonal, 2 off it): the coefficients of the `H⁽²⁾:Π*` contraction
    /// (eq. 11).
    pub h2m: [[f64; 6]; MAX_Q],
}

impl Table {
    /// The table of a `d`-dimensional set with sound speed `cs2`,
    /// velocities `c` and weights `w`: what [`Lattice::TABLE`](crate::Lattice::TABLE) evaluates.
    pub const fn new(d: usize, cs2: f64, c: &[[i32; 3]], w: &[f64]) -> Table {
        assert!(c.len() <= MAX_Q && w.len() == c.len());
        let mut t = Table {
            c: [[0.0; 3]; MAX_Q],
            w: [0.0; MAX_Q],
            h2: [[0.0; 6]; MAX_Q],
            h2m: [[0.0; 6]; MAX_Q],
        };
        let mut i = 0;
        while i < c.len() {
            let ci = [c[i][0] as f64, c[i][1] as f64, c[i][2] as f64];
            t.c[i] = ci;
            t.w[i] = w[i];
            let mut k = 0;
            while k < sym_pairs(d) {
                let (a, b) = PAIRS[pairs_storage_to_canonical(d, k)];
                let (delta, mult) = if a == b { (1.0, 1.0) } else { (0.0, 2.0) };
                // The operation tree of `hermite::h2`.
                let h = ci[a] * ci[b] - cs2 * delta;
                t.h2[i][k] = h;
                t.h2m[i][k] = mult * h;
                k += 1;
            }
            i += 1;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hermite, pair_multiplicity, Lattice, D2Q9, D3Q15, D3Q19, D3Q27};

    /// The const table is `hermite::h2`, `mult · hermite::h2`, `L::cf` and
    /// `L::W`, to the bit.
    #[test]
    fn table_is_hermite_h2_and_cf() {
        fn check<L: Lattice>() {
            let t = L::TABLE;
            for i in 0..L::Q {
                let c = L::cf(i);
                assert_eq!(
                    t.c[i].map(f64::to_bits),
                    c.map(f64::to_bits),
                    "{} c[{i}]",
                    L::NAME
                );
                assert_eq!(t.w[i].to_bits(), L::W[i].to_bits());
                for k in 0..sym_pairs(L::D) {
                    let (a, b) = PAIRS[pairs_storage_to_canonical(L::D, k)];
                    let h = hermite::h2::<L>(c, a, b);
                    assert_eq!(
                        t.h2[i][k].to_bits(),
                        h.to_bits(),
                        "{} h2[{i}][{k}]",
                        L::NAME
                    );
                    assert_eq!(
                        t.h2m[i][k].to_bits(),
                        (pair_multiplicity(a, b) * h).to_bits()
                    );
                }
            }
        }
        check::<D2Q9>();
        check::<D3Q15>();
        check::<D3Q19>();
        check::<D3Q27>();
    }

    /// Nonzero `(H⁽²⁾ coefficients, velocity components)` of `L`'s table,
    /// out of `Q · sym_pairs(D)` and `Q · D`: the terms the moment maps pay.
    fn nonzero_census<L: Lattice>() -> (usize, usize) {
        let t = L::TABLE;
        let h2 = (0..L::Q)
            .flat_map(|i| t.h2m[i][..sym_pairs(L::D)].iter())
            .filter(|&&v| v != 0.0)
            .count();
        let c = (0..L::Q)
            .flat_map(|i| t.c[i][..L::D].iter())
            .filter(|&&v| v != 0.0)
            .count();
        (h2, c)
    }

    /// The exact zeros the moment maps skip, pinned: a table edit that makes
    /// a lattice dense again fails here.
    #[test]
    fn table_zero_census() {
        assert_eq!(nonzero_census::<D2Q9>(), (22, 12)); // of (27, 18)
        assert_eq!(nonzero_census::<D3Q15>(), (69, 30)); // of (90, 45)
        assert_eq!(nonzero_census::<D3Q19>(), (69, 30)); // of (114, 57)
        assert_eq!(nonzero_census::<D3Q27>(), (117, 54)); // of (162, 81)
    }
}

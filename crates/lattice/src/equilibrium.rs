//! Equilibria and moment-to-distribution maps.
//!
//! * [`equilibrium`] — the second-order Maxwell–Boltzmann equilibrium,
//!   eq. (4) of the paper.
//! * [`f_from_moments`] — the projective-regularization reconstruction,
//!   eq. (11): given post-collision moments `{ρ, u, Π*}`, rebuild the full
//!   distribution.
//! * [`f_from_moments_recursive`] — the recursive-regularization
//!   reconstruction, eq. (14), which additionally carries the representable
//!   third- and fourth-order Hermite coefficients `a⁽³⁾*`, `a⁽⁴⁾*`.
//!
//! Contractions over the symmetric tensors use one value per sorted index
//! tuple with the permutation multiplicity folded in, so e.g. the D2Q9
//! third-order term `(1/3!c_s⁶)·3·(H_xxy a_xxy + H_xyy a_xyy)` reproduces
//! the paper's `1/(2c_s⁶)` prefactor exactly.

use crate::gram::HigherBasis;
use crate::moments::pairs_storage_to_canonical;
use crate::{sym_pairs, Lattice};

/// Fill `out` with the second-order equilibrium distribution, eq. (4):
/// `f_i^eq = ω_i ρ (1 + c·u/c_s² + ((c·u)² − c_s² u²) / (2 c_s⁴))`.
pub fn equilibrium<L: Lattice>(rho: f64, u: [f64; 3], out: &mut [f64]) {
    debug_assert_eq!(out.len(), L::Q);
    let usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    for i in 0..L::Q {
        out[i] = equilibrium_i::<L>(i, rho, u, usq);
    }
}

/// Single-direction equilibrium; `usq = |u|²` is passed in so callers can
/// hoist it out of the direction loop.
#[inline(always)]
pub fn equilibrium_i<L: Lattice>(i: usize, rho: f64, u: [f64; 3], usq: f64) -> f64 {
    let cs2 = L::CS2;
    // Reciprocals of the lattice constants const-fold at monomorphization;
    // a divide per direction would not.
    let inv_cs2 = 1.0 / cs2;
    let inv_2cs4 = 1.0 / (2.0 * cs2 * cs2);
    let c = L::cf(i);
    let cu = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
    L::W[i] * rho * (1.0 + cu * inv_cs2 + (cu * cu - cs2 * usq) * inv_2cs4)
}

/// Reconstruct the distribution from post-collision moments `{ρ, u, Π*}`
/// (projective regularization, eq. 11):
///
/// `f_i* = ω_i ( ρ + H⁽¹⁾·ρu / c_s² + H⁽²⁾:Π* / 2c_s⁴ )`.
///
/// `pi_star` is in canonical [`PAIRS`](crate::PAIRS) order (6 slots, 2D
/// uses xx/xy/yy).
/// The constants come from [`Lattice::TABLE`]. The `H⁽²⁾:Π*` contraction
/// accumulates from `+0.0` in storage-slot order and skips the exact-zero
/// coefficients, which is bitwise-neutral for finite Π*: a `+0.0`-seeded
/// sum is never `−0.0`, so adding a `±0.0` product cannot change it. The
/// lane kernels of `lbm-core` skip the same terms.
pub fn f_from_moments<L: Lattice>(rho: f64, u: [f64; 3], pi_star: &[f64; 6], out: &mut [f64]) {
    debug_assert_eq!(out.len(), L::Q);
    let t = L::TABLE;
    let cs2 = L::CS2;
    let inv_cs2 = 1.0 / cs2;
    let inv_2cs4 = 1.0 / (2.0 * cs2 * cs2);
    for i in 0..L::Q {
        let c = t.c[i];
        let cu = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
        // Second-order contraction with symmetric multiplicity.
        let mut h2pi = 0.0;
        for k in 0..sym_pairs(L::D) {
            let h = t.h2m[i][k];
            if h != 0.0 {
                h2pi += h * pi_star[pairs_storage_to_canonical(L::D, k)];
            }
        }
        out[i] = t.w[i] * (rho + rho * cu * inv_cs2 + h2pi * inv_2cs4);
    }
}

/// Reconstruct the distribution from post-collision moments including
/// recursive third- and fourth-order Hermite coefficients (eq. 14):
///
/// `f_i* = ω_i ( ρ + H⁽¹⁾·ρu/c_s² + H⁽²⁾:Π*/2c_s⁴
///              + H⁽³⁾∴a⁽³⁾*/3!c_s⁶ + H⁽⁴⁾::a⁽⁴⁾*/4!c_s⁸ )`
///
/// `a3_star` / `a4_star` are parallel to [`Lattice::H3_COMPONENTS`] /
/// [`Lattice::H4_COMPONENTS`] (one value per sorted tuple; multiplicities
/// come from the component tables). The Hermite values come from a
/// lattice-orthogonalized [`HigherBasis`] so the higher-order terms cannot
/// alias onto the stored moments (see [`crate::gram`]); on D2Q9 the table
/// equals the raw polynomials and this is exactly the paper's eq. (14).
pub fn f_from_moments_recursive<L: Lattice>(
    rho: f64,
    u: [f64; 3],
    pi_star: &[f64; 6],
    a3_star: &[f64],
    a4_star: &[f64],
    basis: &HigherBasis,
    out: &mut [f64],
) {
    debug_assert_eq!(a3_star.len(), L::H3_COMPONENTS.len());
    debug_assert_eq!(a4_star.len(), L::H4_COMPONENTS.len());
    debug_assert_eq!(basis.h3.len(), L::H3_COMPONENTS.len());
    debug_assert_eq!(basis.h4.len(), L::H4_COMPONENTS.len());
    // Base: second-order reconstruction…
    f_from_moments::<L>(rho, u, pi_star, out);
    // …plus the higher-order Hermite contributions, via the precomputed
    // `(1/n! c_s^2n)·mult·h` contraction tables. The third-order walk skips
    // the exactly-zero coefficients ([`HigherBasis::nz3`]); the kept terms
    // accumulate in the same order with the same f64 products.
    let n4 = L::H4_COMPONENTS.len();
    for i in 0..L::Q {
        let mut extra = 0.0;
        for &(k, cf) in basis.nz3(i) {
            extra += cf * a3_star[k as usize];
        }
        for (k, &cf) in basis.cf4[i * n4..][..n4].iter().enumerate() {
            extra += cf * a4_star[k];
        }
        out[i] += L::W[i] * extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::Moments;
    use crate::{D2Q9, D3Q19, D3Q27};

    /// Equilibrium must conserve mass and momentum exactly.
    fn conservation<L: Lattice>(rho: f64, u: [f64; 3]) {
        let mut f = vec![0.0; L::Q];
        equilibrium::<L>(rho, u, &mut f);
        let s: f64 = f.iter().sum();
        assert!((s - rho).abs() < 1e-13);
        for a in 0..L::D {
            let j: f64 = (0..L::Q).map(|i| L::cf(i)[a] * f[i]).sum();
            assert!((j - rho * u[a]).abs() < 1e-13);
        }
    }

    #[test]
    fn equilibrium_conserves() {
        conservation::<D2Q9>(1.0, [0.1, -0.05, 0.0]);
        conservation::<D3Q19>(0.9, [0.02, 0.03, -0.04]);
        conservation::<D3Q27>(1.2, [0.05, 0.0, 0.01]);
    }

    /// At zero velocity the equilibrium is just the weights times density.
    #[test]
    fn equilibrium_at_rest() {
        let mut f = vec![0.0; D3Q19::Q];
        equilibrium::<D3Q19>(2.0, [0.0; 3], &mut f);
        for i in 0..D3Q19::Q {
            assert!((f[i] - 2.0 * D3Q19::W[i]).abs() < 1e-15);
        }
    }

    /// Reconstructing from the moments of an equilibrium must reproduce the
    /// equilibrium exactly: the moment representation is lossless for
    /// regularized distributions.
    fn reconstruction_is_lossless<L: Lattice>(rho: f64, u: [f64; 3]) {
        let mut feq = vec![0.0; L::Q];
        equilibrium::<L>(rho, u, &mut feq);
        let m = Moments::from_f::<L>(&feq);
        let mut rebuilt = vec![0.0; L::Q];
        f_from_moments::<L>(m.rho, m.u, &m.pi, &mut rebuilt);
        for i in 0..L::Q {
            assert!(
                (feq[i] - rebuilt[i]).abs() < 1e-13,
                "{} dir {i}: {} vs {}",
                L::NAME,
                feq[i],
                rebuilt[i]
            );
        }
    }

    #[test]
    fn moment_reconstruction_lossless() {
        reconstruction_is_lossless::<D2Q9>(1.0, [0.07, 0.02, 0.0]);
        reconstruction_is_lossless::<D3Q19>(1.05, [0.01, -0.03, 0.06]);
        reconstruction_is_lossless::<D3Q27>(0.95, [0.02, 0.02, 0.02]);
    }

    /// A regularized (second-order) distribution with a non-equilibrium Π
    /// must also round-trip exactly through moment space.
    #[test]
    fn regularized_nonequilibrium_roundtrip() {
        let rho = 1.02;
        let u = [0.03, -0.02, 0.0];
        let pi_eq = Moments::pi_eq(rho, u, 2);
        let mut pi = pi_eq;
        pi[0] += 1e-3; // Π_xx^neq
        pi[1] -= 2e-3; // Π_xy^neq
        pi[3] += 5e-4; // Π_yy^neq
        let mut f = vec![0.0; D2Q9::Q];
        f_from_moments::<D2Q9>(rho, u, &pi, &mut f);
        let m = Moments::from_f::<D2Q9>(&f);
        assert!((m.rho - rho).abs() < 1e-13);
        for a in 0..2 {
            assert!((m.u[a] - u[a]).abs() < 1e-13);
        }
        for k in [0usize, 1, 3] {
            assert!((m.pi[k] - pi[k]).abs() < 1e-13, "pi[{k}]");
        }
    }

    /// With zero higher-order coefficients, the recursive reconstruction
    /// reduces to the projective one.
    #[test]
    fn recursive_reduces_to_projective() {
        let rho = 1.0;
        let u = [0.05, 0.01, -0.02];
        let pi = Moments::pi_eq(rho, u, 3);
        let mut f_p = vec![0.0; D3Q19::Q];
        let mut f_r = vec![0.0; D3Q19::Q];
        f_from_moments::<D3Q19>(rho, u, &pi, &mut f_p);
        let a3 = vec![0.0; D3Q19::H3_COMPONENTS.len()];
        let a4 = vec![0.0; D3Q19::H4_COMPONENTS.len()];
        let basis = HigherBasis::new::<D3Q19>();
        f_from_moments_recursive::<D3Q19>(rho, u, &pi, &a3, &a4, &basis, &mut f_r);
        for i in 0..D3Q19::Q {
            assert!((f_p[i] - f_r[i]).abs() < 1e-15);
        }
    }

    /// The higher-order terms must not disturb the first three moments:
    /// H⁽³⁾ and H⁽⁴⁾ are orthogonal to H⁽⁰⁾, H⁽¹⁾, H⁽²⁾ on the lattice.
    #[test]
    fn higher_order_terms_are_invisible_to_stored_moments() {
        let rho = 1.0;
        let u = [0.04, -0.01, 0.02];
        let pi = Moments::pi_eq(rho, u, 3);
        let a3: Vec<f64> = (0..D3Q19::H3_COMPONENTS.len())
            .map(|k| 1e-3 * (k as f64 + 1.0))
            .collect();
        let a4: Vec<f64> = (0..D3Q19::H4_COMPONENTS.len())
            .map(|k| -2e-3 * (k as f64 + 1.0))
            .collect();
        let basis = HigherBasis::new::<D3Q19>();
        let mut f = vec![0.0; D3Q19::Q];
        f_from_moments_recursive::<D3Q19>(rho, u, &pi, &a3, &a4, &basis, &mut f);
        let m = Moments::from_f::<D3Q19>(&f);
        assert!((m.rho - rho).abs() < 1e-13);
        for a in 0..3 {
            assert!((m.u[a] - u[a]).abs() < 1e-13);
        }
        for k in 0..6 {
            assert!((m.pi[k] - pi[k]).abs() < 1e-13, "pi[{k}] perturbed");
        }
    }
}

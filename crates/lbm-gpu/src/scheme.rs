//! The two regularized collision kernels used by the moment representation.

use gpu_sim::efficiency::Pattern;
use lbm_core::collision::{collide_and_map_projective, collide_and_map_recursive};
use lbm_core::kernels::{self, DirMask, LANES};
use lbm_lattice::gram::HigherBasis;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// Collision scheme of a moment-representation simulation: projective
/// regularization (the paper's **MR-P**) or recursive regularization
/// (**MR-R**, carrying the lattice's orthogonalized higher-order basis).
#[derive(Clone)]
pub enum MrScheme {
    Projective,
    Recursive(HigherBasis),
}

impl MrScheme {
    /// Projective regularization (eqs. 8–11).
    pub fn projective() -> Self {
        MrScheme::Projective
    }

    /// Recursive regularization (eqs. 12–14) for lattice `L`.
    pub fn recursive<L: Lattice>() -> Self {
        assert!(
            L::supports_recursive(),
            "{} has no recursive-regularization tables",
            L::NAME
        );
        MrScheme::Recursive(HigherBasis::new::<L>())
    }

    /// Collide a node's pre-collision moments and reconstruct the
    /// post-collision distribution — the in-cache step of Algorithm 2
    /// (lines 24–33).
    #[inline(always)]
    pub fn collide_and_map<L: Lattice>(&self, m: &Moments, tau: f64, out: &mut [f64]) {
        match self {
            MrScheme::Projective => collide_and_map_projective::<L>(m, tau, out),
            MrScheme::Recursive(basis) => collide_and_map_recursive::<L>(m, tau, basis, out),
        }
    }

    /// The lane twin of [`MrScheme::collide_and_map`]: post-collision
    /// populations of nodes `j0 .. min(j0 + LANES, len)` of the SoA moment
    /// rows `moms`, for the directions selected by `dirs` only (see
    /// [`kernels::mr_p_collide_chunk`]).
    #[inline(always)]
    pub fn collide_chunk<L: Lattice>(
        &self,
        moms: &[f64],
        len: usize,
        j0: usize,
        omega: f64,
        dirs: DirMask,
        out: &mut [[f64; LANES]],
    ) {
        match self {
            MrScheme::Projective => {
                kernels::mr_p_collide_chunk::<L>(moms, len, j0, omega, &dirs, out)
            }
            MrScheme::Recursive(basis) => {
                kernels::mr_r_collide_chunk::<L>(moms, len, j0, omega, basis, &dirs, out)
            }
        }
    }

    /// The performance-model pattern class.
    pub fn pattern(&self) -> Pattern {
        match self {
            MrScheme::Projective => Pattern::MomentProjective,
            MrScheme::Recursive(_) => Pattern::MomentRecursive,
        }
    }

    /// Report label ("MR-P" / "MR-R").
    pub fn label(&self) -> &'static str {
        self.pattern().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_lattice::equilibrium::equilibrium;
    use lbm_lattice::D2Q9;

    #[test]
    fn labels_and_patterns() {
        assert_eq!(MrScheme::projective().label(), "MR-P");
        assert_eq!(MrScheme::recursive::<D2Q9>().label(), "MR-R");
    }

    /// Both schemes agree with the lbm-core operators (shared code path).
    #[test]
    fn matches_core_operators() {
        use lbm_core::collision::{Collision, Projective, Recursive};
        let mut f = vec![0.0; D2Q9::Q];
        equilibrium::<D2Q9>(1.01, [0.03, -0.05, 0.0], &mut f);
        for (i, v) in f.iter_mut().enumerate() {
            *v *= 1.0 + 0.02 * (i as f64).sin();
        }
        let m = Moments::from_f::<D2Q9>(&f);
        let tau = 0.73;

        let mut a = vec![0.0; 9];
        MrScheme::projective().collide_and_map::<D2Q9>(&m, tau, &mut a);
        let mut b = f.clone();
        Collision::<D2Q9>::collide(&Projective::new(tau), &mut b);
        for i in 0..9 {
            assert!((a[i] - b[i]).abs() < 1e-15);
        }

        let mut a = vec![0.0; 9];
        MrScheme::recursive::<D2Q9>().collide_and_map::<D2Q9>(&m, tau, &mut a);
        let mut b = f.clone();
        Collision::<D2Q9>::collide(&Recursive::new::<D2Q9>(tau), &mut b);
        for i in 0..9 {
            assert!((a[i] - b[i]).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "no recursive-regularization")]
    fn recursive_rejects_q15() {
        let _ = MrScheme::recursive::<lbm_lattice::D3Q15>();
    }
}

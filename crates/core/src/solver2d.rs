//! 2D specialization of the reference solver plus physical validation
//! against analytic solutions.

use crate::solver::Solver;
use lbm_lattice::D2Q9;

/// The D2Q9 reference solver (paper's 2D "ST" implementation).
pub type Solver2D<C> = Solver<D2Q9, C>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::collision::{Bgk, Collision, Projective, Recursive};
    use crate::geometry::Geometry;
    use crate::units;

    /// Taylor–Green vortex: kinetic energy must decay at the viscous rate
    /// `exp(−2ν(kx²+ky²)t)` within a small tolerance. This pins the
    /// viscosity–τ relation ν = c_s²(τ − 1/2) end to end.
    fn taylor_green_decay_rate<C: Collision<D2Q9>>(collision: C, tau: f64) {
        let (nx, ny) = (32, 32);
        let u0 = 0.02;
        let geom = Geometry::periodic_2d(nx, ny);
        let mut s = Solver2D::new(geom, collision).with_threads(2);
        s.init_with(|x, y, _| {
            (
                analytic::taylor_green_density(x, y, nx, ny, u0, 1.0),
                analytic::taylor_green_velocity(x, y, nx, ny, u0),
            )
        });
        let e0: f64 = s
            .velocity_field()
            .iter()
            .map(|u| u[0] * u[0] + u[1] * u[1])
            .sum();
        let steps = 200;
        s.run(steps);
        let e1: f64 = s
            .velocity_field()
            .iter()
            .map(|u| u[0] * u[0] + u[1] * u[1])
            .sum();
        let nu = units::nu_from_tau(tau);
        let expect = analytic::taylor_green_decay(nx, ny, nu, steps as f64);
        let got = e1 / e0;
        let rel = (got - expect).abs() / expect;
        assert!(
            rel < 0.02,
            "decay {got:.5} vs analytic {expect:.5} (rel {rel:.4})"
        );
    }

    #[test]
    fn taylor_green_bgk() {
        taylor_green_decay_rate(Bgk::new(0.8), 0.8);
    }

    #[test]
    fn taylor_green_projective() {
        taylor_green_decay_rate(Projective::new(0.8), 0.8);
    }

    #[test]
    fn taylor_green_recursive() {
        taylor_green_decay_rate(Recursive::new::<D2Q9>(0.8), 0.8);
    }

    /// Channel flow with a parabolic inlet must converge to the analytic
    /// Poiseuille profile in the interior.
    #[test]
    fn poiseuille_profile_develops() {
        let (nx, ny) = (48, 18);
        let u_max = 0.05;
        let geom = Geometry::channel_2d_poiseuille(nx, ny, u_max);
        let mut s = Solver2D::new(geom, Projective::new(0.8)).with_threads(2);
        s.run(3000);
        let u = s.velocity_field();
        let g = s.geom();
        // Compare mid-channel column against the analytic profile.
        let x = nx / 2;
        let mut max_rel: f64 = 0.0;
        for y in 1..ny - 1 {
            let want = analytic::poiseuille_profile(y, ny, u_max);
            let got = u[g.idx(x, y, 0)][0];
            let rel = (got - want).abs() / u_max;
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 0.03, "max relative deviation {max_rel:.4}");
    }
}

//! The 3D specialization of the reference solver (D3Q19, as in the paper's
//! evaluation). Its tests also run the future-work lattices, D3Q27 and
//! D3Q39, through the generic [`Solver`].

use crate::solver::Solver;
use lbm_lattice::D3Q19;

/// The D3Q19 reference solver (paper's 3D "ST" implementation).
pub type Solver3D<C> = Solver<D3Q19, C>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::{Bgk, Collision, Projective, Recursive};
    use crate::geometry::Geometry;
    use lbm_lattice::{D3Q27, D3Q39};

    /// A 3D periodic shear wave decays viscously; its decay rate pins the
    /// 3D viscosity relation just like Taylor–Green does in 2D:
    /// u_x(z) = u0 sin(k z) decays as exp(−ν k² t).
    fn shear_wave_decay<C: Collision<D3Q19>>(collision: C, tau: f64) {
        let n = 16;
        let u0 = 0.02;
        let geom = Geometry::periodic_3d(4, 4, n);
        let mut s = Solver3D::new(geom, collision).with_threads(2);
        let k = 2.0 * std::f64::consts::PI / n as f64;
        s.init_with(|_, _, z| (1.0, [u0 * (k * z as f64).sin(), 0.0, 0.0]));
        let amp = |s: &Solver3D<C>| -> f64 {
            let u = s.velocity_field();
            let g = s.geom();
            (0..n)
                .map(|z| u[g.idx(1, 1, z)][0] * (k * z as f64).sin())
                .sum::<f64>()
                * 2.0
                / n as f64
        };
        let a0 = amp(&s);
        let steps = 150;
        s.run(steps);
        let a1 = amp(&s);
        let nu = crate::units::nu_from_tau(tau);
        let expect = (-nu * k * k * steps as f64).exp();
        let got = a1 / a0;
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.02, "decay {got:.5} vs {expect:.5} (rel {rel:.4})");
    }

    #[test]
    fn shear_wave_bgk() {
        shear_wave_decay(Bgk::new(0.9), 0.9);
    }

    #[test]
    fn shear_wave_projective() {
        shear_wave_decay(Projective::new(0.9), 0.9);
    }

    #[test]
    fn shear_wave_recursive() {
        shear_wave_decay(Recursive::new::<D3Q19>(0.9), 0.9);
    }

    /// The multi-speed D3Q39 lattice reproduces the viscous decay with its
    /// *own* sound speed: ν = c_s²(τ − ½) with c_s² = 2/3 — twice the
    /// single-speed viscosity at equal τ. This pins the multi-speed
    /// machinery (streaming reach 3, per-lattice c_s²) end to end.
    #[test]
    fn q39_shear_wave_multispeed_viscosity() {
        let n = 32;
        let u0 = 0.015;
        let tau = 0.7;
        let geom = Geometry::periodic_3d(6, 6, n);
        let mut s: Solver<D3Q39, _> = Solver::new(geom, Bgk::new(tau)).with_threads(2);
        let k = 2.0 * std::f64::consts::PI / n as f64;
        s.init_with(|_, _, z| (1.0, [u0 * (k * z as f64).sin(), 0.0, 0.0]));
        let amp = |s: &Solver<D3Q39, Bgk>| -> f64 {
            let u = s.velocity_field();
            let g = s.geom();
            (0..n)
                .map(|z| u[g.idx(2, 2, z)][0] * (k * z as f64).sin())
                .sum::<f64>()
                * 2.0
                / n as f64
        };
        let a0 = amp(&s);
        let steps = 120;
        s.run(steps);
        let a1 = amp(&s);
        let nu = crate::units::nu_from_tau_cs2(tau, 2.0 / 3.0);
        let expect = (-nu * k * k * steps as f64).exp();
        let got = a1 / a0;
        let rel = (got - expect).abs() / expect;
        assert!(
            rel < 0.03,
            "Q39 decay {got:.5} vs {expect:.5} (rel {rel:.4})"
        );
        // Sanity: using the *wrong* (single-speed) viscosity would be far
        // off — the lattice's own c_s² is what matters.
        let wrong = (-crate::units::nu_from_tau(tau) * k * k * steps as f64).exp();
        assert!(
            (got - wrong).abs() / wrong > 0.05,
            "test not discriminating"
        );
    }

    /// D3Q27 runs the same physics (future-work lattice).
    #[test]
    fn q27_shear_wave() {
        let n = 12;
        let u0 = 0.02;
        let geom = Geometry::periodic_3d(4, 4, n);
        let mut s: Solver<D3Q27, _> = Solver::new(geom, Recursive::new::<D3Q27>(0.8));
        let k = 2.0 * std::f64::consts::PI / n as f64;
        s.init_with(|_, _, z| (1.0, [u0 * (k * z as f64).sin(), 0.0, 0.0]));
        let m0 = s.mass();
        s.run(50);
        assert!((s.mass() - m0).abs() < 1e-10 * m0);
        // Amplitude decreased.
        let u = s.velocity_field();
        let g = s.geom();
        let peak = u[g.idx(1, 1, n / 4)][0];
        assert!(peak > 0.0 && peak < u0);
    }
}

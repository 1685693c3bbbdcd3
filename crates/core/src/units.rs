//! Lattice-unit relations: viscosity, relaxation time, Reynolds and Mach
//! numbers.

use lbm_lattice::CS2;

/// Kinematic viscosity from relaxation time: `ν = c_s² (τ − 1/2)`,
/// for the standard single-speed lattices (c_s² = 1/3).
#[inline]
pub fn nu_from_tau(tau: f64) -> f64 {
    nu_from_tau_cs2(tau, CS2)
}

/// [`nu_from_tau`] for a lattice with an arbitrary sound speed (multi-speed
/// sets like D3Q39 have c_s² = 2/3).
#[inline]
pub fn nu_from_tau_cs2(tau: f64, cs2: f64) -> f64 {
    cs2 * (tau - 0.5)
}

/// Relaxation time from kinematic viscosity: `τ = ν/c_s² + 1/2`.
#[inline]
pub fn tau_from_nu(nu: f64) -> f64 {
    tau_from_nu_cs2(nu, CS2)
}

/// [`tau_from_nu`] for an arbitrary sound speed.
#[inline]
pub fn tau_from_nu_cs2(nu: f64, cs2: f64) -> f64 {
    nu / cs2 + 0.5
}

/// Relaxation time that realizes a target Reynolds number for a flow with
/// characteristic velocity `u` and length `l` (both in lattice units).
#[inline]
pub fn tau_for_reynolds(re: f64, u: f64, l: f64) -> f64 {
    tau_from_nu(u * l / re)
}

/// Mach number with respect to the lattice speed of sound.
#[inline]
pub fn mach(u: f64) -> f64 {
    u / CS2.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nu_tau_roundtrip() {
        for tau in [0.51, 0.8, 1.0, 1.7] {
            assert!((tau_from_nu(nu_from_tau(tau)) - tau).abs() < 1e-15);
        }
    }

    #[test]
    fn tau_one_gives_sixth() {
        assert!((nu_from_tau(1.0) - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn reynolds_and_tau() {
        let (re, u, l) = (100.0, 0.05, 64.0);
        let tau = tau_for_reynolds(re, u, l);
        assert!((u * l / nu_from_tau(tau) - re).abs() < 1e-9);
        assert!(tau > 0.5);
    }

    #[test]
    fn mach_envelope() {
        assert!((mach(CS2.sqrt()) - 1.0).abs() < 1e-15);
    }
}

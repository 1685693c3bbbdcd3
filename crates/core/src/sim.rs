//! The driver-facing simulation surface shared by every solver in the
//! workspace.
//!
//! [`Simulation`] names what a scheduler needs of a driver — `step`,
//! `checkpoint`, `restore`, `field_checksum`, `set_obs`, … — once, as an
//! object-safe trait, so schedulers (`lbm-serve`), the recovery loop
//! (`lbm-multi::recovery`), and tests can drive any driver through a
//! `Box<dyn Simulation + Send>` without knowing its pattern, lattice, or
//! sharding.
//!
//! The trait lives here (below `gpu-sim` in the crate graph) and has one
//! implementation, on the one driver host: `lbm_gpu::Sim<B>`, for every
//! single-device pattern body and for the slab decomposition of one alike
//! (see `lbm_gpu::driver`). Interconnect failures surface as
//! the substrate-agnostic [`StepError`] — a mirror of `gpu-sim`'s
//! `LinkError` that this crate cannot name directly.

use crate::io::CheckpointError;
use std::sync::Arc;

/// Why a timestep could not complete. Single-device drivers never fail a
/// step; sharded drivers surface halo-exchange failures that outlasted the
/// driver's retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepError {
    /// A device-to-device transfer failed. Transient failures may succeed
    /// if the whole step is replayed; permanent ones never will.
    Link {
        from: usize,
        to: usize,
        permanent: bool,
    },
    /// The exchange schedule asked for a transfer between non-neighbors —
    /// a programming error, never retryable.
    NoRoute { from: usize, to: usize },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Link {
                from,
                to,
                permanent,
            } => write!(
                f,
                "link {from}->{to} failed ({})",
                if *permanent { "permanent" } else { "transient" }
            ),
            StepError::NoRoute { from, to } => {
                write!(f, "no route between devices {from} and {to}")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// The uniform driver surface: advance, snapshot, restore, fingerprint,
/// observe. Object-safe — schedulers hold `Box<dyn Simulation + Send>`.
///
/// Implementations must be *deterministic*: two identically configured
/// simulations advanced the same number of steps produce bitwise-identical
/// fields (and therefore equal [`Simulation::field_checksum`]s), regardless
/// of CPU thread counts or whether the run was interrupted by a
/// checkpoint/restore round trip. Every scheduler-level guarantee in
/// `lbm-serve` (eviction transparency, recovery transparency) rests on this
/// contract.
pub trait Simulation {
    /// Advance one timestep. Panics on unrecoverable interconnect failure;
    /// use [`Simulation::try_step`] where that must be handled.
    fn step(&mut self);

    /// Advance one timestep, surfacing halo failures that outlasted the
    /// driver's retry budget. Single-device drivers cannot fail.
    fn try_step(&mut self) -> Result<(), StepError> {
        self.step();
        Ok(())
    }

    /// Completed timesteps.
    fn steps(&self) -> u64;

    /// Serialize the full solver state as a versioned, checksummed LBCK
    /// snapshot (lattice, step counter, traffic accumulator).
    fn checkpoint(&self) -> Vec<u8>;

    /// Restore a [`Simulation::checkpoint`] snapshot taken on an
    /// identically configured simulation; rolls the physics monitor back
    /// too. Resuming replays the exact uninterrupted trajectory.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// FNV-1a fingerprint of the macroscopic fields (bitwise-sensitive).
    fn field_checksum(&self) -> u64;

    /// Density and velocity fields (solid nodes report zero).
    fn macro_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>);

    /// Attach an observability hub: step spans, kernel spans, and launch
    /// metrics flow through it from this point on.
    fn set_obs(&mut self, obs: Arc<obs::Obs>);

    /// Builder-style [`Simulation::set_obs`].
    fn with_obs(mut self, obs: Arc<obs::Obs>) -> Self
    where
        Self: Sized,
    {
        self.set_obs(obs);
        self
    }

    /// Whether the attached physics monitor (if any) has no violations.
    fn monitor_ok(&self) -> bool {
        true
    }

    /// Force a final monitor sample at the current step (no-op without a
    /// monitor).
    fn finish_monitor(&mut self) {}

    /// Halo-transfer retries performed so far (0 for single-device).
    fn halo_retries(&self) -> u64 {
        0
    }

    /// Fluid lattice nodes — the unit of MFLUPS throughput and of
    /// per-tenant residency quotas.
    fn fluid_nodes(&self) -> usize;

    /// Device-memory footprint of the resident lattices, in bytes.
    fn footprint_bytes(&self) -> usize;

    /// Resident device bytes this simulation holds for quota purposes —
    /// the number the `lbm-serve` ledger charges a tenant. Defaults to
    /// [`Simulation::footprint_bytes`]; drivers whose footprint includes
    /// non-lattice scratch can override. Single-lattice (in-place) drivers
    /// report exactly `Q·8·n` / `M·8·n` here, half of their two-lattice
    /// counterparts.
    fn resident_bytes(&self) -> usize {
        self.footprint_bytes()
    }

    /// Health probe: every sampled field value finite and no standing
    /// monitor violation.
    fn is_healthy(&self) -> bool {
        if !self.monitor_ok() {
            return false;
        }
        let (rho, u) = self.macro_fields();
        rho.iter().all(|v| v.is_finite()) && u.iter().flatten().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_error_displays_both_variants() {
        let e = StepError::Link {
            from: 0,
            to: 1,
            permanent: true,
        };
        assert_eq!(e.to_string(), "link 0->1 failed (permanent)");
        let e = StepError::NoRoute { from: 2, to: 0 };
        assert_eq!(e.to_string(), "no route between devices 2 and 0");
    }
}

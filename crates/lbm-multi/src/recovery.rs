//! Fault-tolerant execution: checkpoint cadence and rollback recovery.
//!
//! The recovery loop drives any [`Simulation`] toward a target step count
//! while watching for injected or emergent faults on three channels:
//!
//! * **link failures** — transient link faults are absorbed *inside* the
//!   drivers by [`HaloRetryPolicy`](crate::HaloRetryPolicy)-bounded retries (failed attempts record
//!   zero link bytes, so a recovered run's link tallies are byte-identical
//!   to a fault-free run); permanent failures surface as
//!   [`RecoveryError::Step`];
//! * **launch aborts** — a skipped kernel launch can leave *stale but
//!   finite* fields that conservation checks miss, so the loop watches the
//!   fault plan's fired counters directly ([`RecoveryConfig::fault_watch`]);
//! * **state corruption** — NaN/∞ or standing physics-monitor violations,
//!   probed at every checkpoint boundary.
//!
//! On detection the solver is restored from the last healthy checkpoint and
//! the lost steps are replayed. Because every solver in this workspace is
//! bitwise-deterministic, the recovered trajectory is *identical* to an
//! uninterrupted one — the resilience tests assert equality of FNV field
//! checksums, not tolerances.

use gpu_sim::FaultPlan;
use lbm_core::io::CheckpointError;
use lbm_core::{Simulation, StepError};
use std::sync::Arc;

/// Recovery-loop configuration.
#[derive(Clone, Default)]
pub struct RecoveryConfig {
    /// Checkpoint (and probe health) every `checkpoint_every` steps; `0`
    /// means use the default of 16.
    pub checkpoint_every: u64,
    /// Give up after this many rollbacks (`0` → default 8).
    pub max_rollbacks: u64,
    /// Fault plan whose fired counters are polled after every step —
    /// catches launch aborts and memory corruption the instant they fire.
    pub fault_watch: Option<Arc<FaultPlan>>,
    /// Observability hub for recovery counters and rollback spans.
    pub obs: Option<Arc<obs::Obs>>,
    /// The job id and tenant a `Rollback` event is recorded under (set by
    /// the `lbm-serve` scheduler; `None` records the event with no job).
    pub ctx: Option<(u64, String)>,
}

impl RecoveryConfig {
    fn cadence(&self) -> u64 {
        if self.checkpoint_every == 0 {
            16
        } else {
            self.checkpoint_every
        }
    }

    fn rollback_budget(&self) -> u64 {
        if self.max_rollbacks == 0 {
            8
        } else {
            self.max_rollbacks
        }
    }
}

/// What the recovery loop did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Steps discarded by rollbacks and replayed.
    pub steps_replayed: u64,
    /// Faults detected (watch-counter deltas plus failed health probes).
    pub faults_detected: u64,
    /// Halo-transfer retries performed by the driver during the run.
    pub halo_retries: u64,
}

impl RecoveryStats {
    /// Summary as a JSON value (embedded in bench records).
    pub fn summary(&self) -> obs::json::Value {
        use obs::json::Value;
        Value::obj(vec![
            ("checkpoints", Value::int(self.checkpoints)),
            ("rollbacks", Value::int(self.rollbacks)),
            ("steps_replayed", Value::int(self.steps_replayed)),
            ("faults_detected", Value::int(self.faults_detected)),
            ("halo_retries", Value::int(self.halo_retries)),
        ])
    }
}

/// Why the recovery loop gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// A step error the driver-level retry could not absorb (permanent
    /// link failure, missing route, or retry budget exhausted).
    Step(StepError),
    /// The checkpoint refused to restore (corrupt or mismatched snapshot).
    Restore(CheckpointError),
    /// The rollback budget was exhausted without reaching the target.
    GaveUp { rollbacks: u64, step: u64 },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Step(e) => write!(f, "unrecoverable step error: {e}"),
            RecoveryError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            RecoveryError::GaveUp { rollbacks, step } => {
                write!(f, "gave up after {rollbacks} rollbacks at step {step}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<StepError> for RecoveryError {
    fn from(e: StepError) -> Self {
        RecoveryError::Step(e)
    }
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> Self {
        RecoveryError::Restore(e)
    }
}

/// Drive `sim` to `target_steps` with checkpoint/rollback recovery. Takes
/// an initial checkpoint, advances step by step, checkpoints at the
/// configured cadence (only when healthy — a corrupt state is never made a
/// rollback target), and on any detected fault restores the last checkpoint
/// and replays. Determinism makes the recovered trajectory bitwise equal to
/// an uninterrupted run.
///
/// `?Sized` so callers holding a `Box<dyn Simulation + Send>` (the fleet
/// scheduler in `lbm-serve`) can pass `&mut *boxed`.
pub fn run_with_recovery<S: Simulation + ?Sized>(
    sim: &mut S,
    target_steps: u64,
    cfg: &RecoveryConfig,
) -> Result<RecoveryStats, RecoveryError> {
    let mut stats = RecoveryStats::default();
    let base_retries = sim.halo_retries();
    let mut ckpt = sim.checkpoint();
    let mut ckpt_step = sim.steps();
    stats.checkpoints += 1;
    let mut seen_aborts = cfg.fault_watch.as_ref().map_or(0, |p| p.aborts_fired());
    let mut seen_mem = cfg.fault_watch.as_ref().map_or(0, |p| p.mem_faults_fired());

    while sim.steps() < target_steps {
        sim.try_step()?;
        let step = sim.steps();

        // Detection channel 1: watched fault counters (aborts can leave
        // stale-but-finite fields no conservation check flags).
        let mut suspect = false;
        if let Some(p) = &cfg.fault_watch {
            let (a, m) = (p.aborts_fired(), p.mem_faults_fired());
            if a > seen_aborts || m > seen_mem {
                seen_aborts = a;
                seen_mem = m;
                suspect = true;
            }
        }
        // Detection channel 2: health probe at checkpoint boundaries and at
        // the end of the run (NaN scan + monitor verdict).
        let at_boundary = step.is_multiple_of(cfg.cadence()) || step >= target_steps;
        if suspect || (at_boundary && !sim.is_healthy()) {
            stats.faults_detected += 1;
            stats.rollbacks += 1;
            if stats.rollbacks > cfg.rollback_budget() {
                return Err(RecoveryError::GaveUp {
                    rollbacks: stats.rollbacks - 1,
                    step,
                });
            }
            let span = cfg.obs.as_ref().map(|o| {
                o.metrics.counter_add("recovery_faults_detected", &[], 1);
                o.metrics.counter_add("recovery_rollbacks_total", &[], 1);
                let (job, tenant) = cfg.ctx.as_ref().map_or((None, ""), |(j, t)| (Some(*j), t));
                o.events.record(
                    obs::EventKind::Rollback,
                    job,
                    tenant,
                    &[("from", step.to_string()), ("to", ckpt_step.to_string())],
                );
                o.tracer.span_args(
                    "recovery",
                    "rollback",
                    &[("from", step.to_string()), ("to", ckpt_step.to_string())],
                )
            });
            sim.restore(&ckpt)?;
            stats.steps_replayed += step - ckpt_step;
            drop(span);
            continue;
        }
        if at_boundary && step < target_steps {
            ckpt = sim.checkpoint();
            ckpt_step = step;
            stats.checkpoints += 1;
            if let Some(o) = &cfg.obs {
                o.metrics.counter_add("recovery_checkpoints_total", &[], 1);
            }
        }
    }
    sim.finish_monitor();
    stats.halo_retries = sim.halo_retries() - base_retries;
    Ok(stats)
}

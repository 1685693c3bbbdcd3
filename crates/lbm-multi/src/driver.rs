//! The sharded host: [`MultiSim`] is to a ring of devices what
//! [`lbm_gpu::Sim`] is to one.
//!
//! It reuses the chassis of [`lbm_gpu::driver`] — [`DriverCore`] for the
//! step span, the monitor path and the LBCK envelope, [`DriverBody`] for
//! what a pattern stores — and adds what only a sharded step has: a
//! [`MultiGpu`], a step that can fail on a link ([`MultiSim::try_step`],
//! mirrored into [`StepError`] for the [`Simulation`] surface), the
//! [`HaloRetryPolicy`] with its retry counter, and the [`OverlapStats`]
//! words of the checkpoint. The public driver names are aliases of
//! `MultiSim<body>`; a second host exists only because inherent methods
//! cannot be added to `lbm_gpu::Sim` from this crate.

use crate::recovery::{transfer_with_retry, HaloRetryPolicy};
use crate::stats::OverlapStats;
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::profiler::Profiler;
use gpu_sim::FaultPlan;
use lbm_core::geometry::Geometry;
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::sim::Simulation;
use lbm_core::StepError;
use lbm_gpu::driver::{step_span, DriverBody, DriverCore, Fields};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mirror a substrate [`LinkError`] into the core [`StepError`].
///
/// A free function rather than `From`: both types live in other crates, so
/// the orphan rule forbids the impl.
pub fn step_error_from_link(e: LinkError) -> StepError {
    match e {
        LinkError::Down {
            from,
            to,
            permanent,
        } => StepError::Link {
            from,
            to,
            permanent,
        },
        LinkError::NoRoute { from, to } => StepError::NoRoute { from, to },
    }
}

/// What a sharded body sees of its host during one step.
pub struct StepCx<'a> {
    /// The ring: shard `r` launches on `mg.device(r)`.
    pub mg: &'a MultiGpu,
    /// Completed steps — the step being computed reads time `t`.
    pub t: u64,
    retry: &'a HaloRetryPolicy,
    retries: &'a AtomicU64,
}

impl StepCx<'_> {
    /// Record one halo transfer on the interconnect under the host's retry
    /// policy (see `recovery::transfer_with_retry`).
    pub fn transfer(&self, from: usize, to: usize, bytes: u64) -> Result<(), LinkError> {
        transfer_with_retry(self.mg, from, to, bytes, self.retry, self.retries)
    }

    /// A `halo/halo-exchange` span carrying the fleet job args, if a hub
    /// is attached.
    pub fn halo_span(&self) -> Option<obs::Span<'_>> {
        self.mg.obs().map(|o| {
            let mut args = Vec::new();
            if let Some(ctx) = self.mg.trace_ctx() {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("halo", "halo-exchange", &args)
        })
    }
}

/// A body that advances across the shards of a ring.
pub trait ShardedBody: DriverBody {
    /// Compute step `cx.t` on every shard and exchange halos. On `Err` the
    /// step must be retryable: either nothing owned was mutated, or the
    /// body remembers what is left to finish. The host counts the step.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError>;

    /// The modeled overlap timing, for bodies that keep one; it then rides
    /// in their checkpoints after the step counter.
    fn overlap(&self) -> Option<&OverlapStats> {
        None
    }

    /// Mutable twin of [`ShardedBody::overlap`] (restore, re-init).
    fn overlap_mut(&mut self) -> Option<&mut OverlapStats> {
        None
    }
}

fn put_overlap(w: &mut CheckpointWriter, s: &OverlapStats) {
    w.put_u64(s.steps)
        .put_f64(s.boundary_s)
        .put_f64(s.interior_s)
        .put_f64(s.exchange_s)
        .put_f64(s.bc_s)
        .put_f64(s.hidden_s)
        .put_f64(s.total_s);
}

fn take_overlap(r: &mut CheckpointReader<'_>) -> Result<OverlapStats, CheckpointError> {
    Ok(OverlapStats {
        steps: r.take_u64()?,
        boundary_s: r.take_f64()?,
        interior_s: r.take_f64()?,
        exchange_s: r.take_f64()?,
        bc_s: r.take_f64()?,
        hidden_s: r.take_f64()?,
        total_s: r.take_f64()?,
    })
}

/// A slab-sharded driver: core, ring of devices, halo policy, pattern body.
pub struct MultiSim<B> {
    pub(crate) core: DriverCore,
    pub(crate) mg: MultiGpu,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
    pub(crate) body: B,
}

impl<B> std::ops::Deref for MultiSim<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.body
    }
}

impl<B: ShardedBody> MultiSim<B> {
    /// Host `body` on the ring `mg` (one device per shard), initialized to
    /// equilibrium at rest.
    pub fn from_body(mg: MultiGpu, body: B) -> Self {
        let mut sim = MultiSim {
            core: DriverCore::new(body.geom().fluid_count()),
            mg,
            retry: HaloRetryPolicy::default(),
            halo_retries: AtomicU64::new(0),
            body,
        };
        sim.init_with(|_, _, _| (1.0, [0.0; 3]));
        sim
    }

    /// Host-thread budget of the whole ring, split between threads that
    /// step shards side by side and threads per launch (see
    /// `gpu_sim::MultiGpu::with_cpu_threads`).
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        self.mg = self.mg.with_cpu_threads(n);
        self
    }

    /// Override the minimum launch size dispatched to the worker pool
    /// (see `gpu_sim::Gpu::with_parallel_threshold`); `0` forces pooling
    /// for every multi-block launch.
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.mg = self.mg.with_parallel_threshold(items);
        self
    }

    /// Mirror link traffic into a shared profiler.
    pub fn with_profiler(mut self, p: Arc<Profiler>) -> Self {
        self.mg = self.mg.with_profiler(p);
        self
    }

    /// Attach one observability hub to every device and the link layer:
    /// the driver adds `step` and `halo-exchange` spans, the devices nest
    /// kernel spans, and transfers publish link metrics.
    pub fn with_obs(mut self, obs: Arc<obs::Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place [`MultiSim::with_obs`].
    pub fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        self.body.hub_attached(&obs);
        self.mg.set_obs(obs.clone());
        self.core.obs = Some(obs);
    }

    /// Tag every device's kernel spans (and this driver's step/halo spans)
    /// with a fleet trace context, or clear it with `None`.
    pub fn set_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        self.mg.set_trace_ctx(ctx);
    }

    /// Attach a physics monitor over the *global* fields every
    /// `cfg.cadence` steps.
    pub fn with_monitor(mut self, cfg: obs::MonitorConfig) -> Self {
        self.core.monitor = Some(obs::PhysicsMonitor::new(cfg));
        self
    }

    /// The attached physics monitor, if any.
    pub fn monitor(&self) -> Option<&obs::PhysicsMonitor> {
        self.core.monitor.as_ref()
    }

    /// Mutable access to the physics monitor, if enabled.
    pub fn monitor_mut(&mut self) -> Option<&mut obs::PhysicsMonitor> {
        self.core.monitor.as_mut()
    }

    /// Override the halo-transfer retry policy.
    pub fn with_halo_retry(mut self, policy: HaloRetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach a deterministic fault plan to every device, every shard's
    /// buffers, and the interconnect. With a plan attached the shards are
    /// stepped one after another in index order at any thread count, so
    /// the same shard takes the fault every time.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.mg.set_fault_plan(plan.clone());
        self.body.set_fault_plan(plan);
        self
    }

    /// Halo-transfer retries performed so far.
    pub fn halo_retries(&self) -> u64 {
        self.halo_retries.load(Ordering::Relaxed)
    }

    /// Monitor/metric pattern label of this driver.
    pub fn pattern_label(&self) -> &'static str {
        self.body.label()
    }

    /// Initialize every node — *including ghosts* — from a macroscopic
    /// field evaluated at **global** coordinates, so ghost columns start
    /// consistent with their owners and no initial exchange is needed.
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        self.body.init_with(field);
        self.core.reset();
        if let Some(s) = self.body.overlap_mut() {
            *s = OverlapStats::default();
        }
    }

    /// Advance one timestep. Panics if a halo transfer fails beyond the
    /// retry budget; use [`MultiSim::try_step`] for typed link errors.
    pub fn step(&mut self) {
        self.try_step()
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Advance one timestep, surfacing halo-link failures. On `Err` the
    /// step counter has not advanced and a later call retries the step
    /// bitwise-identically (see [`ShardedBody::advance`]).
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        let obs = self.core.obs.clone();
        let _step_span = obs
            .as_ref()
            .map(|o| step_span(o, self.core.steps(), self.mg.trace_ctx()));
        self.body.advance(&StepCx {
            mg: &self.mg,
            t: self.core.steps(),
            retry: &self.retry,
            retries: &self.halo_retries,
        })?;
        let body = &self.body;
        self.core
            .complete_step(body.label(), |t| body.macro_fields(t));
        Ok(())
    }

    /// Advance `steps` timesteps, then flush a final monitor sample if the
    /// last step fell between cadence points.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
        Simulation::finish_monitor(self);
    }

    /// Completed timesteps.
    pub fn steps(&self) -> u64 {
        self.core.steps()
    }

    /// The global geometry.
    pub fn geom(&self) -> &Geometry {
        self.body.geom()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.mg.num_devices()
    }

    /// The interconnect (link byte counters, report).
    pub fn interconnect(&self) -> &MultiGpu {
        &self.mg
    }

    /// Device-memory footprint of every shard's resident storage.
    pub fn footprint_bytes(&self) -> usize {
        self.body.footprint_bytes()
    }

    /// Global density and velocity fields in one pass over the owning
    /// shards (solid nodes report zero). This is what the monitor samples.
    pub fn macro_fields(&self) -> Fields {
        self.body.macro_fields(self.core.steps())
    }

    /// Global velocity field (solid nodes report zero).
    pub fn velocity_field(&self) -> Vec<[f64; 3]> {
        self.macro_fields().1
    }

    /// Global density field (solid nodes report zero).
    pub fn density_field(&self) -> Vec<f64> {
        self.macro_fields().0
    }

    /// FNV-1a checksum of the global macroscopic fields (bitwise).
    pub fn field_checksum(&self) -> u64 {
        let (rho, u) = self.macro_fields();
        lbm_core::io::field_checksum(&rho, &u)
    }

    /// Serialize the full sharded state: dimensions, timestep, overlap
    /// stats where the pattern keeps them, and every shard's current
    /// lattice (ghost columns included, so no post-restore exchange is
    /// needed).
    pub fn checkpoint(&self) -> Vec<u8> {
        self.core.save(&self.body, |w| {
            if let Some(s) = self.body.overlap() {
                put_overlap(w, s);
            }
        })
    }

    /// Restore a [`MultiSim::checkpoint`] snapshot taken on an identically
    /// configured simulation; the restored state continues exactly as the
    /// original would have. All-or-nothing (see `lbm_gpu::driver`).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let keeps = self.body.overlap().is_some();
        let stats = self.core.load(&mut self.body, bytes, |r| {
            keeps.then(|| take_overlap(r)).transpose()
        })?;
        if let (Some(s), Some(slot)) = (stats, self.body.overlap_mut()) {
            *slot = s;
        }
        Ok(())
    }
}

impl<B: ShardedBody> Simulation for MultiSim<B> {
    fn step(&mut self) {
        MultiSim::step(self)
    }
    fn try_step(&mut self) -> Result<(), StepError> {
        MultiSim::try_step(self).map_err(step_error_from_link)
    }
    fn steps(&self) -> u64 {
        self.core.steps()
    }
    fn checkpoint(&self) -> Vec<u8> {
        MultiSim::checkpoint(self)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        MultiSim::restore(self, bytes)
    }
    fn field_checksum(&self) -> u64 {
        MultiSim::field_checksum(self)
    }
    fn macro_fields(&self) -> Fields {
        MultiSim::macro_fields(self)
    }
    fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        MultiSim::set_obs(self, obs)
    }
    fn set_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        MultiSim::set_trace_ctx(self, ctx)
    }
    fn monitor_ok(&self) -> bool {
        self.core.monitor_ok()
    }
    fn finish_monitor(&mut self) {
        let body = &self.body;
        self.core
            .flush_monitor(body.label(), |t| body.macro_fields(t));
    }
    fn halo_retries(&self) -> u64 {
        MultiSim::halo_retries(self)
    }
    fn fluid_nodes(&self) -> usize {
        self.core.fluid_nodes() as usize
    }
    fn footprint_bytes(&self) -> usize {
        self.body.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_error_mirrors_into_step_error() {
        let e = step_error_from_link(LinkError::Down {
            from: 0,
            to: 1,
            permanent: true,
        });
        assert!(matches!(
            e,
            StepError::Link {
                from: 0,
                to: 1,
                permanent: true
            }
        ));
        let e = step_error_from_link(LinkError::NoRoute { from: 2, to: 0 });
        assert!(matches!(e, StepError::NoRoute { from: 2, to: 0 }));
    }
}

//! The driver chassis: everything a driver does that does not depend on
//! its propagation pattern or on how many devices it runs on, written once.
//!
//! A driver is three parts:
//!
//! * [`DriverCore`] — plain state (step counter, cumulative [`Tally`], obs
//!   hub, physics monitor) and what hangs off it: the
//!   `driver/step` span, launch recording, monitor sampling with its
//!   gauges and instants, `measured_bpf`, and the LBCK checkpoint envelope.
//! * [`DriverBody`] — what a pattern supplies: storage, its gauge label,
//!   its macroscopic fields, the arrays and ledger words it keeps in a
//!   checkpoint, the device it runs on ([`DriverBody::Dev`]) and one
//!   timestep on it ([`DriverBody::advance`]). [`SoloBody`] is a body on one
//!   [`Gpu`]: its timestep is three [`Part`]s and a flip. The one other body
//!   is [`crate::multi::Slabs`], a slab decomposition of solo bodies on a
//!   [`crate::multi::Ring`], whose timestep exchanges halos between the
//!   parts and can fail on a link.
//! * [`Sim`] — the one host: a core, the body's device and the body. It
//!   carries every shared builder and accessor and the one [`Simulation`]
//!   impl (a local wrapper is what the orphan rule asks for to implement
//!   `lbm_core`'s trait generically). What only one kind of device can
//!   answer sits in an `impl` block bounded by the device type:
//!   [`Sim::traffic`] and [`Sim::measured_bpf`] for `Dev = Gpu` here,
//!   `try_step`, `with_halo_retry`, `halo_retries`, `interconnect` and
//!   `num_devices` for `Dev = Ring` in [`crate::multi`]. The host reaches
//!   either device through the crate-private `Device` trait — the builder
//!   calls `Gpu` and `MultiGpu` both have.
//!
//! The public driver names (`StSim`, `MrSim2D`, `MultiStSim`, …) are aliases
//! of `Sim<body>`. Each body's module adds its constructors and its own
//! switches (`with_twist`, `with_config`, …) on the alias; a host derefs to
//! its body for the pattern's read accessors (`scheme()`, `index()`,
//! `stats()`, …).
//!
//! # Slab ownership
//!
//! A body computes an x-span of its geometry, its [`Owned`] columns; the
//! columns outside it are *ghosts* — initialised, read and checkpointed like
//! any other, never computed. A single-device driver owns everything
//! ([`Owned::all`]). A shard of [`crate::multi`] is the same body built on a
//! slab's local geometry with a ghost column at each cut: `SlabBody` is
//! what it adds to be hosted that way (the sharded blob frame and the live
//! lattice as one blob array), `NodeHalo` how a neighbour's fresh edge
//! column is copied into a ghost. A step is issued in parts so the sharded
//! schedule can exchange halos between them: [`Part::Strips`] (what a
//! neighbour's ghost mirrors and so must exist before the exchange),
//! [`Part::Interior`] (the rest, which the exchange can overlap),
//! [`Part::Boundary`] (inlet/outlet rebuild); a solo body's
//! [`DriverBody::advance`] runs the three back to back ([`advance_solo`]).
//!
//! # Restore contract
//!
//! [`DriverCore::load`] parses a blob completely — framing, flavor, step
//! parity, configuration guards, counters, ledger words, every array — into
//! temporaries, refuses payload bytes nobody consumed, and only then
//! commits. After any `Err` the driver is exactly as it was before the call.

use gpu_sim::exec::LaunchStats;
use gpu_sim::interconnect::LinkError;
use gpu_sim::memory::Tally;
use gpu_sim::{FaultPlan, Gpu};
use lbm_core::geometry::Geometry;
use lbm_core::io::{parity_flavor, CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::sim::Simulation;
use lbm_core::StepError;
use std::sync::Arc;

use crate::multi::ring::{step_error_from_link, StepCx};
use crate::multi::Slabs;

/// Density and velocity over the whole box (solid nodes report zero).
pub type Fields = (Vec<f64>, Vec<[f64; 3]>);

/// The head of a pattern's LBCK blob: what precedes the step counter.
pub struct Frame {
    /// Flavor string (`"st"`, `"mr2d-twist"`, `"multi-mr2d"`, …).
    pub flavor: &'static str,
    /// In-place patterns suffix the flavor with the step parity
    /// (`"+even"` / `"+odd"`), so a restore can only land on the half of
    /// the two-step cycle the snapshot was taken at.
    pub parity: bool,
    /// Configuration guards in blob order; a restoring driver must hold
    /// the same values.
    pub guards: Vec<(&'static str, u64)>,
}

/// What the host asks of the device, or ring of devices, under it: the
/// builder calls `Gpu` and `MultiGpu` both have. `Send + 'static` because a
/// served job's driver moves to its executor thread, device included.
pub(crate) trait Device: Sized + Send + 'static {
    fn with_cpu_threads(self, n: usize) -> Self;
    fn with_parallel_threshold(self, items: usize) -> Self;
    fn set_obs(&mut self, obs: Arc<obs::Obs>);
    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>);
    /// Host threads a body's initialization of `nodes` nodes splits across
    /// (`gpu_sim::Gpu::host_split`; on a ring, one shard's device's).
    fn host_split(&self, nodes: usize) -> usize;
    /// Halo-transfer retries so far (one device has no halo).
    fn halo_retries(&self) -> u64 {
        0
    }
}

impl Device for Gpu {
    fn with_cpu_threads(self, n: usize) -> Self {
        Gpu::with_cpu_threads(self, n)
    }
    fn with_parallel_threshold(self, items: usize) -> Self {
        Gpu::with_parallel_threshold(self, items)
    }
    fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        Gpu::set_obs(self, obs)
    }
    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        Gpu::set_fault_plan(self, plan)
    }
    fn host_split(&self, nodes: usize) -> usize {
        Gpu::host_split(self, nodes)
    }
}

/// What a propagation pattern supplies to a host.
pub trait DriverBody {
    /// What the body runs on: a [`Gpu`], or the [`crate::multi::Ring`] of a
    /// slab decomposition.
    #[allow(private_bounds)]
    type Dev: Device;

    /// Pattern label of this configuration: the `pattern` value of the
    /// monitor gauges (`"mr2d"`, `"mr2d-twist"`, `"multi-st"`, …).
    fn label(&self) -> &'static str;

    /// The (global) domain geometry.
    fn geom(&self) -> &Geometry;

    /// Set every node to the equilibrium of a macroscopic field, in the
    /// storage layout of step 0, on `threads` host threads
    /// (the crate's row-wise `init_rows`): the state is the same at any
    /// count.
    fn init_with(
        &mut self,
        threads: usize,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    );

    /// Density and velocity after `t` completed steps, in one pass.
    fn macro_fields(&self, t: u64) -> Fields;

    /// Device-memory footprint of the resident storage, in bytes.
    fn footprint_bytes(&self) -> usize;

    /// Route injected write faults through the lattice buffers (the host
    /// attaches the plan to the device itself).
    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>);

    /// A hub was attached: publish configuration gauges, if any.
    fn hub_attached(&self, _obs: &obs::Obs) {}

    /// Flavor and configuration guards of this configuration's blobs.
    fn frame(&self) -> Frame;

    /// A word stored between the step counter and the host's ledger. Only
    /// `mr2d` blobs have one (their buffer selector, a function of `t`);
    /// the format is frozen, so the envelope keeps the slot.
    fn selector(&self, _t: u64) -> Option<u64> {
        None
    }

    /// The lattice arrays of the state after `t` steps, raw, in blob order.
    fn state_arrays(&self, t: u64) -> Vec<Vec<f64>>;

    /// Lengths of [`DriverBody::state_arrays`].
    fn state_lens(&self) -> Vec<usize>;

    /// Install arrays of exactly those lengths as the state after `t` steps.
    fn install(&mut self, t: u64, arrays: Vec<Vec<f64>>);

    /// The words a blob keeps between the step counter (and selector) and
    /// the arrays — a frozen format. On one device: the host's cumulative
    /// `tally`.
    fn ledger(&self, tally: &Tally) -> Vec<u64> {
        vec![
            tally.reads,
            tally.writes,
            tally.bytes_read,
            tally.bytes_written,
            tally.dram_bytes_read,
            tally.l2_read_hits,
        ]
    }

    /// Take back as many words as [`DriverBody::ledger`] writes. Called by a
    /// restore after [`DriverBody::install`], once the whole blob parsed.
    fn set_ledger(&mut self, words: &[u64], tally: &mut Tally) {
        let [reads, writes, bytes_read, bytes_written, dram_bytes_read, l2_read_hits] =
            words.try_into().expect("as many words as ledger() wrote");
        *tally = Tally {
            reads,
            writes,
            bytes_read,
            bytes_written,
            dram_bytes_read,
            l2_read_hits,
        };
    }

    /// Compute step `t` on `dev`, reporting every launch of a single device
    /// through `rec`. Only a ring's link failing past its retry budget is an
    /// `Err`, and the step must then be retryable: either nothing owned was
    /// mutated, or the body remembers what is left to finish. The host
    /// counts the step.
    fn advance(&mut self, dev: &Self::Dev, t: u64, rec: Rec<'_>) -> Result<(), LinkError>;
}

/// The x-span of its geometry a body computes (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owned {
    /// First owned column.
    pub lo: usize,
    /// One past the last owned column.
    pub hi: usize,
    /// Whether a ghost column precedes the span.
    pub ghost_l: bool,
    /// Whether a ghost column follows the span.
    pub ghost_r: bool,
}

impl Owned {
    /// Every column of `geom`, no ghosts: the single-device case.
    pub fn all(geom: &Geometry) -> Self {
        Owned {
            lo: 0,
            hi: geom.nx,
            ghost_l: false,
            ghost_r: false,
        }
    }

    /// Whether column `x` is owned.
    pub fn contains(&self, x: usize) -> bool {
        (self.lo..self.hi).contains(&x)
    }

    /// The owned columns next to a ghost, as spans (one span when a 1-wide
    /// slab's single column is both edges).
    pub fn strips(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if self.ghost_l {
            out.push((self.lo, self.lo + 1));
        }
        if self.ghost_r && out.first() != Some(&(self.hi - 1, self.hi)) {
            out.push((self.hi - 1, self.hi));
        }
        out
    }

    /// The owned span not covered by [`Owned::strips`].
    pub fn interior(&self) -> Option<(usize, usize)> {
        let lo = self.lo + self.ghost_l as usize;
        let hi = self.hi - self.ghost_r as usize;
        (lo < hi).then_some((lo, hi))
    }
}

/// One part of a timestep (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The owned columns next to a ghost — or the whole update, where a
    /// pattern does not sort its work by distance from a cut.
    Strips,
    /// The owned columns no neighbour mirrors.
    Interior,
    /// The inlet/outlet rebuild over what the other two wrote.
    Boundary,
}

/// Receives every launch of a part.
pub type Rec<'a> = &'a mut dyn FnMut(&LaunchStats);

/// A body that advances on one device.
pub trait SoloBody: DriverBody<Dev = Gpu> {
    /// Issue `part`'s launches of step `t` on `gpu`, reporting each through
    /// `rec`. Unless the body updates in place, time `t` stays intact until
    /// [`SoloBody::flip`] and a part may be launched again (a sharded step
    /// retried after a failed exchange).
    fn launch_part(&self, gpu: &Gpu, t: u64, part: Part, rec: Rec<'_>);

    /// Every part of a step has run: make its output the current state
    /// (nothing to do where the buffer is chosen by step parity or updated
    /// in place).
    fn flip(&mut self) {}
}

/// [`DriverBody::advance`] of a [`SoloBody`]: the three parts back to back,
/// then the flip. Never an `Err`.
pub fn advance_solo<B: SoloBody>(
    body: &mut B,
    gpu: &Gpu,
    t: u64,
    rec: Rec<'_>,
) -> Result<(), LinkError> {
    for part in [Part::Strips, Part::Interior, Part::Boundary] {
        body.launch_part(gpu, t, part, &mut *rec);
    }
    body.flip();
    Ok(())
}

/// What a [`SoloBody`] adds to be one shard of a slab decomposition. These
/// touch private storage, hence a trait here and not code in
/// [`crate::multi`].
pub(crate) trait SlabBody: SoloBody + Sync + Sized {
    /// Whether the pattern's sharded blobs carry the overlap-timing words
    /// after the step counter — a frozen format.
    const OVERLAP_IN_BLOB: bool = true;

    /// Monitor label and blob frame (flavor and guards, over the `global`
    /// box) of this pattern's sharded driver; the host appends the shard
    /// count. The strings are frozen formats.
    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame);

    /// One step of the pattern's sharded driver: [`Slabs::two_phase`] unless
    /// its exchange is a protocol of its own.
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError>;

    /// The live lattice after `t` steps: a shard's one blob array. A body
    /// whose [`DriverBody::state_arrays`] is that lattice inherits this.
    fn current(&self, t: u64) -> Vec<f64> {
        let mut arrays = self.state_arrays(t);
        assert_eq!(arrays.len(), 1, "a multi-array body overrides this");
        arrays.remove(0)
    }

    /// Length of [`SlabBody::current`].
    fn current_len(&self) -> usize {
        self.state_lens()[0]
    }

    /// Install [`SlabBody::current`] data as the state after `t` steps.
    fn install_current(&mut self, t: u64, data: Vec<f64>) {
        self.install(t, vec![data]);
    }
}

/// A [`SlabBody`] whose ghosts are whole-node copies of a neighbour's state.
pub(crate) trait NodeHalo: SlabBody {
    /// Doubles per halo node (`Q` populations or `M` moments).
    const HALO: usize;

    /// Copy the time-`t + 1` state — what the parts of step `t` wrote — of
    /// node `si` into node `di` of `to`, for each pair of one transfer. Node
    /// ids are the pattern's own (flat domain index; compact id when
    /// fluid-compacted).
    fn send_nodes(&self, to: &Self, t: u64, pairs: &[(usize, usize)]);
}

/// A body with a per-node scalar path beside its chunk-vectorized one — or
/// the shards of one.
pub(crate) trait ScalarKernels {
    fn set_scalar_kernels(&mut self);
}

/// A body whose span kernels run in thread blocks of a settable size — or
/// the shards of one.
pub(crate) trait BlockSize {
    fn set_block_size(&mut self, bs: usize);
}

/// The four guards most blobs open with: the box and the per-node payload
/// (`("Q", L::Q)` or `("M", L::M)`).
pub fn box_guards(geom: &Geometry, payload: (&'static str, usize)) -> Vec<(&'static str, u64)> {
    vec![
        ("nx", geom.nx as u64),
        ("ny", geom.ny as u64),
        ("nz", geom.nz as u64),
        (payload.0, payload.1 as u64),
    ]
}

/// The pattern-independent state of a driver.
pub struct DriverCore {
    t: u64,
    tally: Tally,
    fluid_nodes: u64,
    /// Hub the step span, monitor gauges and instants go to.
    obs: Option<Arc<obs::Obs>>,
    /// Sampled every `cadence` completed steps; rolled back by a restore.
    monitor: Option<obs::PhysicsMonitor>,
}

impl DriverCore {
    /// A core at step 0 for a domain of `fluid_nodes` fluid-like nodes.
    pub fn new(fluid_nodes: usize) -> Self {
        DriverCore {
            t: 0,
            tally: Tally::default(),
            fluid_nodes: fluid_nodes as u64,
            obs: None,
            monitor: None,
        }
    }

    /// Whether the attached physics monitor (if any) has no violations.
    pub fn monitor_ok(&self) -> bool {
        self.monitor.as_ref().is_none_or(|m| m.is_ok())
    }

    /// Back to step 0 with an empty tally (a fresh initial field).
    pub fn reset(&mut self) {
        self.t = 0;
        self.tally = Tally::default();
    }

    /// Account one launch: merge its tally into the ledger.
    pub fn record(&mut self, stats: &LaunchStats) {
        self.tally.merge(&stats.tally);
    }

    /// Measured DRAM bytes per fluid lattice update (Table 2's B/F); zero
    /// before the first step, when there is no update to divide by.
    pub fn measured_bpf(&self) -> f64 {
        let updates = self.fluid_nodes * self.t;
        if updates == 0 {
            return 0.0;
        }
        self.tally.dram_bytes() as f64 / updates as f64
    }

    /// Count a completed step and sample the monitor if it is due.
    pub fn complete_step(&mut self, label: &str, fields: impl FnOnce(u64) -> Fields) {
        self.t += 1;
        self.sample_monitor(label, fields);
    }

    /// Cadence-gated monitor sampling: `fields` (the expensive part) only
    /// runs on sampling steps.
    fn sample_monitor(&mut self, label: &str, fields: impl FnOnce(u64) -> Fields) {
        if !self.monitor.as_ref().is_some_and(|m| m.due(self.t)) {
            return;
        }
        let (rho, u) = fields(self.t);
        let s = self.monitor.as_mut().unwrap().observe(self.t, &rho, &u);
        if let Some(o) = &self.obs {
            publish_sample(o, label, &s);
            if s.nonfinite > 0 {
                o.tracer.instant(
                    "monitor",
                    "nonfinite",
                    &[
                        ("step", s.step.to_string()),
                        ("count", s.nonfinite.to_string()),
                    ],
                );
            }
        }
    }

    /// Force a final monitor sample at the current step (no-op without a
    /// monitor, or when the last step was already sampled). The flushed
    /// sample is published like any cadence sample, so monitor series stay
    /// gap-free across run ends and fleet evictions.
    pub fn flush_monitor(&mut self, label: &str, fields: impl FnOnce(u64) -> Fields) {
        let Some(m) = self.monitor.as_mut() else {
            return;
        };
        let (rho, u) = fields(self.t);
        if let (Some(s), Some(o)) = (m.finish(self.t, &rho, &u), &self.obs) {
            publish_sample(o, label, &s);
            o.tracer
                .instant("monitor", "flush", &[("step", s.step.to_string())]);
        }
    }

    /// Serialize `body` at the current step: flavor (parity-tagged where
    /// the frame says so), guards, `t`, the body's selector word if it has
    /// one, its ledger words, its arrays.
    pub fn save<B: DriverBody>(&self, body: &B) -> Vec<u8> {
        let frame = body.frame();
        let mut w = CheckpointWriter::new(&if frame.parity {
            parity_flavor(frame.flavor, self.t)
        } else {
            frame.flavor.to_string()
        });
        for (_, v) in &frame.guards {
            w.put_u64(*v);
        }
        w.put_u64(self.t);
        if let Some(sel) = body.selector(self.t) {
            w.put_u64(sel);
        }
        for word in body.ledger(&self.tally) {
            w.put_u64(word);
        }
        for a in body.state_arrays(self.t) {
            w.put_f64s(&a);
        }
        w.finish()
    }

    /// Restore a [`DriverCore::save`] blob into this core and `body`. See
    /// the module docs for the all-or-nothing contract.
    pub fn load<B: DriverBody>(
        &mut self,
        body: &mut B,
        bytes: &[u8],
    ) -> Result<(), CheckpointError> {
        let frame = body.frame();
        let (mut r, parity) = if frame.parity {
            let (even, odd) = (
                parity_flavor(frame.flavor, 0),
                parity_flavor(frame.flavor, 1),
            );
            let (r, which) = CheckpointReader::open_any(bytes, &[even.as_str(), odd.as_str()])?;
            (r, Some(which as u64))
        } else {
            (CheckpointReader::open(bytes, frame.flavor)?, None)
        };
        for (what, v) in &frame.guards {
            r.expect_u64(*v, what)?;
        }
        let t = r.take_u64()?;
        if parity.is_some_and(|p| t % 2 != p) {
            return Err(CheckpointError::Mismatch(format!(
                "flavor parity ({}) disagrees with stored step counter {t}",
                if parity == Some(0) { "even" } else { "odd" }
            )));
        }
        if let Some(sel) = body.selector(t) {
            r.expect_u64(sel, "buffer selector")?;
        }
        let ledger = (0..body.ledger(&self.tally).len())
            .map(|_| r.take_u64())
            .collect::<Result<Vec<_>, _>>()?;
        let arrays = body
            .state_lens()
            .into_iter()
            .map(|n| r.take_f64s(n))
            .collect::<Result<Vec<_>, _>>()?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Mismatch(format!(
                "{} payload bytes beyond what this driver stores",
                r.remaining()
            )));
        }
        body.install(t, arrays);
        body.set_ledger(&ledger, &mut self.tally);
        self.t = t;
        if let Some(m) = self.monitor.as_mut() {
            m.rollback_to(t);
        }
        Ok(())
    }
}

fn publish_sample(o: &obs::Obs, label: &str, s: &obs::MonitorSample) {
    o.metrics
        .gauge_set("monitor_mass", &[("pattern", label)], s.mass);
    o.metrics
        .gauge_set("monitor_max_u", &[("pattern", label)], s.max_u);
}

/// A driver: core, the body's device and the pattern body.
pub struct Sim<B: DriverBody> {
    pub(crate) core: DriverCore,
    pub(crate) dev: B::Dev,
    pub(crate) body: B,
}

impl<B: DriverBody> std::ops::Deref for Sim<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.body
    }
}

impl<B: DriverBody> Sim<B> {
    /// Host `body` on `dev`, initialized to equilibrium at rest (inlets at
    /// their prescribed velocity) on the calling thread: the rest state
    /// costs about a fill, and a constructor never spawns.
    pub(crate) fn from_body(dev: B::Dev, mut body: B) -> Self {
        body.init_with(1, &|_, _, _| (1.0, [0.0; 3]));
        let core = DriverCore::new(body.geom().fluid_count());
        Sim { core, dev, body }
    }

    /// Limit the CPU worker threads backing the substrate. On a ring the
    /// budget is the whole ring's, split between threads that step shards
    /// side by side and threads per launch (see
    /// `gpu_sim::MultiGpu::with_cpu_threads`).
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        self.dev = self.dev.with_cpu_threads(n);
        self
    }

    /// Override the minimum launch size dispatched to the worker pool
    /// (see `gpu_sim::Gpu::with_parallel_threshold`); `0` forces pooling
    /// for every multi-block launch.
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.dev = self.dev.with_parallel_threshold(items);
        self
    }

    /// Attach an observability hub: the driver emits a `step` span per
    /// timestep (and a `halo-exchange` span per exchange), every device
    /// nests one kernel span per launch under it and publishes launch
    /// metrics, and transfers publish link metrics.
    pub fn with_obs(mut self, obs: Arc<obs::Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place [`Sim::with_obs`].
    pub fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        self.body.hub_attached(&obs);
        self.dev.set_obs(obs.clone());
        self.core.obs = Some(obs);
    }

    /// Attach a physics monitor sampling the (global) macroscopic fields
    /// every `cfg.cadence` steps (mass/momentum/max-|u|/NaN guards).
    pub fn with_monitor(mut self, cfg: obs::MonitorConfig) -> Self {
        self.core.monitor = Some(obs::PhysicsMonitor::new(cfg));
        self
    }

    /// The attached physics monitor, if any.
    pub fn monitor(&self) -> Option<&obs::PhysicsMonitor> {
        self.core.monitor.as_ref()
    }

    /// Attach a deterministic fault plan to the device(s), the lattice
    /// buffers and, on a ring, the interconnect (see `gpu_sim::FaultPlan`):
    /// injected write corruption, launch aborts and link failures become
    /// live, with unchanged traffic accounting. With a plan attached the
    /// shards of a ring are stepped one after another in index order at any
    /// thread count, so the same shard takes the fault every time.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.dev.set_fault_plan(plan.clone());
        self.body.set_fault_plan(plan);
        self
    }

    /// Monitor/metric pattern label of this configuration.
    pub fn pattern_label(&self) -> &'static str {
        self.body.label()
    }

    /// Initialize every node to the operator-consistent equilibrium of a
    /// macroscopic field (evaluated at global coordinates) and reset the
    /// step counter and the ledger. The rows split over the device's host
    /// threads when it has more than one and the domain clears its parallel
    /// threshold; the state written is the same either way.
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync) {
        let threads = self.dev.host_split(self.body.geom().len());
        self.body.init_with(threads, &field);
        self.core.reset();
    }

    /// One timestep, counted if it completed.
    pub(crate) fn advance(&mut self) -> Result<(), LinkError> {
        let obs = self.core.obs.clone();
        let _step_span = obs.as_ref().map(|o| {
            o.tracer
                .span_args("driver", "step", &[("t", self.core.t.to_string())])
        });
        let (t, core) = (self.core.t, &mut self.core);
        self.body
            .advance(&self.dev, t, &mut |stats| core.record(stats))?;
        let body = &self.body;
        self.core
            .complete_step(body.label(), |t| body.macro_fields(t));
        Ok(())
    }

    /// Advance one timestep. Panics if a halo transfer of a ring fails
    /// beyond the retry budget; use `try_step` there for typed link errors.
    pub fn step(&mut self) {
        self.advance()
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Advance `steps` timesteps, then force a final monitor sample so a
    /// run that ends off the sampling cadence still has its tail checked.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
        Simulation::finish_monitor(self);
    }

    /// Completed timesteps.
    pub fn steps(&self) -> u64 {
        self.core.t
    }

    /// Domain geometry (the global one of a sharded driver).
    pub fn geom(&self) -> &Geometry {
        self.body.geom()
    }

    /// Device-memory footprint of the resident lattices, every shard's
    /// included.
    pub fn footprint_bytes(&self) -> usize {
        self.body.footprint_bytes()
    }

    /// Density and velocity fields in one pass over the lattice (solid
    /// nodes report zero). This is what the physics monitor samples.
    pub fn macro_fields(&self) -> Fields {
        self.body.macro_fields(self.core.t)
    }

    /// Velocity field (solid nodes report zero).
    pub fn velocity_field(&self) -> Vec<[f64; 3]> {
        self.macro_fields().1
    }

    /// Density field (solid nodes report zero).
    pub fn density_field(&self) -> Vec<f64> {
        self.macro_fields().0
    }

    /// FNV-1a fingerprint of the macroscopic fields (bitwise-sensitive; two
    /// runs match iff their fields are identical to the last bit).
    pub fn field_checksum(&self) -> u64 {
        let (rho, u) = self.macro_fields();
        lbm_core::io::field_checksum(&rho, &u)
    }

    /// The accounting words a checkpoint carries between the step counter
    /// and the lattices: the traffic tally of a single device, the overlap
    /// timing of a sharded pattern whose blobs have it.
    pub fn ledger(&self) -> Vec<u64> {
        self.body.ledger(&self.core.tally)
    }

    /// Serialize the full solver state (step counter, ledger, lattice
    /// arrays — ghost columns included, so a sharded restore needs no
    /// exchange) as a versioned, checksummed LBCK snapshot.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.core.save(&self.body)
    }

    /// Restore a [`Sim::checkpoint`] snapshot taken on an identically
    /// configured simulation; resuming replays the exact uninterrupted
    /// trajectory. All-or-nothing (see the module docs).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.core.load(&mut self.body, bytes)
    }
}

// The switch traits are crate-private: a driver has the builder iff its
// pattern has the switch.
#[allow(private_bounds)]
impl<B: DriverBody> Sim<B> {
    /// Run the original per-node scalar kernels instead of the vectorized
    /// SoA chunks. The two paths are bitwise-identical (enforced by
    /// `tests/kernel_equivalence.rs`); the scalar path exists as the
    /// equivalence oracle.
    pub fn with_scalar_kernels(mut self) -> Self
    where
        B: ScalarKernels,
    {
        self.body.set_scalar_kernels();
        self
    }

    /// Set the thread-block size of the span kernels.
    pub fn with_block_size(mut self, bs: usize) -> Self
    where
        B: BlockSize,
    {
        self.body.set_block_size(bs);
        self
    }
}

impl<B: DriverBody<Dev = Gpu>> Sim<B> {
    /// Aggregate traffic over all steps so far.
    pub fn traffic(&self) -> Tally {
        self.core.tally
    }

    /// Measured DRAM bytes per fluid lattice update (Table 2's B/F).
    pub fn measured_bpf(&self) -> f64 {
        self.core.measured_bpf()
    }
}

impl<B: DriverBody> Simulation for Sim<B> {
    fn step(&mut self) {
        Sim::step(self)
    }
    fn try_step(&mut self) -> Result<(), StepError> {
        self.advance().map_err(step_error_from_link)
    }
    fn steps(&self) -> u64 {
        self.core.t
    }
    fn checkpoint(&self) -> Vec<u8> {
        Sim::checkpoint(self)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        Sim::restore(self, bytes)
    }
    fn field_checksum(&self) -> u64 {
        Sim::field_checksum(self)
    }
    fn macro_fields(&self) -> Fields {
        Sim::macro_fields(self)
    }
    fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        Sim::set_obs(self, obs)
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
        self.dev.halo_retries()
    }
    fn fluid_nodes(&self) -> usize {
        self.core.fluid_nodes as usize
    }
    fn footprint_bytes(&self) -> usize {
        self.body.footprint_bytes()
    }
}

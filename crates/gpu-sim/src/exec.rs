//! The execution engine: grids of thread blocks on CPU worker threads.
//!
//! Two launch modes:
//!
//! * [`Gpu::launch`] — every block runs to completion independently, blocks
//!   scheduled in parallel over CPU threads. Matches kernels whose blocks
//!   share no in-flight data (the ST pattern: read lattice A, write
//!   lattice B).
//! * [`Gpu::launch_lockstep`] — the launch is divided into global *phases*;
//!   all blocks execute phase `p` before any block starts `p + 1`. This is
//!   the deterministic bulk-synchronous over-approximation of SIMT progress
//!   under which the moment-representation kernels (Algorithm 2, one phase
//!   per tile/layer) are executed and race-checked. See `DESIGN.md` for why
//!   this substitution preserves the paper's behaviour.
//!
//! Within a block, kernels iterate over thread indices explicitly; a
//! `__syncthreads()` barrier corresponds to finishing one `for tid` loop and
//! starting the next (threads of a block execute sequentially, so every
//! barrier-delimited region is trivially ordered).
//!
//! Block scheduling is backed by a persistent [`WorkerPool`] owned by the
//! [`Gpu`]: threads are spawned once and woken per phase, and blocks are
//! claimed through a shared atomic cursor (dynamic load balancing — no
//! static chunking). Per-block shared/scratch slabs are recycled through a
//! slab arena on the `Gpu`, so steady-state launches allocate nothing.

use crate::device::DeviceSpec;
use crate::fault::Element;
use crate::memory::{GlobalBuffer, Selection, Tally};
use crate::pool::WorkerPool;
use crate::racecheck::Epoch;
use obs::Obs;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Launch configuration: grid size, block size, and per-block memory.
#[derive(Copy, Clone, Debug)]
pub struct Launch {
    /// Number of thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block (must respect the device limit).
    pub threads_per_block: usize,
    /// Shared-memory request per block, in `f64` words.
    pub shared_doubles: usize,
    /// Persistent per-block private scratch, in `f64` words (register/local
    /// memory analog that survives across lockstep phases).
    pub scratch_doubles: usize,
}

impl Launch {
    /// A simple launch with no shared memory or scratch.
    pub fn simple(blocks: usize, threads_per_block: usize) -> Self {
        Launch {
            blocks,
            threads_per_block,
            shared_doubles: 0,
            scratch_doubles: 0,
        }
    }

    /// Shared-memory bytes requested per block.
    pub fn shared_bytes(&self) -> usize {
        self.shared_doubles * std::mem::size_of::<f64>()
    }
}

/// Aggregated statistics of one launch.
#[derive(Clone, Debug, Default)]
pub struct LaunchStats {
    /// Phases run (0 when an injected abort skipped the launch).
    pub phases: usize,
    pub tally: Tally,
}

/// Per-block execution context: identity, memory handles, and counters.
pub struct BlockCtx<'a> {
    pub block_id: usize,
    /// Threads in this block.
    pub threads: usize,
    pub device: &'a DeviceSpec,
    launch_id: u32,
    phase: u32,
    exclusive: bool,
    pub tally: Tally,
    shared: Vec<f64>,
    scratch: Vec<f64>,
}

impl<'a> BlockCtx<'a> {
    /// The access identity for race checking.
    #[inline(always)]
    pub fn epoch(&self) -> Epoch {
        Epoch {
            launch: self.launch_id,
            phase: self.phase,
            block: self.block_id as u32,
            exclusive: self.exclusive,
        }
    }

    /// Counted read from global memory.
    #[inline(always)]
    pub fn read<T: Element>(&mut self, buf: &GlobalBuffer<T>, i: usize) -> T {
        let ep = self.epoch();
        buf.read(&mut self.tally, ep, i)
    }

    /// Counted write to global memory.
    #[inline(always)]
    pub fn write<T: Element>(&mut self, buf: &GlobalBuffer<T>, i: usize, v: T) {
        let ep = self.epoch();
        buf.write(&mut self.tally, ep, i, v)
    }

    /// Bulk-counted read of `out.len()` consecutive cells starting at
    /// `start`. Byte-identical tallies to element-wise reads; see
    /// [`GlobalBuffer::read_span`].
    #[inline(always)]
    pub fn read_span<T: Element>(&mut self, buf: &GlobalBuffer<T>, start: usize, out: &mut [T]) {
        let ep = self.epoch();
        buf.read_span(&mut self.tally, ep, start, out)
    }

    /// Counted family read into scratch: `family = (start, stride, rows,
    /// len)` lands in scratch rows `scratch_stride` apart from
    /// `scratch_off`, in reverse row order when `rev`, in one accounting
    /// envelope. Every cell is counted with no selection, else only the
    /// cells `sel` selects, every cell copied; see
    /// [`GlobalBuffer::read_window_into`] for the window contract the
    /// caller keeps.
    #[inline(always)]
    pub fn read_window_to_scratch(
        &mut self,
        buf: &GlobalBuffer<f64>,
        family: (usize, usize, usize, usize),
        sel: Option<Selection<'_>>,
        (scratch_off, scratch_stride): (usize, usize),
        rev: bool,
    ) {
        let (ep, t, out) = (
            self.epoch(),
            &mut self.tally,
            &mut self.scratch[scratch_off..],
        );
        // Each arm inlines the family body with its variant known, so a
        // run-time selection is branched on once per family, not in every
        // span's passes (4–6 % of the 3D MR-P step, whose one-run rows pass
        // a run-time `None`).
        match sel {
            None => buf.read_window_into(t, ep, family, None, out, scratch_stride, rev),
            Some(s) => buf.read_window_into(t, ep, family, Some(s), out, scratch_stride, rev),
        }
    }

    /// Family-write mirror of [`BlockCtx::read_window_to_scratch`]: only
    /// the used cells are written; see [`GlobalBuffer::write_window_from`].
    #[inline(always)]
    pub fn write_window_from_scratch(
        &mut self,
        buf: &GlobalBuffer<f64>,
        family: (usize, usize, usize, usize),
        sel: Option<Selection<'_>>,
        (scratch_off, scratch_stride): (usize, usize),
        rev: bool,
    ) {
        let (ep, t, src) = (self.epoch(), &mut self.tally, &self.scratch[scratch_off..]);
        match sel {
            None => buf.write_window_from(t, ep, family, None, src, scratch_stride, rev),
            Some(s) => buf.write_window_from(t, ep, family, Some(s), src, scratch_stride, rev),
        }
    }

    /// The block's shared-memory slab.
    #[inline(always)]
    pub fn shared(&mut self) -> &mut [f64] {
        &mut self.shared
    }

    /// The block's persistent private scratch.
    #[inline(always)]
    pub fn scratch(&mut self) -> &mut [f64] {
        &mut self.scratch
    }

    /// Both slabs at once (for kernels that copy between them).
    #[inline(always)]
    pub fn shared_and_scratch(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.shared, &mut self.scratch)
    }
}

/// A kernel whose blocks are mutually independent within a launch.
pub trait Kernel: Sync {
    /// Name under which the launch is traced and metered.
    fn name(&self) -> &str;
    /// Execute one block to completion.
    fn run_block(&self, ctx: &mut BlockCtx);
}

/// A kernel executed in grid-wide lockstep phases.
pub trait PhasedKernel: Sync {
    /// Name under which the launch is traced and metered.
    fn name(&self) -> &str;
    /// Number of phases; all blocks run phase `p` before any runs `p+1`.
    fn phases(&self) -> usize;
    /// Execute one phase of one block.
    fn run_phase(&self, phase: usize, ctx: &mut BlockCtx);
}

/// Recycled per-block slab pair; see the arena on [`Gpu`].
#[derive(Default)]
struct BlockSlab {
    shared: Vec<f64>,
    scratch: Vec<f64>,
}

/// Default for [`Gpu::with_parallel_threshold`]: launches (or lockstep
/// phases) with fewer than this many work items (`blocks ×
/// threads_per_block`) run inline on the submitting thread. Dispatching a
/// phase to the pool costs a few microseconds of wakeup latency; below this
/// size that overhead exceeds the work being distributed (measured on the
/// bench lattices — a 2-block smoke phase is ~40% faster inline).
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// The host's available parallelism (1 if unknown), queried once per
/// process: every [`Gpu::new`] and [`crate::MultiGpu::ring`] defaults to
/// it, and the query is a system call.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The simulated device: owns the spec, the CPU worker configuration, the
/// persistent worker pool, and the per-block slab arena.
pub struct Gpu {
    pub device: DeviceSpec,
    cpu_threads: usize,
    parallel_threshold: usize,
    launch_counter: AtomicU32,
    obs: Option<Arc<Obs>>,
    /// Injected-fault script consulted at launch entry (tests/resilience).
    faults: Option<Arc<crate::fault::FaultPlan>>,
    /// Position in the owning [`crate::MultiGpu`] (`None` for a solo
    /// device): every device of a ring shares one `device` name, so kernel
    /// spans and the per-device counters carry this as `dev`.
    index: Option<usize>,
    /// Lazily-spawned persistent pool of `cpu_threads − 1` worker threads
    /// (the launching thread is the remaining participant).
    pool: OnceLock<WorkerPool>,
    /// Recycled per-block shared/scratch slabs: taken at launch entry,
    /// returned after the tallies are merged. Slabs are cleared and
    /// zero-resized on reuse, so kernels still observe zero-initialized
    /// shared and scratch memory every launch.
    arena: Mutex<Vec<BlockSlab>>,
}

/// Pointer wrapper for disjoint parallel access to the per-block contexts.
struct CtxPtr<'a>(*mut BlockCtx<'a>);

/// The debug-build twin of the `CtxPtr` SAFETY comments: one flag per
/// block of a phase, set when a participant claims the block, so a block
/// handed out twice — two `&mut` to one context — panics instead of
/// aliasing, and a block never handed out is caught when the phase drains.
struct Claims(Box<[AtomicBool]>);

impl Claims {
    fn new(blocks: usize) -> Self {
        Claims((0..blocks).map(|_| AtomicBool::new(false)).collect())
    }

    fn claim(&self, b: usize) {
        assert!(
            !self.0[b].swap(true, Ordering::Relaxed),
            "block {b} claimed twice in one phase"
        );
    }

    fn all_claimed(&self) -> bool {
        self.0.iter().all(|c| c.load(Ordering::Relaxed))
    }
}
// SAFETY: the pointer is only dereferenced at disjoint block indices (see
// the launch loop), so moving the wrapper to a pool thread shares no
// context between threads.
unsafe impl Send for CtxPtr<'_> {}
// SAFETY: as for `Send`: every thread that holds a `&CtxPtr` derives a
// `&mut` to a block context no other thread is handed.
unsafe impl Sync for CtxPtr<'_> {}

impl Gpu {
    /// Create a simulated device using all available CPU parallelism.
    pub fn new(device: DeviceSpec) -> Self {
        Gpu {
            device,
            cpu_threads: host_threads(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            launch_counter: AtomicU32::new(0),
            obs: None,
            faults: None,
            index: None,
            pool: OnceLock::new(),
            arena: Mutex::new(Vec::new()),
        }
    }

    /// Attach a fault-injection plan: launches consult it and may abort
    /// (returning a zero tally — the kernel never ran). The thread and
    /// threshold builders keep it, so the order of the builder calls does
    /// not matter.
    pub fn set_fault_plan(&mut self, plan: Arc<crate::fault::FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Builder-style [`Gpu::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: Arc<crate::fault::FaultPlan>) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Record this device's position in its ring (see the `index` field).
    pub(crate) fn with_index(mut self, i: usize) -> Self {
        self.index = Some(i);
        self
    }

    /// Override the CPU worker count (builder style). Drops any existing
    /// pool; the next launch spawns a fresh one sized to `n`.
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        self.cpu_threads = n.max(1);
        self.pool = OnceLock::new();
        self
    }

    /// Override the minimum launch size (`blocks × threads_per_block`)
    /// dispatched to the worker pool (builder style). Smaller launches run
    /// inline on the submitting thread — results and tallies are identical
    /// either way (the executor-determinism guarantee); only wall-clock
    /// changes. `0` forces pooling for every multi-block launch (used by
    /// tests that exercise the pool itself).
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.parallel_threshold = items;
        self
    }

    /// Host threads a host-side pass over `items` work items (a driver's
    /// initialization) splits across: all of this device's, when it has more
    /// than one and `items` clears the parallel threshold; else 1, the
    /// calling thread.
    pub fn host_split(&self, items: usize) -> usize {
        if items >= self.parallel_threshold {
            self.cpu_threads
        } else {
            1
        }
    }

    /// Attach an observability hub (builder style): every launch then emits
    /// one kernel span into the tracer, whatever its phase or block count,
    /// and publishes a fixed set of counters into the metrics registry.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// Attach or replace the observability hub after construction.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The persistent worker pool, spawned on first parallel launch.
    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(self.cpu_threads.saturating_sub(1)))
    }

    fn validate(&self, cfg: &Launch) {
        assert!(cfg.blocks > 0, "empty grid");
        assert!(
            cfg.threads_per_block >= 1
                && cfg.threads_per_block <= self.device.max_threads_per_block,
            "block of {} threads exceeds {} limit of {}",
            cfg.threads_per_block,
            self.device.name,
            self.device.max_threads_per_block
        );
        assert!(
            cfg.shared_bytes() <= self.device.shared_mem_per_sm,
            "shared memory request {} B exceeds {} per-SM capacity {} B",
            cfg.shared_bytes(),
            self.device.name,
            self.device.shared_mem_per_sm
        );
    }

    /// Launch an independent-blocks kernel.
    pub fn launch<K: Kernel>(&self, cfg: &Launch, kernel: &K) -> LaunchStats {
        struct Adapter<'k, K>(&'k K);
        impl<K: Kernel> PhasedKernel for Adapter<'_, K> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn phases(&self) -> usize {
                1
            }
            fn run_phase(&self, _phase: usize, ctx: &mut BlockCtx) {
                self.0.run_block(ctx);
            }
        }
        self.launch_lockstep(cfg, &Adapter(kernel))
    }

    /// Launch a lockstep kernel: grid-wide barrier between phases.
    pub fn launch_lockstep<K: PhasedKernel>(&self, cfg: &Launch, kernel: &K) -> LaunchStats {
        self.validate(cfg);
        let launch_id = self.launch_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(p) = &self.faults {
            if p.should_abort() {
                // The kernel never ran: report a zero tally so accounting
                // reflects that nothing moved, and make the abort visible.
                if let Some(o) = &self.obs {
                    let mut args = vec![
                        ("kernel", kernel.name().to_string()),
                        ("device", self.device.name.to_string()),
                    ];
                    args.extend(self.index.map(|i| ("dev", i.to_string())));
                    o.tracer.instant("fault", "launch-abort", &args);
                    o.metrics.counter_add(
                        "fault_launch_aborts",
                        &[("kernel", kernel.name()), ("device", self.device.name)],
                        1,
                    );
                }
                return LaunchStats {
                    phases: 0,
                    tally: Tally::default(),
                };
            }
        }
        let use_pool = self.cpu_threads > 1
            && cfg.blocks > 1
            && cfg.blocks * cfg.threads_per_block >= self.parallel_threshold;

        // Take recycled slabs from the arena (allocation-free in steady
        // state); clear + zero-resize preserves the zero-init contract.
        let mut slabs = std::mem::take(&mut *self.arena.lock().unwrap());
        if slabs.len() < cfg.blocks {
            slabs.resize_with(cfg.blocks, BlockSlab::default);
        }
        let mut ctxs: Vec<BlockCtx> = slabs[..cfg.blocks]
            .iter_mut()
            .enumerate()
            .map(|(b, s)| {
                s.shared.clear();
                s.shared.resize(cfg.shared_doubles, 0.0);
                s.scratch.clear();
                s.scratch.resize(cfg.scratch_doubles, 0.0);
                BlockCtx {
                    block_id: b,
                    threads: cfg.threads_per_block,
                    device: &self.device,
                    launch_id,
                    phase: 0,
                    exclusive: !use_pool,
                    tally: Tally::default(),
                    shared: std::mem::take(&mut s.shared),
                    scratch: std::mem::take(&mut s.scratch),
                }
            })
            .collect();

        let phases = kernel.phases();
        // One span per launch, whatever its phase or block count: the grid
        // and the threads that ran it are args.
        let _kernel_span = self.obs.as_ref().map(|o| {
            let workers = if use_pool {
                self.pool().workers() + 1
            } else {
                1
            };
            let mut args = vec![
                ("device", self.device.name.to_string()),
                ("blocks", cfg.blocks.to_string()),
                ("threads_per_block", cfg.threads_per_block.to_string()),
                ("phases", phases.to_string()),
                ("workers", workers.to_string()),
            ];
            args.extend(self.index.map(|i| ("dev", i.to_string())));
            o.tracer.span_args("kernel", kernel.name(), &args)
        });
        // Wall-clock per launch: joined with the DRAM byte tally below, this
        // turns the roofline from an offline model into a live
        // achieved-bandwidth gauge.
        let launch_start = self.obs.as_ref().map(|_| std::time::Instant::now());
        for phase in 0..phases {
            if !use_pool {
                for ctx in ctxs.iter_mut() {
                    ctx.phase = phase as u32;
                    kernel.run_phase(phase, ctx);
                }
            } else {
                let ptr = CtxPtr(ctxs.as_mut_ptr());
                // Capture the Sync wrapper by reference (not its raw-pointer
                // field) so the closure itself is Sync.
                let ptr = &ptr;
                let claims = cfg!(debug_assertions).then(|| Claims::new(cfg.blocks));
                let task = |b: usize| {
                    debug_assert!(b < cfg.blocks, "block {b} of a {}-block grid", cfg.blocks);
                    if let Some(c) = &claims {
                        c.claim(b);
                    }
                    // SAFETY: `b < cfg.blocks == ctxs.len()`, and the
                    // pool's atomic cursor hands each block index to exactly
                    // one participant, so the per-block contexts are
                    // accessed disjointly while `ctxs` outlives the run
                    // (both debug-checked above).
                    let ctx = unsafe { &mut *ptr.0.add(b) };
                    ctx.phase = phase as u32;
                    kernel.run_phase(phase, ctx);
                };
                // The grid-wide barrier is the pool's drain.
                self.pool().run(cfg.blocks, &task);
                debug_assert!(
                    claims.is_none_or(|c| c.all_claimed()),
                    "a block was never run"
                );
            }
        }

        let mut tally = Tally::default();
        for ctx in &ctxs {
            tally.merge(&ctx.tally);
        }
        // Return the slabs to the arena for the next launch.
        for (s, ctx) in slabs.iter_mut().zip(ctxs) {
            s.shared = ctx.shared;
            s.scratch = ctx.scratch;
        }
        {
            let mut arena = self.arena.lock().unwrap();
            if arena.len() < slabs.len() {
                *arena = slabs;
            }
        }
        let stats = LaunchStats { phases, tally };
        if let Some(o) = &self.obs {
            let labels = [("kernel", kernel.name()), ("device", self.device.name)];
            let m = &o.metrics;
            m.counter_add("launches", &labels, 1);
            m.counter_add("bytes_read", &labels, stats.tally.bytes_read);
            m.counter_add("bytes_written", &labels, stats.tally.bytes_written);
            m.counter_add("dram_bytes_read", &labels, stats.tally.dram_bytes_read);
            m.counter_add("l2_read_hits", &labels, stats.tally.l2_read_hits);
            // The counters above sum over a ring's devices (they share one
            // `device` name); these two keep each shard's load apart.
            if let Some(i) = self.index {
                let dev = i.to_string();
                let dlabels = [("device", self.device.name), ("dev", dev.as_str())];
                m.counter_add("device_launches", &dlabels, 1);
                m.counter_add("device_dram_bytes", &dlabels, stats.tally.dram_bytes());
            }
            // Live roofline attribution: cumulative DRAM bytes over
            // cumulative kernel wall-clock is the achieved bandwidth; its
            // fraction of the device's peak equals achieved-MFLUPS over
            // roofline-MFLUPS at the *measured* B/F (eq. 15 divides the
            // same bandwidth by the same byte count). Counters accumulate
            // per kernel/device; gauges expose the running attribution. Time
            // is summed in nanoseconds, so a sub-microsecond launch adds its
            // time along with its bytes.
            let wall_ns = launch_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            m.counter_add("kernel_time_ns", &labels, wall_ns);
            m.counter_add("dram_bytes", &labels, stats.tally.dram_bytes());
            let total_ns = m.counter("kernel_time_ns", &labels).unwrap_or(0);
            let total_dram = m.counter("dram_bytes", &labels).unwrap_or(0);
            if total_ns > 0 {
                // bytes/ns = 10⁹ B/s = GB/s.
                let gbps = total_dram as f64 / total_ns as f64;
                m.gauge_set("achieved_gbps", &labels, gbps);
                m.gauge_set(
                    "roofline_attained_pct",
                    &labels,
                    100.0 * gbps / self.device.bandwidth_gbps,
                );
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vector add: every block handles a contiguous span; counts must be
    /// byte-exact.
    struct VecAdd<'b> {
        a: &'b GlobalBuffer<f64>,
        b: &'b GlobalBuffer<f64>,
        out: &'b GlobalBuffer<f64>,
        span: usize,
    }
    impl Kernel for VecAdd<'_> {
        fn name(&self) -> &str {
            "vec_add"
        }
        fn run_block(&self, ctx: &mut BlockCtx) {
            let base = ctx.block_id * self.span;
            for t in 0..ctx.threads {
                let i = base + t;
                if i < self.out.len() {
                    let v = ctx.read(self.a, i) + ctx.read(self.b, i);
                    ctx.write(self.out, i, v);
                }
            }
        }
    }

    #[test]
    fn vec_add_counts_and_results() {
        let n = 1000;
        let a = GlobalBuffer::from_vec((0..n).map(|i| i as f64).collect());
        let b = GlobalBuffer::from_vec(vec![10.0; n]);
        let out: GlobalBuffer<f64> = GlobalBuffer::new(n);
        let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(4);
        let cfg = Launch::simple(8, 128);
        let stats = gpu.launch(
            &cfg,
            &VecAdd {
                a: &a,
                b: &b,
                out: &out,
                span: 128,
            },
        );
        assert_eq!(stats.tally.reads, 2 * n as u64);
        assert_eq!(stats.tally.writes, n as u64);
        assert_eq!(stats.tally.bytes_written, 8 * n as u64);
        assert_eq!(stats.tally.total_bytes(), 24 * n as u64);
        for i in 0..n {
            assert_eq!(out.get(i), i as f64 + 10.0);
        }
    }

    /// Shared memory persists within a block; scratch persists across
    /// lockstep phases.
    struct PhaseProbe<'b> {
        out: &'b GlobalBuffer<f64>,
    }
    impl PhasedKernel for PhaseProbe<'_> {
        fn name(&self) -> &str {
            "phase_probe"
        }
        fn phases(&self) -> usize {
            3
        }
        fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
            // Accumulate phase numbers in scratch; emit in last phase.
            ctx.scratch()[0] += (phase + 1) as f64;
            if phase == 2 {
                let v = ctx.scratch()[0];
                ctx.write(self.out, ctx.block_id, v);
            }
        }
    }

    #[test]
    fn scratch_persists_across_phases() {
        let out: GlobalBuffer<f64> = GlobalBuffer::new(6);
        let gpu = Gpu::new(DeviceSpec::mi100()).with_cpu_threads(3);
        let cfg = Launch {
            blocks: 6,
            threads_per_block: 32,
            shared_doubles: 0,
            scratch_doubles: 1,
        };
        let stats = gpu.launch_lockstep(&cfg, &PhaseProbe { out: &out });
        assert_eq!(stats.phases, 3);
        for b in 0..6 {
            assert_eq!(out.get(b), 6.0); // 1 + 2 + 3
        }
    }

    /// The arena recycles slabs across launches but kernels still see
    /// zero-initialized scratch every time (a second launch must not
    /// observe the first's leftovers).
    #[test]
    fn arena_reuse_preserves_zero_init() {
        let out: GlobalBuffer<f64> = GlobalBuffer::new(6);
        let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(3);
        let cfg = Launch {
            blocks: 6,
            threads_per_block: 32,
            shared_doubles: 4,
            scratch_doubles: 1,
        };
        for _ in 0..3 {
            gpu.launch_lockstep(&cfg, &PhaseProbe { out: &out });
            for b in 0..6 {
                assert_eq!(out.get(b), 6.0, "stale scratch leaked across launches");
            }
        }
    }

    /// Lockstep really barriers between phases: phase 1 reads what *other*
    /// blocks wrote in phase 0.
    struct NeighborProbe<'b> {
        a: &'b GlobalBuffer<f64>,
        out: &'b GlobalBuffer<f64>,
        blocks: usize,
    }
    impl PhasedKernel for NeighborProbe<'_> {
        fn name(&self) -> &str {
            "neighbor_probe"
        }
        fn phases(&self) -> usize {
            2
        }
        fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
            let b = ctx.block_id;
            if phase == 0 {
                ctx.write(self.a, b, (b * b) as f64);
            } else {
                let next = (b + 1) % self.blocks;
                let v = ctx.read(self.a, next);
                ctx.write(self.out, b, v);
            }
        }
    }

    #[test]
    fn lockstep_orders_cross_block_data() {
        let blocks = 16;
        let a: GlobalBuffer<f64> = GlobalBuffer::new(blocks).with_racecheck();
        let out: GlobalBuffer<f64> = GlobalBuffer::new(blocks);
        let gpu = Gpu::new(DeviceSpec::v100())
            .with_cpu_threads(8)
            .with_parallel_threshold(0);
        let cfg = Launch::simple(blocks, 32);
        gpu.launch_lockstep(
            &cfg,
            &NeighborProbe {
                a: &a,
                out: &out,
                blocks,
            },
        );
        for b in 0..blocks {
            let next = (b + 1) % blocks;
            assert_eq!(out.get(b), (next * next) as f64);
        }
    }

    /// Regression for the seed's static-chunking pathology: on a ragged
    /// grid (`blocks % workers != 0`) every block must still execute
    /// exactly once and produce its result.
    #[test]
    fn ragged_grid_all_blocks_execute() {
        for (blocks, threads) in [(7usize, 3usize), (5, 8), (13, 4), (9, 2)] {
            let n = blocks * 16;
            let a = GlobalBuffer::from_vec((0..n).map(|i| i as f64).collect());
            let b = GlobalBuffer::from_vec(vec![1.0; n]);
            let out: GlobalBuffer<f64> = GlobalBuffer::new(n);
            let gpu = Gpu::new(DeviceSpec::v100())
                .with_cpu_threads(threads)
                .with_parallel_threshold(0);
            let stats = gpu.launch(
                &Launch::simple(blocks, 16),
                &VecAdd {
                    a: &a,
                    b: &b,
                    out: &out,
                    span: 16,
                },
            );
            assert_eq!(
                stats.tally.writes, n as u64,
                "{blocks} blocks / {threads} workers"
            );
            for i in 0..n {
                assert_eq!(out.get(i), i as f64 + 1.0);
            }
        }
    }

    /// Results and merged tallies are bitwise-identical across worker
    /// counts: the pool only reorders which thread runs a block, never the
    /// per-block accounting.
    #[test]
    fn tallies_identical_across_worker_counts() {
        let n = 504; // ragged against every worker count below
        let run = |threads: usize| {
            let a = GlobalBuffer::from_vec((0..n).map(|i| (i as f64).sin()).collect());
            let b = GlobalBuffer::from_vec(vec![2.5; n]);
            let out: GlobalBuffer<f64> = GlobalBuffer::new(n).with_touch_tracking();
            let gpu = Gpu::new(DeviceSpec::v100())
                .with_cpu_threads(threads)
                .with_parallel_threshold(0);
            let stats = gpu.launch(
                &Launch::simple(9, 56),
                &VecAdd {
                    a: &a,
                    b: &b,
                    out: &out,
                    span: 56,
                },
            );
            (stats.tally, out.snapshot())
        };
        let (t1, f1) = run(1);
        for threads in [3, 8] {
            let (t, f) = run(threads);
            assert_eq!(t, t1, "tally diverged at {threads} threads");
            assert_eq!(f, f1, "fields diverged at {threads} threads");
        }
    }

    #[test]
    fn obs_records_kernel_spans_and_launch_metrics() {
        let obs = obs::Obs::shared();
        let out: GlobalBuffer<f64> = GlobalBuffer::new(6);
        let gpu = Gpu::new(DeviceSpec::v100())
            .with_cpu_threads(2)
            .with_parallel_threshold(0)
            .with_obs(obs.clone());
        let cfg = Launch {
            blocks: 6,
            threads_per_block: 32,
            shared_doubles: 0,
            scratch_doubles: 1,
        };
        gpu.launch_lockstep(&cfg, &PhaseProbe { out: &out });
        // One launch, one record: a single kernel B/E pair for a pooled
        // three-phase launch, its grid and schedule carried as args.
        let ev = obs.tracer.events();
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].ph, ev[1].ph), ('B', 'E'));
        assert_eq!(
            (ev[0].cat.as_str(), ev[0].name.as_str()),
            ("kernel", "phase_probe")
        );
        assert_eq!(ev[1].name, "phase_probe");
        let arg = |k: &str| {
            ev[0]
                .args
                .iter()
                .find(|(key, _)| key == k)
                .map(|a| a.1.as_str())
        };
        assert_eq!(arg("phases"), Some("3"));
        assert_eq!(arg("blocks"), Some("6"));
        assert_eq!(arg("workers"), Some("2"));
        let labels = [("kernel", "phase_probe"), ("device", "NVIDIA V100")];
        assert_eq!(obs.metrics.counter("launches", &labels), Some(1));
        assert_eq!(
            obs.metrics.counter("bytes_written", &labels),
            Some(6 * 8),
            "6 blocks each write one f64"
        );
        // A fixed set of series per kernel and device: nothing per phase,
        // nothing per pool.
        let names: Vec<String> = obs
            .metrics
            .snapshot()
            .into_iter()
            .map(|(key, _)| key.name)
            .collect();
        assert_eq!(
            names,
            [
                "achieved_gbps",
                "bytes_read",
                "bytes_written",
                "dram_bytes",
                "dram_bytes_read",
                "kernel_time_ns",
                "l2_read_hits",
                "launches",
                "roofline_attained_pct",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_block_rejected() {
        let gpu = Gpu::new(DeviceSpec::v100());
        struct Nop;
        impl Kernel for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn run_block(&self, _ctx: &mut BlockCtx) {}
        }
        gpu.launch(&Launch::simple(1, 2048), &Nop);
    }

    #[test]
    #[should_panic(expected = "shared memory request")]
    fn oversized_shared_rejected() {
        let gpu = Gpu::new(DeviceSpec::mi100());
        struct Nop;
        impl Kernel for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn run_block(&self, _ctx: &mut BlockCtx) {}
        }
        let cfg = Launch {
            blocks: 1,
            threads_per_block: 64,
            shared_doubles: 9000, // 72 KB > MI100's 64 KB LDS
            scratch_doubles: 0,
        };
        gpu.launch(&cfg, &Nop);
    }

    /// A kernel that violates the circular-shift discipline — writing a slot
    /// in one phase that another block reads in a later phase of the same
    /// launch — is caught by the strict race checker end to end.
    struct WrongShift<'b> {
        buf: &'b GlobalBuffer<f64>,
    }
    impl PhasedKernel for WrongShift<'_> {
        fn name(&self) -> &str {
            "wrong_shift"
        }
        fn phases(&self) -> usize {
            2
        }
        fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
            let b = ctx.block_id;
            if phase == 0 && b == 0 {
                // Block 0 eagerly overwrites a slot…
                ctx.write(self.buf, 5, 1.0);
            }
            if phase == 1 && b == 1 {
                // …that block 1 still needed to read as old data.
                let _ = ctx.read(self.buf, 5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale read")]
    fn strict_checker_catches_wrong_shift_end_to_end() {
        let buf: GlobalBuffer<f64> = GlobalBuffer::new(8).with_racecheck_strict();
        let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(1);
        gpu.launch_lockstep(&Launch::simple(2, 32), &WrongShift { buf: &buf });
    }

    /// The same violation is caught under pooled (multi-worker) execution:
    /// the write lands in phase 0 and the read in phase 1, so detection is
    /// deterministic regardless of which worker runs which block, and the
    /// panic propagates from the pool thread to the launcher.
    #[test]
    #[should_panic(expected = "stale read")]
    fn strict_checker_fires_under_pooled_execution() {
        let buf: GlobalBuffer<f64> = GlobalBuffer::new(8).with_racecheck_strict();
        let gpu = Gpu::new(DeviceSpec::v100())
            .with_cpu_threads(4)
            .with_parallel_threshold(0);
        gpu.launch_lockstep(&Launch::simple(2, 32), &WrongShift { buf: &buf });
    }

    /// An injected launch abort skips exactly the scripted launch, leaves a
    /// zero tally (the kernel never ran), and is visible in obs.
    #[test]
    fn injected_abort_skips_one_launch() {
        let obs = obs::Obs::shared();
        let mut plan = crate::fault::FaultPlan::new();
        plan.abort_launch(1); // let launch 1 through, abort launch 2
        let plan = Arc::new(plan);
        let n = 64;
        let a = GlobalBuffer::from_vec((0..n).map(|i| i as f64).collect());
        let b = GlobalBuffer::from_vec(vec![1.0; n]);
        let out: GlobalBuffer<f64> = GlobalBuffer::new(n);
        let mut gpu = Gpu::new(DeviceSpec::v100())
            .with_cpu_threads(2)
            .with_obs(obs.clone());
        gpu.set_fault_plan(plan.clone());
        let k = VecAdd {
            a: &a,
            b: &b,
            out: &out,
            span: 16,
        };
        let s1 = gpu.launch(&Launch::simple(4, 16), &k);
        assert_eq!(s1.tally.writes, n as u64, "first launch must run");
        let s2 = gpu.launch(&Launch::simple(4, 16), &k);
        assert_eq!(s2.tally, Tally::default(), "aborted launch must tally zero");
        assert_eq!(s2.phases, 0);
        let s3 = gpu.launch(&Launch::simple(4, 16), &k);
        assert_eq!(s3.tally.writes, n as u64, "abort is one-shot");
        assert_eq!(plan.aborts_fired(), 1);
        let labels = [("kernel", "vec_add"), ("device", "NVIDIA V100")];
        assert_eq!(obs.metrics.counter("fault_launch_aborts", &labels), Some(1));
        assert!(obs
            .tracer
            .events()
            .iter()
            .any(|e| e.cat == "fault" && e.name == "launch-abort"));
    }

    /// The debug-build twin of the pooled launch's SAFETY comment: a block
    /// claimed twice in one phase panics, and a phase with a block never
    /// claimed is told apart from one with all of them. Pooled launches in
    /// debug builds (the tests above) run every block through the check.
    #[test]
    #[should_panic(expected = "block 3 claimed twice in one phase")]
    fn a_block_claimed_twice_panics() {
        let claims = Claims::new(5);
        (0..5).for_each(|b| claims.claim(b));
        assert!(claims.all_claimed());
        assert!(!Claims::new(2).all_claimed());
        claims.claim(3);
    }

    /// Launch ids increment, so the race checker distinguishes launches.
    #[test]
    fn launch_ids_advance() {
        let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(1);
        let buf: GlobalBuffer<f64> = GlobalBuffer::new(4).with_racecheck();
        struct W<'b>(&'b GlobalBuffer<f64>);
        impl Kernel for W<'_> {
            fn name(&self) -> &str {
                "w"
            }
            fn run_block(&self, ctx: &mut BlockCtx) {
                ctx.write(self.0, 0, 1.0);
            }
        }
        // Two launches writing the same cell from block 0 — fine across
        // launches; would panic if launch ids did not advance… still block 0
        // in both, so use different grid positions via two kernels? Simpler:
        // write from block 1 of a 2-block grid in the second launch.
        gpu.launch(&Launch::simple(1, 32), &W(&buf));
        struct W2<'b>(&'b GlobalBuffer<f64>);
        impl Kernel for W2<'_> {
            fn name(&self) -> &str {
                "w2"
            }
            fn run_block(&self, ctx: &mut BlockCtx) {
                if ctx.block_id == 1 {
                    ctx.write(self.0, 0, 2.0);
                }
            }
        }
        gpu.launch(&Launch::simple(2, 32), &W2(&buf));
        assert_eq!(buf.get(0), 2.0);
    }
}

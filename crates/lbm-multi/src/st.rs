//! Multi-device ST: slab-sharded standard representation with
//! distribution-space halo exchange (`Q·8` bytes per halo node).
//!
//! Each shard runs the same pull-scheme update as `StSim` over its owned
//! span, so the sharded trajectory is *bitwise* identical to the
//! single-device one. The per-step schedule is the two-phase overlap of
//! [`crate::stats`]: edge strips first, their freshly computed columns are
//! exchanged while the interior launch proceeds, then the inlet/outlet
//! kernel rebuilds the global `x` edges.

use crate::decomp::SlabDecomp;
use crate::recovery::{transfer_with_retry, HaloRetryPolicy};
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::st::{launch_st_bc, launch_st_pull_span};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAX_Q: usize = 48;

struct StShard {
    geom: Geometry,
    f: [GlobalBuffer<f64>; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    owned_lo: usize,
    owned_hi: usize,
    ghost_l: bool,
    ghost_r: bool,
}

impl StShard {
    /// Edge-strip spans (the owned columns adjacent to cuts), merged when
    /// a 1-wide shard's single column is both edges.
    fn strip_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if self.ghost_l {
            out.push((self.owned_lo, self.owned_lo + 1));
        }
        if self.ghost_r {
            let span = (self.owned_hi - 1, self.owned_hi);
            if out.first() != Some(&span) {
                out.push(span);
            }
        }
        out
    }

    /// The owned span not covered by edge strips.
    fn interior_span(&self) -> Option<(usize, usize)> {
        let lo = self.owned_lo + self.ghost_l as usize;
        let hi = self.owned_hi - self.ghost_r as usize;
        (lo < hi).then_some((lo, hi))
    }
}

/// Slab-sharded ST simulation across N simulated devices.
pub struct MultiStSim<L: Lattice, C: Collision<L>> {
    mg: MultiGpu,
    decomp: SlabDecomp,
    shards: Vec<StShard>,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    t: u64,
    stats: OverlapStats,
    monitor: Option<obs::PhysicsMonitor>,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
    _l: PhantomData<L>,
}

impl<L: Lattice, C: Collision<L>> MultiStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let mg = MultiGpu::ring(device, n);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                StShard {
                    f: [
                        GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                        GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    owned_lo: s.owned_lo(),
                    owned_hi: s.owned_hi(),
                    ghost_l: s.ghost_l,
                    ghost_r: s.ghost_r,
                    geom: g,
                }
            })
            .collect();
        let mut sim = MultiStSim {
            mg,
            decomp,
            shards,
            consts: KernelConsts::new::<L>(collision.tau()),
            collision,
            block_size: 256,
            t: 0,
            stats: OverlapStats::default(),
            monitor: None,
            retry: HaloRetryPolicy::default(),
            halo_retries: AtomicU64::new(0),
            _l: PhantomData,
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

    /// Force the scalar (per-node) reference kernels instead of the
    /// chunk-vectorized ones — the equivalence-test oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.consts.scalar = true;
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
    pub fn with_profiler(mut self, p: std::sync::Arc<gpu_sim::profiler::Profiler>) -> Self {
        self.mg = self.mg.with_profiler(p);
        self
    }

    /// Set the thread-block size of the span kernels.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.block_size = bs;
        self
    }

    /// Attach one observability hub to every device and the link layer:
    /// the driver adds `step` and `halo-exchange` spans, the devices nest
    /// kernel spans, and transfers publish link metrics.
    pub fn with_obs(mut self, obs: std::sync::Arc<obs::Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place [`MultiStSim::with_obs`] (the `Simulation` trait surface).
    pub fn set_obs(&mut self, obs: std::sync::Arc<obs::Obs>) {
        self.mg.set_obs(obs);
    }

    /// Tag every device's kernel spans (and this driver's step/halo spans)
    /// with a fleet trace context, or clear it with `None`.
    pub fn set_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        self.mg.set_trace_ctx(ctx);
    }

    /// Device-memory footprint of every shard's resident lattices.
    pub fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.f[0].size_bytes() + s.f[1].size_bytes())
            .sum()
    }

    /// Attach a physics monitor over the *global* fields every
    /// `cfg.cadence` steps.
    pub fn with_monitor(mut self, cfg: obs::MonitorConfig) -> Self {
        self.monitor = Some(obs::PhysicsMonitor::new(cfg));
        self
    }

    /// The attached physics monitor, if any.
    pub fn monitor(&self) -> Option<&obs::PhysicsMonitor> {
        self.monitor.as_ref()
    }

    /// Mutable access to the physics monitor, if enabled.
    pub fn monitor_mut(&mut self) -> Option<&mut obs::PhysicsMonitor> {
        self.monitor.as_mut()
    }

    /// Override the halo-transfer retry policy.
    pub fn with_halo_retry(mut self, policy: HaloRetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach a deterministic fault plan to every device, every shard's
    /// distribution buffers, and the interconnect. With a plan attached the
    /// shards are stepped one after another in index order at any thread
    /// count, so the same shard takes the fault every time.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.mg.set_fault_plan(plan.clone());
        for sh in &mut self.shards {
            sh.f[0].set_fault_plan(plan.clone());
            sh.f[1].set_fault_plan(plan.clone());
        }
        self
    }

    /// Halo-transfer retries performed so far.
    pub fn halo_retries(&self) -> u64 {
        self.halo_retries.load(Ordering::Relaxed)
    }

    /// Cadence-gated monitor sampling over the gathered global fields.
    fn sample_monitor(&mut self, pattern: &str) {
        if !self.monitor.as_ref().is_some_and(|m| m.due(self.t)) {
            return;
        }
        let (rho, u) = self.macro_fields();
        let s = self.monitor.as_mut().unwrap().observe(self.t, &rho, &u);
        if let Some(o) = self.mg.obs() {
            o.metrics
                .gauge_set("monitor_mass", &[("pattern", pattern)], s.mass);
            o.metrics
                .gauge_set("monitor_max_u", &[("pattern", pattern)], s.max_u);
        }
    }

    /// Initialize every node — *including ghosts* — from a macroscopic
    /// field evaluated at **global** coordinates, so ghost columns start
    /// consistent with their owners and no initial exchange is needed.
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut feq = [0.0f64; MAX_Q];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            let ln = sh.geom.len();
            for idx in 0..ln {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = match sh.geom.node_at(idx) {
                    NodeType::Inlet(u_bc) => (field(gx, y, z).0, u_bc),
                    NodeType::Outlet(rho_bc) => (rho_bc, field(gx, y, z).1),
                    _ => field(gx, y, z),
                };
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                self.collision.reconstruct(&m, &mut feq[..L::Q]);
                for (i, &v) in feq[..L::Q].iter().enumerate() {
                    sh.f[0].set(i * ln + idx, v);
                }
            }
        }
        self.t = 0;
        self.stats = OverlapStats::default();
    }

    /// Advance one timestep with the two-phase overlap schedule. Panics if
    /// a halo transfer fails beyond the retry budget; use
    /// [`MultiStSim::try_step`] for typed link errors.
    pub fn step(&mut self) {
        self.try_step()
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Advance one timestep, surfacing halo-link failures. On `Err` no
    /// state has advanced (`t` and the buffer parity are unchanged) — the
    /// completed strip launches are idempotent and a later retry of the
    /// whole step recomputes them bitwise-identically.
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        let obs = self.mg.obs().cloned();
        let _step_span = obs.as_ref().map(|o| {
            let mut args = vec![("t", self.t.to_string())];
            if let Some(ctx) = self.mg.trace_ctx() {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("driver", "step", &args)
        });
        // One shard's pull launches over `spans`, on its own device: the
        // DRAM bytes they moved.
        let pull = |r: usize, spans: &[(usize, usize)]| -> u64 {
            let sh = &self.shards[r];
            spans
                .iter()
                .map(|&(lo, hi)| {
                    launch_st_pull_span::<L, C>(
                        self.mg.device(r),
                        &sh.f[sh.cur],
                        &sh.f[sh.cur ^ 1],
                        &sh.geom,
                        &self.collision,
                        &self.consts,
                        self.block_size,
                        lo,
                        hi,
                    )
                    .tally
                    .dram_bytes()
                })
                .sum()
        };

        // Phase 1: boundary strips — the owned edge columns whose t+1
        // values the neighbors' ghosts need.
        let boundary_bytes = self
            .mg
            .for_each_device(|r| pull(r, &self.shards[r].strip_spans()));

        // Phase 2: halo exchange of the strip results (overlapped with the
        // interior launch in the timing model).
        let _halo_span = obs.as_ref().map(|o| {
            let mut args = Vec::new();
            if let Some(ctx) = self.mg.trace_ctx() {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("halo", "halo-exchange", &args)
        });
        let transfers = self.exchange()?;
        drop(_halo_span);

        // Phase 3: interior.
        let interior_bytes = self
            .mg
            .for_each_device(|r| pull(r, self.shards[r].interior_span().as_slice()));

        // Phase 4: inlet/outlet rebuild on the shards owning global x edges.
        let bc_bytes = self.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            if sh.boundary.is_empty() {
                return 0;
            }
            launch_st_bc::<L, C>(
                self.mg.device(r),
                &sh.f[sh.cur ^ 1],
                &sh.geom,
                &self.collision,
                &sh.boundary,
                self.block_size,
            )
            .tally
            .dram_bytes()
        });

        let spec = self.mg.spec().clone();
        let max_t = |b: &[u64]| device_time_s(&spec, b.iter().copied().max().unwrap_or(0));
        self.stats.record_step(
            max_t(&boundary_bytes),
            max_t(&interior_bytes),
            exchange_time_s(&self.mg, &transfers),
            max_t(&bc_bytes),
        );

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        self.t += 1;
        self.sample_monitor("multi-st");
        Ok(())
    }

    /// Copy every cut's freshly computed edge columns (in `dst`, time
    /// `t+1`) into the neighbors' ghost columns. The link tally is
    /// recorded (with bounded retries on transient link faults) *before*
    /// the copy: a failed transfer moves no data and records no bytes, so
    /// a successful retry tallies exactly once.
    fn exchange(&self) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::Q * 8) as u64;
            transfer_with_retry(
                &self.mg,
                tr.from,
                tr.to,
                bytes,
                &self.retry,
                &self.halo_retries,
            )?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sn, dn) = (src.geom.len(), dst.geom.len());
            let (sf, df) = (&src.f[src.cur ^ 1], &dst.f[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    for i in 0..L::Q {
                        df.set(i * dn + di, sf.get(i * sn + si));
                    }
                }
            }
            out.push((tr.from, tr.to, bytes));
        }
        Ok(out)
    }

    /// Advance `steps` timesteps, then flush a final monitor sample if the
    /// last step fell between cadence points.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
        self.finish_monitor();
    }

    /// Force a final monitor sample at the current step (no-op when the
    /// monitor is absent or already sampled this step).
    pub fn finish_monitor(&mut self) {
        if self.monitor.is_none() {
            return;
        }
        let (rho, u) = self.macro_fields();
        let s = self.monitor.as_mut().unwrap().finish(self.t, &rho, &u);
        if let (Some(s), Some(o)) = (s, self.mg.obs()) {
            let labels = [("pattern", "multi-st")];
            o.metrics.gauge_set("monitor_mass", &labels, s.mass);
            o.metrics.gauge_set("monitor_max_u", &labels, s.max_u);
            o.tracer
                .instant("monitor", "flush", &[("step", s.step.to_string())]);
        }
    }

    /// Completed timesteps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The global geometry.
    pub fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.shards.len()
    }

    /// The interconnect (link byte counters, report).
    pub fn interconnect(&self) -> &MultiGpu {
        &self.mg
    }

    /// Modeled overlap-schedule timing.
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic per-step halo traffic: fluid-like halo nodes × `Q·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::Q * 8) as u64
    }

    /// Distribution at a global node (current state, owner shard).
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        let ln = sh.geom.len();
        let idx = sh.geom.idx(lx, y, z);
        (0..L::Q).map(|i| sh.f[sh.cur].get(i * ln + idx)).collect()
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }

    /// Global density and velocity fields in one pass over the owning
    /// shards, without the per-node `Vec` of [`MultiStSim::f_at`] (solid
    /// nodes report zero). This is what the physics monitor samples.
    pub fn macro_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        let g = self.decomp.global();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        for (idx, rho_o) in rho_out.iter_mut().enumerate() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let r = self.decomp.owner_of(x);
            let sh = &self.shards[r];
            let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
            let ln = sh.geom.len();
            let lidx = sh.geom.idx(lx, y, z);
            let buf = &sh.f[sh.cur];
            let mut rho = 0.0;
            let mut j = [0.0f64; 3];
            for i in 0..L::Q {
                let fi = buf.get(i * ln + lidx);
                let c = L::cf(i);
                rho += fi;
                j[0] += c[0] * fi;
                j[1] += c[1] * fi;
                j[2] += c[2] * fi;
            }
            let inv_rho = 1.0 / rho;
            *rho_o = rho;
            u_out[idx] = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
        }
        (rho_out, u_out)
    }

    /// Global velocity field (solid nodes report zero), gathered from the
    /// owning shards.
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
    /// stats, and every shard's current distribution buffer (ghost
    /// columns included, so no post-restore exchange is needed).
    pub fn checkpoint(&self) -> Vec<u8> {
        let g = self.decomp.global();
        let mut w = CheckpointWriter::new("multi-st");
        w.put_u64(g.nx as u64)
            .put_u64(g.ny as u64)
            .put_u64(g.nz as u64)
            .put_u64(L::Q as u64)
            .put_u64(self.shards.len() as u64)
            .put_u64(self.t)
            .put_u64(self.stats.steps)
            .put_f64(self.stats.boundary_s)
            .put_f64(self.stats.interior_s)
            .put_f64(self.stats.exchange_s)
            .put_f64(self.stats.bc_s)
            .put_f64(self.stats.hidden_s)
            .put_f64(self.stats.total_s);
        for sh in &self.shards {
            w.put_f64s(&sh.f[sh.cur].snapshot());
        }
        w.finish()
    }

    /// Restore a snapshot taken by [`MultiStSim::checkpoint`] on an
    /// identically configured simulation. Bitwise: the restored state
    /// continues exactly as the original would have (the snapshot lands in
    /// buffer 0 regardless of the saved parity).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let g = self.decomp.global();
        let mut r = CheckpointReader::open(bytes, "multi-st")?;
        r.expect_u64(g.nx as u64, "nx")?;
        r.expect_u64(g.ny as u64, "ny")?;
        r.expect_u64(g.nz as u64, "nz")?;
        r.expect_u64(L::Q as u64, "Q")?;
        r.expect_u64(self.shards.len() as u64, "shard count")?;
        self.t = r.take_u64()?;
        self.stats = OverlapStats {
            steps: r.take_u64()?,
            boundary_s: r.take_f64()?,
            interior_s: r.take_f64()?,
            exchange_s: r.take_f64()?,
            bc_s: r.take_f64()?,
            hidden_s: r.take_f64()?,
            total_s: r.take_f64()?,
        };
        for sh in &mut self.shards {
            let n = L::Q * sh.geom.len();
            let data = r.take_f64s(n)?;
            for (i, v) in data.iter().enumerate() {
                sh.f[0].set(i, *v);
            }
            sh.cur = 0;
        }
        if let Some(m) = self.monitor.as_mut() {
            m.rollback_to(self.t);
        }
        Ok(())
    }
}

/// Inlet/outlet domains constrain the decomposition: the FD stencil of an
/// edge shard reads two columns inward (so edge shards must own ≥ 3), and
/// no cut-adjacent column may itself be a boundary column (so every shard
/// must own ≥ 2).
pub(crate) fn check_boundary_widths(decomp: &SlabDecomp) {
    if boundary_nodes(decomp.global()).is_empty() || decomp.num_shards() == 1 {
        return;
    }
    let n = decomp.num_shards();
    for (r, s) in decomp.slabs().iter().enumerate() {
        if r == 0 || r == n - 1 {
            assert!(
                s.width >= 3,
                "edge shard {r} owns {} columns; FD boundaries need ≥ 3",
                s.width
            );
        } else {
            assert!(
                s.width >= 2,
                "shard {r} owns {} columns; boundary domains need ≥ 2",
                s.width
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_gpu::StSim;
    use lbm_lattice::{D2Q9, D3Q19};

    fn shear_init(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y) as f64 * 0.3).sin(),
            [
                0.03 * (y as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// Sharded ST is bitwise identical to single-device ST on a periodic-x
    /// channel — same pull arithmetic, ghosts carry exact doubles.
    #[test]
    fn multi_matches_single_bitwise_2d() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut single: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4).with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(10);
        multi.run(10);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
    }

    /// Same with an inlet/outlet channel: the BC kernel runs on the edge
    /// shards only and still matches bitwise.
    #[test]
    fn multi_matches_single_bitwise_channel() {
        let geom = Geometry::channel_2d(20, 10, 0.04);
        let mut single: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(2);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 3).with_cpu_threads(2);
        single.run(12);
        multi.run(12);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k]);
            }
        }
        let (rs, rm) = (single.density_field(), multi.density_field());
        for (a, b) in rs.iter().zip(&rm) {
            assert_eq!(a, b);
        }
    }

    /// 3D duct across 2 devices.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = Geometry::channel_3d(12, 7, 7, 0.03);
        let mut single: StSim<D3Q19, _> =
            StSim::new(DeviceSpec::mi100(), geom.clone(), Projective::new(0.7)).with_cpu_threads(2);
        let mut multi: MultiStSim<D3Q19, _> =
            MultiStSim::new(DeviceSpec::mi100(), geom, Projective::new(0.7), 2).with_cpu_threads(2);
        single.run(6);
        multi.run(6);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k]);
            }
        }
    }

    /// Halo traffic: each direction of each cut carries exactly
    /// (fluid column nodes)·Q·8 bytes per step.
    #[test]
    fn halo_bytes_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2).with_cpu_threads(2);
        multi.run(5);
        // n = 2 periodic: 4 transfers/step, 8 fluid nodes per column.
        let per_step = 4 * 8 * 9 * 8;
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 5 * per_step as u64);
    }

    /// Overlap stats: interior covers the exchange on a wide domain.
    #[test]
    fn overlap_stats_accumulate() {
        let geom = Geometry::walls_y_periodic_x(64, 16);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2).with_cpu_threads(2);
        multi.run(3);
        let s = multi.stats();
        assert_eq!(s.steps, 3);
        assert!(s.boundary_s > 0.0 && s.interior_s > 0.0 && s.exchange_s > 0.0);
        assert!(s.total_s >= s.boundary_s + s.interior_s.max(s.exchange_s));
        assert!(s.overlap_efficiency() > 0.0 && s.overlap_efficiency() <= 1.0);
    }

    /// Obs integration: step spans nest per-device kernel spans and the
    /// halo-exchange span; link metrics accumulate; monitor sees a
    /// conserved global mass.
    #[test]
    fn obs_and_monitor_wire_through() {
        let obs = obs::Obs::shared();
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2)
                .with_cpu_threads(2)
                .with_obs(obs.clone())
                .with_monitor(obs::MonitorConfig {
                    cadence: 2,
                    ..Default::default()
                });
        multi.init_with(shear_init);
        multi.run(4);
        let ev = obs.tracer.events();
        assert_eq!(
            ev.iter()
                .filter(|e| e.ph == 'B' && e.name == "step")
                .count(),
            4
        );
        assert_eq!(
            ev.iter()
                .filter(|e| e.ph == 'B' && e.name == "halo-exchange")
                .count(),
            4
        );
        assert!(ev.iter().any(|e| e.ph == 'B' && e.name == "st-bulk-span"));
        // Link metrics: n = 2 periodic ring has transfers both ways.
        assert!(obs
            .metrics
            .counter("link_transfer_bytes", &[("link", "NVLink2[0->1]")])
            .is_some_and(|b| b > 0));
        let m = multi.monitor().unwrap();
        assert_eq!(m.samples().len(), 2);
        assert!(m.is_ok(), "{:?}", m.violations());
        assert!(m.mass_drift() <= 1e-10);
    }

    #[test]
    #[should_panic(expected = "FD boundaries need ≥ 3")]
    fn narrow_edge_shards_rejected_for_channels() {
        let geom = Geometry::channel_2d(8, 6, 0.04);
        let _ = MultiStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 4);
    }

    /// Four device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run = |threads: usize, strict: bool| {
            let geom = Geometry::walls_y_periodic_x(16, 8);
            let mut multi: MultiStSim<D2Q9, _> =
                MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if strict {
                for sh in &mut multi.shards {
                    let f =
                        std::mem::replace(&mut sh.f, [GlobalBuffer::new(0), GlobalBuffer::new(0)]);
                    sh.f = f.map(GlobalBuffer::with_racecheck_strict);
                }
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run(8, true), run(1, false));
    }
}

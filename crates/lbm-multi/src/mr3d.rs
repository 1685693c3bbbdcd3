//! Multi-device 3D MR: slab sharding along `x` with moment-space halo
//! exchange (`M·8` = 80 bytes per D3Q19 halo node vs ST's `Q·8` = 152).
//!
//! Same design as [`crate::mr2d`]: per-shard double-buffered shift-0
//! moment lattices (the in-place circular shift is only safe when the
//! whole step is one lockstep launch), column footprints partitioned into
//! edge strips and interior, two-phase overlap schedule.

use crate::decomp::SlabDecomp;
use crate::mr2d::MrShard;
use crate::recovery::{transfer_with_retry, HaloRetryPolicy};
use crate::st::check_boundary_widths;
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::{CheckpointError, CheckpointReader, CheckpointWriter};
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::moment_lattice::MomentLattice;
use lbm_gpu::mr2d::launch_mr_bc;
use lbm_gpu::mr3d::{launch_mr3d_columns, pick_column_footprint};
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Mr3dShard {
    geom: Geometry,
    /// Interior fast-scatter eligibility over the local geometry (see
    /// `lbm_gpu::boundary::bulk_mask`).
    bulk: Vec<bool>,
    mom: [MomentLattice; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    /// Footprint origins of the edge strips (x-range touches a cut).
    strip_cols: Vec<(usize, usize)>,
    /// Remaining owned footprint origins.
    interior_cols: Vec<(usize, usize)>,
    wx: usize,
    wy: usize,
}

/// Slab-sharded 3D MR simulation (MR-P or MR-R) across N devices.
pub struct MultiMrSim3D<L: Lattice> {
    mg: MultiGpu,
    decomp: SlabDecomp,
    shards: Vec<Mr3dShard>,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    t: u64,
    stats: OverlapStats,
    monitor: Option<obs::PhysicsMonitor>,
    retry: HaloRetryPolicy,
    halo_retries: AtomicU64,
    _l: PhantomData<L>,
}

impl<L: Lattice> MultiMrSim3D<L> {
    /// Shard a duct-type geometry (walls on the y and z extreme faces)
    /// across `n` devices. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        assert!(geom.nz > 1, "MultiMrSim3D requires a 3D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(
            !geom.periodic[1] && !geom.periodic[2],
            "MR requires wall-terminated y and z faces"
        );
        for y in 0..geom.ny {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, y, 0).is_solid() && geom.node(x, y, geom.nz - 1).is_solid(),
                    "MR requires walls at z = 0 and z = nz−1"
                );
            }
        }
        for z in 0..geom.nz {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, 0, z).is_solid() && geom.node(x, geom.ny - 1, z).is_solid(),
                    "MR requires walls at y = 0 and y = ny−1"
                );
            }
        }
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let mg = MultiGpu::ring(device.clone(), n);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let (wx, wy) = pick_column_footprint::<L>(&device, s.width, g.ny, 0, 0);
                let x_origins: Vec<usize> =
                    (0..s.width / wx).map(|k| s.owned_lo() + k * wx).collect();
                let (strip_x, interior_x) = if n == 1 {
                    (Vec::new(), x_origins)
                } else {
                    MrShard::partition(x_origins, s.ghost_l, s.ghost_r)
                };
                let with_y = |xs: &[usize]| -> Vec<(usize, usize)> {
                    xs.iter()
                        .flat_map(|&x0| (0..g.ny / wy).map(move |j| (x0, j * wy)))
                        .collect()
                };
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                let bulk = lbm_gpu::boundary::bulk_mask::<L>(&g);
                Mr3dShard {
                    bulk,
                    mom: [
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    strip_cols: with_y(&strip_x),
                    interior_cols: with_y(&interior_x),
                    wx,
                    wy,
                    geom: g,
                }
            })
            .collect();
        let mut sim = MultiMrSim3D {
            mg,
            decomp,
            shards,
            scheme,
            tau,
            consts: KernelConsts::new::<L>(tau),
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

    /// Attach an observability hub (tracer + metrics) to every device and
    /// the interconnect.
    pub fn with_obs(mut self, obs: std::sync::Arc<obs::Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place [`MultiMrSim3D::with_obs`] (the `Simulation` trait surface).
    pub fn set_obs(&mut self, obs: std::sync::Arc<obs::Obs>) {
        self.mg.set_obs(obs);
    }

    /// Tag every device's kernel spans (and this driver's step/halo spans)
    /// with a fleet trace context, or clear it with `None`.
    pub fn set_trace_ctx(&mut self, ctx: Option<obs::TraceCtx>) {
        self.mg.set_trace_ctx(ctx);
    }

    /// Device-memory footprint of every shard's resident moment lattices.
    pub fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mom[0].size_bytes() + s.mom[1].size_bytes())
            .sum()
    }

    /// Enable per-step physics monitoring (mass, momentum, max |u|, NaN guard).
    pub fn with_monitor(mut self, cfg: obs::MonitorConfig) -> Self {
        self.monitor = Some(obs::PhysicsMonitor::new(cfg));
        self
    }

    /// The physics monitor, if enabled.
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
    /// moment lattices, and the interconnect. With a plan attached the
    /// shards are stepped one after another in index order at any thread
    /// count, so the same shard takes the fault every time.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.mg.set_fault_plan(plan.clone());
        for sh in &mut self.shards {
            sh.mom[0].set_fault_plan(plan.clone());
            sh.mom[1].set_fault_plan(plan.clone());
        }
        self
    }

    /// Halo-transfer retries performed so far.
    pub fn halo_retries(&self) -> u64 {
        self.halo_retries.load(Ordering::Relaxed)
    }

    /// Initialize every node — including ghosts — from a macroscopic field
    /// at **global** coordinates (no initial exchange needed).
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            for idx in 0..sh.geom.len() {
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
                sh.mom[0].set_moments::<L>(0, idx, &m);
            }
        }
        self.t = 0;
        self.stats = OverlapStats::default();
    }

    /// Advance one timestep with the two-phase overlap schedule. Panics if
    /// a halo transfer fails beyond the retry budget; use
    /// [`MultiMrSim3D::try_step`] for typed link errors.
    pub fn step(&mut self) {
        self.try_step()
            .unwrap_or_else(|e| panic!("halo exchange failed: {e}"));
    }

    /// Advance one timestep, surfacing halo-link failures. On `Err` no
    /// state has advanced (`t` and the buffer parity are unchanged) — the
    /// completed edge-strip launches are idempotent and a later retry of
    /// the whole step recomputes them bitwise-identically.
    pub fn try_step(&mut self) -> Result<(), LinkError> {
        let obs = self.mg.obs().cloned();
        let _step_span = obs.as_ref().map(|o| {
            let mut args = vec![("t", self.t.to_string())];
            if let Some(ctx) = self.mg.trace_ctx() {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("driver", "step", &args)
        });
        // One shard's column launch over `cols`, on its own device: the
        // DRAM bytes it moved.
        let columns = |r: usize, cols: &[(usize, usize)]| -> u64 {
            let sh = &self.shards[r];
            if cols.is_empty() {
                return 0;
            }
            launch_mr3d_columns::<L>(
                self.mg.device(r),
                &sh.mom[sh.cur],
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                &self.scheme,
                &self.consts,
                &sh.bulk,
                self.t,
                sh.wx,
                sh.wy,
                cols,
            )
            .tally
            .dram_bytes()
        };

        let boundary_bytes = self
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].strip_cols));

        let _halo_span = obs.as_ref().map(|o| {
            let mut args = Vec::new();
            if let Some(ctx) = self.mg.trace_ctx() {
                ctx.append_args(&mut args);
            }
            o.tracer.span_args("halo", "halo-exchange", &args)
        });
        let transfers = self.exchange()?;
        drop(_halo_span);

        let interior_bytes = self
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].interior_cols));

        let bc_bytes = self.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            if sh.boundary.is_empty() {
                return 0;
            }
            launch_mr_bc::<L>(
                self.mg.device(r),
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                self.tau,
                self.t + 1,
                &sh.boundary,
                64,
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
        self.sample_monitor("multi-mr3d");
        Ok(())
    }

    /// Moment-space halo exchange across every cut. The link tally is
    /// recorded (with bounded retries on transient link faults) *before*
    /// the copy: a failed transfer moves no data and records no bytes, so
    /// a successful retry tallies exactly once.
    fn exchange(&self) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::M * 8) as u64;
            transfer_with_retry(
                &self.mg,
                tr.from,
                tr.to,
                bytes,
                &self.retry,
                &self.halo_retries,
            )?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sm, dm) = (&src.mom[src.cur ^ 1], &dst.mom[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    let m = sm.get_moments::<L>(self.t + 1, si);
                    dm.set_moments::<L>(self.t + 1, di, &m);
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
            let labels = [("pattern", "multi-mr3d")];
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

    /// Analytic per-step halo traffic: fluid-like halo nodes × `M·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::M * 8) as u64
    }

    /// Moments at a global node (owner shard, current time).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        sh.mom[sh.cur].get_moments::<L>(self.t, sh.geom.idx(lx, y, z))
    }

    /// Global density and velocity in one pass (solid nodes report zero).
    pub fn macro_fields(&self) -> (Vec<f64>, Vec<[f64; 3]>) {
        let g = self.decomp.global();
        let mut rho = vec![0.0; g.len()];
        let mut u = vec![[0.0; 3]; g.len()];
        for idx in 0..g.len() {
            if g.node_at(idx).is_fluid_like() {
                let (x, y, z) = g.coords(idx);
                let m = self.moments_at(x, y, z);
                rho[idx] = m.rho;
                u[idx] = m.u;
            }
        }
        (rho, u)
    }

    fn sample_monitor(&mut self, pattern: &str) {
        if !self.monitor.as_ref().is_some_and(|m| m.due(self.t)) {
            return;
        }
        let (rho, u) = self.macro_fields();
        let s = self.monitor.as_mut().unwrap().observe(self.t, &rho, &u);
        if let Some(o) = self.mg.obs() {
            let labels = [("pattern", pattern)];
            o.metrics.gauge_set("monitor_mass", &labels, s.mass);
            o.metrics.gauge_set("monitor_max_u", &labels, s.max_u);
        }
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
    /// stats, and every shard's current moment lattice (ghost columns
    /// included, so no post-restore exchange is needed).
    pub fn checkpoint(&self) -> Vec<u8> {
        let g = self.decomp.global();
        let mut w = CheckpointWriter::new("multi-mr3d");
        w.put_u64(g.nx as u64)
            .put_u64(g.ny as u64)
            .put_u64(g.nz as u64)
            .put_u64(L::M as u64)
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
            w.put_f64s(&sh.mom[sh.cur].host_snapshot());
        }
        w.finish()
    }

    /// Restore a snapshot taken by [`MultiMrSim3D::checkpoint`] on an
    /// identically configured simulation. Bitwise: the restored state
    /// continues exactly as the original would have (shift-0 lattices make
    /// the slot layout timestep-independent, so the snapshot lands in
    /// buffer 0 regardless of the saved parity).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let g = self.decomp.global();
        let mut r = CheckpointReader::open(bytes, "multi-mr3d")?;
        r.expect_u64(g.nx as u64, "nx")?;
        r.expect_u64(g.ny as u64, "ny")?;
        r.expect_u64(g.nz as u64, "nz")?;
        r.expect_u64(L::M as u64, "M")?;
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
            let data = r.take_f64s(sh.mom[0].raw_len())?;
            sh.mom[0].host_restore(&data);
            sh.cur = 0;
        }
        if let Some(m) = self.monitor.as_mut() {
            m.rollback_to(self.t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::MrSim3D;
    use lbm_lattice::D3Q19;

    fn duct(nx: usize, ny: usize, nz: usize) -> Geometry {
        // Periodic along x, walls on the four lateral faces.
        let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if y == 0 || y == ny - 1 || z == 0 || z == nz - 1 {
                        g.set(x, y, z, lbm_core::geometry::NodeType::Wall);
                    }
                }
            }
        }
        g
    }

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.01 * ((x + y) as f64 * 0.3).sin(),
            ],
        )
    }

    /// Sharded 3D MR matches the single-device run bitwise on a periodic-x
    /// duct.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = duct(12, 8, 8);
        let mut single: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                .with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(6);
        multi.run(6);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
    }

    /// D3Q19 halo node costs M·8 = 80 bytes in moment space (vs 152 ST).
    #[test]
    fn halo_bytes_are_m_per_node() {
        let geom = duct(8, 6, 6);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::mi100(), geom, MrScheme::projective(), 0.8, 2)
                .with_cpu_threads(2);
        multi.run(3);
        // 4 transfers × (6−2)·(6−2) fluid nodes × 10·8 bytes.
        let per_step = 4 * 16 * 10 * 8;
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 3 * per_step as u64);
    }

    /// Three device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run = |threads: usize, strict: bool| {
            let geom = duct(12, 8, 8);
            let mut multi: MultiMrSim3D<D3Q19> =
                MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if strict {
                for sh in &mut multi.shards {
                    let n = sh.geom.len();
                    let blank = [0, 1].map(|_| MomentLattice::new(n, 10, 0, 0));
                    let mom = std::mem::replace(&mut sh.mom, blank);
                    sh.mom = mom.map(MomentLattice::with_racecheck_strict);
                }
            }
            multi.init_with(shear_init);
            multi.run(4);
            multi.field_checksum()
        };
        assert_eq!(run(6, true), run(1, false));
    }
}

//! Multi-device 2D MR: slab-sharded moment representation with
//! *moment-space* halo exchange — `M·8` bytes per halo node instead of the
//! ST pattern's `Q·8`, the paper's bandwidth argument extended to the
//! interconnect (96 vs 144 bytes for D2Q9).
//!
//! Each shard stores two shift-0 moment lattices and alternates between
//! them. The single-device `MrSim2D` updates one lattice in place under
//! circular shifting, which is only safe when the whole step is one
//! lockstep launch; splitting the step into boundary-strip and interior
//! launches would let a later launch clobber slots an earlier one still
//! needed. Double buffering removes the hazard at `2M` doubles per node —
//! and `MrSim2D`'s `double_buffer_matches_single` test proves the
//! trajectory is bitwise unchanged.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use crate::st::check_boundary_widths;
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::driver::{DriverBody, Fields, Frame};
use lbm_gpu::moment_lattice::MomentLattice;
use lbm_gpu::mr2d::{launch_mr2d_columns, launch_mr_bc, pick_column_width};
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

pub(crate) struct MrShard {
    pub geom: Geometry,
    /// Interior fast-scatter eligibility over the local geometry (see
    /// `lbm_gpu::boundary::bulk_mask`).
    pub bulk: Vec<bool>,
    pub mom: [MomentLattice; 2],
    pub cur: usize,
    pub boundary: Vec<(usize, usize, usize)>,
    /// Local x origins of the edge column blocks (computed in phase 1).
    pub strip_cols: Vec<usize>,
    /// Local x origins of the remaining owned column blocks.
    pub interior_cols: Vec<usize>,
    pub col_w: usize,
}

impl MrShard {
    /// Partition a shard's owned column blocks into edge strips and
    /// interior. `origins` are the owned block origins in local x.
    pub fn partition(
        origins: Vec<usize>,
        ghost_l: bool,
        ghost_r: bool,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut strips = Vec::new();
        let mut interior = Vec::new();
        let last = origins.len() - 1;
        for (k, x0) in origins.into_iter().enumerate() {
            if (k == 0 && ghost_l) || (k == last && ghost_r) {
                strips.push(x0);
            } else {
                interior.push(x0);
            }
        }
        (strips, interior)
    }
}

/// The sharded 2D moment representation's state: two shift-0 moment
/// lattices per shard.
pub struct MultiMr2d<L: Lattice> {
    decomp: SlabDecomp,
    shards: Vec<MrShard>,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    tile_h: usize,
    stats: OverlapStats,
    _l: PhantomData<L>,
}

/// Slab-sharded 2D MR simulation (MR-P or MR-R) across N devices.
pub type MultiMrSim2D<L> = MultiSim<MultiMr2d<L>>;

impl<L: Lattice> MultiMrSim2D<L> {
    /// Shard a channel-type geometry (walls at `y = 0` and `y = ny−1`)
    /// across `n` devices. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        assert_eq!(geom.nz, 1, "MultiMrSim2D requires a 2D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(!geom.periodic[1], "MR requires wall-terminated y faces");
        for x in 0..geom.nx {
            assert!(
                geom.node(x, 0, 0).is_solid() && geom.node(x, geom.ny - 1, 0).is_solid(),
                "MR requires walls at y = 0 and y = ny−1"
            );
        }
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let col_w = pick_column_width(s.width, 32);
                let origins: Vec<usize> = (0..s.width / col_w)
                    .map(|k| s.owned_lo() + k * col_w)
                    .collect();
                let (strip_cols, interior_cols) = if n == 1 {
                    (Vec::new(), origins)
                } else {
                    MrShard::partition(origins, s.ghost_l, s.ghost_r)
                };
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                let bulk = lbm_gpu::boundary::bulk_mask::<L>(&g);
                MrShard {
                    bulk,
                    mom: [
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    strip_cols,
                    interior_cols,
                    col_w,
                    geom: g,
                }
            })
            .collect();
        MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiMr2d {
                decomp,
                shards,
                scheme,
                tau,
                consts: KernelConsts::new::<L>(tau),
                tile_h: 1,
                stats: OverlapStats::default(),
                _l: PhantomData,
            },
        )
    }

    /// Force the scalar (per-node) reference kernels instead of the
    /// chunk-vectorized ones — the equivalence-test oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.body.consts.scalar = true;
        self
    }

    /// Moments at a global node (owner shard, current time).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        self.body.moments(self.steps(), x, y, z)
    }
}

impl<L: Lattice> MultiMr2d<L> {
    /// Copy each cut's freshly computed edge columns — as `M` moments per
    /// node, not `Q` populations — into the neighbors' ghost columns. The
    /// link tally is recorded (with bounded retries on transient link
    /// faults) *before* the copy: a failed transfer moves no data and
    /// records no bytes, so a successful retry tallies exactly once.
    fn exchange(&self, cx: &StepCx<'_>) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::M * 8) as u64;
            cx.transfer(tr.from, tr.to, bytes)?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sm, dm) = (&src.mom[src.cur ^ 1], &dst.mom[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    let m = sm.get_moments::<L>(cx.t + 1, si);
                    dm.set_moments::<L>(cx.t + 1, di, &m);
                }
            }
            out.push((tr.from, tr.to, bytes));
        }
        Ok(out)
    }

    /// Modeled overlap-schedule timing.
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic per-step halo traffic: fluid-like halo nodes × `M·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::M * 8) as u64
    }

    fn moments(&self, t: u64, x: usize, y: usize, z: usize) -> Moments {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        sh.mom[sh.cur].get_moments::<L>(t, sh.geom.idx(lx, y, z))
    }
}

impl<L: Lattice> DriverBody for MultiMr2d<L> {
    fn label(&self) -> &'static str {
        "multi-mr2d"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
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
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho = vec![0.0; g.len()];
        let mut u = vec![[0.0; 3]; g.len()];
        for idx in 0..g.len() {
            if g.node_at(idx).is_fluid_like() {
                let (x, y, z) = g.coords(idx);
                let m = self.moments(t, x, y, z);
                rho[idx] = m.rho;
                u[idx] = m.u;
            }
        }
        (rho, u)
    }

    fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mom[0].size_bytes() + s.mom[1].size_bytes())
            .sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for sh in &mut self.shards {
            sh.mom[0].set_fault_plan(plan.clone());
            sh.mom[1].set_fault_plan(plan.clone());
        }
    }

    fn frame(&self) -> Frame {
        let g = self.decomp.global();
        Frame {
            flavor: "multi-mr2d",
            parity: false,
            guards: vec![
                ("nx", g.nx as u64),
                ("ny", g.ny as u64),
                ("M", L::M as u64),
                ("shard count", self.shards.len() as u64),
            ],
        }
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        self.shards
            .iter()
            .map(|sh| sh.mom[sh.cur].host_snapshot())
            .collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|sh| sh.mom[0].raw_len()).collect()
    }

    /// Shift-0 lattices make the slot layout timestep-independent, so the
    /// snapshot lands in buffer 0 regardless of the saved parity.
    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        for (sh, data) in self.shards.iter_mut().zip(&arrays) {
            sh.mom[0].host_restore(data);
            sh.cur = 0;
        }
    }
}

impl<L: Lattice> ShardedBody for MultiMr2d<L> {
    /// The two-phase overlap schedule. On `Err` no state has advanced (the
    /// buffer parity is unchanged) — the completed edge-strip launches are
    /// idempotent and a later retry of the whole step recomputes them
    /// bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // One shard's column launch over `cols`, on its own device: the
        // DRAM bytes it moved.
        let columns = |r: usize, cols: &[usize]| -> u64 {
            let sh = &self.shards[r];
            if cols.is_empty() {
                return 0;
            }
            launch_mr2d_columns::<L>(
                cx.mg.device(r),
                &sh.mom[sh.cur],
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                &self.scheme,
                &self.consts,
                &sh.bulk,
                cx.t,
                sh.col_w,
                self.tile_h,
                cols,
            )
            .tally
            .dram_bytes()
        };

        // Phase 1: edge column blocks.
        let boundary_bytes = cx
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].strip_cols));

        // Phase 2: moment-space halo exchange (overlaps the interior).
        let halo_span = cx.halo_span();
        let transfers = self.exchange(cx)?;
        drop(halo_span);

        // Phase 3: interior column blocks.
        let interior_bytes = cx
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].interior_cols));

        // Phase 4: inlet/outlet rebuild (native to moment space).
        let bc_bytes = cx.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            if sh.boundary.is_empty() {
                return 0;
            }
            launch_mr_bc::<L>(
                cx.mg.device(r),
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                self.tau,
                cx.t + 1,
                &sh.boundary,
                64,
            )
            .tally
            .dram_bytes()
        });

        let spec = cx.mg.spec().clone();
        let max_t = |b: &[u64]| device_time_s(&spec, b.iter().copied().max().unwrap_or(0));
        self.stats.record_step(
            max_t(&boundary_bytes),
            max_t(&interior_bytes),
            exchange_time_s(cx.mg, &transfers),
            max_t(&bc_bytes),
        );

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        Ok(())
    }

    fn overlap(&self) -> Option<&OverlapStats> {
        Some(&self.stats)
    }

    fn overlap_mut(&mut self) -> Option<&mut OverlapStats> {
        Some(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::MrSim2D;
    use lbm_lattice::D2Q9;

    fn shear_init(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((2 * x + y) as f64 * 0.4).sin(),
            [
                0.02 * (y as f64 * 0.7).sin(),
                0.01 * (x as f64 * 0.5).cos(),
                0.0,
            ],
        )
    }

    /// Sharded MR-P matches single-device MR-P bitwise on a periodic-x
    /// channel: the ghost moments are exact copies and the column kernel's
    /// per-node arithmetic is decomposition-independent.
    #[test]
    fn multi_matches_single_bitwise() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut single: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiMrSim2D<D2Q9> =
            MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
                .with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(10);
        multi.run(10);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
        let (rs, rm) = (single.density_field(), multi.density_field());
        for (a, b) in rs.iter().zip(&rm) {
            assert_eq!(a, b);
        }
    }

    /// MR-R on an inlet/outlet channel matches to roundoff (the FD stencil
    /// runs on the edge shards with identical inputs, so this is bitwise
    /// too).
    #[test]
    fn multi_matches_single_channel_recursive() {
        let geom = Geometry::channel_2d(20, 10, 0.04);
        let mut single: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::recursive::<D2Q9>(),
            0.75,
        )
        .with_cpu_threads(2);
        let mut multi: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::mi100(),
            geom,
            MrScheme::recursive::<D2Q9>(),
            0.75,
            3,
        )
        .with_cpu_threads(2);
        single.run(12);
        multi.run(12);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k]);
            }
        }
    }

    /// The moment-space exchange moves exactly M/Q of the ST halo bytes:
    /// 96/144 per D2Q9 halo node.
    #[test]
    fn halo_bytes_are_m_per_node() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mut multi: MultiMrSim2D<D2Q9> =
            MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 2)
                .with_cpu_threads(2);
        multi.run(4);
        let per_step = 4 * 8 * 6 * 8; // 4 transfers × 8 fluid nodes × M·8
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 4 * per_step as u64);
    }

    /// Mass is conserved across the cuts.
    #[test]
    fn conserves_mass() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut multi: MultiMrSim2D<D2Q9> =
            MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
                .with_cpu_threads(2);
        multi.init_with(|x, y, _| (1.0 + 0.01 * ((x + y) as f64).sin(), [0.0; 3]));
        let mass = |s: &MultiMrSim2D<D2Q9>| -> f64 { s.density_field().iter().sum() };
        let m0 = mass(&multi);
        multi.run(20);
        let m1 = mass(&multi);
        assert!((m0 - m1).abs() < 1e-9 * m0, "mass drift {}", m1 - m0);
    }

    fn strict(sh: &mut MrShard) {
        let n = sh.geom.len();
        let mom = std::mem::replace(&mut sh.mom, [0, 1].map(|_| MomentLattice::new(n, 6, 0, 0)));
        sh.mom = mom.map(MomentLattice::with_racecheck_strict);
    }

    /// Four device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run = |threads: usize, check: bool| {
            let geom = Geometry::walls_y_periodic_x(16, 8);
            let mut multi: MultiMrSim2D<D2Q9> =
                MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if check {
                multi.shards.iter_mut().for_each(strict);
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run(8, true), run(1, false));
    }

    /// A kernel that panics on one shard's device thread (here: a column
    /// origin outside the shard) reaches the thread that called `step`,
    /// leaves no span open on any thread, and the driver still drops.
    #[test]
    fn kernel_panic_in_one_shard_surfaces_on_the_stepping_thread() {
        let hub = obs::Obs::shared();
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut multi: MultiMrSim2D<D2Q9> =
            MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
                .with_cpu_threads(4)
                .with_obs(hub.clone());
        multi.init_with(shear_init);
        multi.run(2);
        multi.shards[2].interior_cols = vec![1000];
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| multi.step()));
        assert!(res.is_err(), "the shard's panic was swallowed");
        assert_eq!(
            hub.tracer.open_spans_total(),
            0,
            "a span leaked past the panic"
        );
        assert_eq!(multi.steps(), 2, "a failed step must not count");
        drop(multi);
    }
}

//! Multi-device MR: slab-sharded moment representation with *moment-space*
//! halo exchange — `M·8` bytes per halo node instead of the ST pattern's
//! `Q·8`, the paper's bandwidth argument extended to the interconnect
//! (96 vs 144 bytes for D2Q9, 80 vs 152 for D3Q19).
//!
//! Each shard stores two shift-0 moment lattices and alternates between
//! them. The single-device `MrSim` updates one lattice in place under
//! circular shifting, which is only safe when the whole step is one
//! lockstep launch; splitting the step into boundary-strip and interior
//! launches would let a later launch clobber slots an earlier one still
//! needed. Double buffering removes the hazard at `2M` doubles per node —
//! and `MrSim`'s `double_buffer_matches_single` test proves the trajectory
//! is bitwise unchanged. Column footprints are partitioned into edge strips
//! and interior for the two-phase overlap schedule; the walker itself is
//! [`lbm_gpu::mr`]'s, so one body serves every dimension.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use crate::st::check_boundary_widths;
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::geometry::Geometry;
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::driver::{DriverBody, Fields, Frame};
use lbm_gpu::moment_lattice::MomentLattice;
use lbm_gpu::mr::{
    assert_mr_domain, auto_footprint, blob_guards, fluid_macro_fields, init_equilibrium,
    launch_mr_bc, launch_mr_columns, walk_frame, ColumnWalk,
};
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

struct MrShard {
    geom: Geometry,
    mom: [MomentLattice; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    /// Footprint origins (local x) of the edge column blocks, whose x-range
    /// touches a cut (computed in phase 1).
    strip_cols: Vec<(usize, usize)>,
    /// Remaining owned footprint origins.
    interior_cols: Vec<(usize, usize)>,
    walk: ColumnWalk,
}

/// The sharded moment representation's state: two shift-0 moment lattices
/// per shard.
pub struct MultiMr<L: Lattice> {
    decomp: SlabDecomp,
    shards: Vec<MrShard>,
    scheme: MrScheme,
    consts: KernelConsts,
    stats: OverlapStats,
    _l: PhantomData<L>,
}

/// Slab-sharded MR simulation (MR-P or MR-R) across N devices.
pub type MultiMrSim<L> = MultiSim<MultiMr<L>>;
/// [`MultiMrSim`] under its 2D name.
pub type MultiMrSim2D<L> = MultiMrSim<L>;
/// [`MultiMrSim`] under its 3D name.
pub type MultiMrSim3D<L> = MultiMrSim<L>;

impl<L: Lattice> MultiMrSim<L> {
    /// Shard a channel- or duct-type geometry (walls on the y and, in 3D,
    /// z extreme faces) across `n` devices. Initialized to equilibrium at
    /// rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        assert_mr_domain::<L>(&geom);
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let nfy = walk_frame::<L>(&g).1;
                let (wx, wy) = auto_footprint::<L>(&device, s.width, nfy, 1, 0, 0);
                // Edge strips: the first / last owned block of a shard with
                // a ghost column on that side.
                let blocks_x = s.width / wx;
                let is_strip =
                    |k: usize| n > 1 && ((k == 0 && s.ghost_l) || (k == blocks_x - 1 && s.ghost_r));
                let with_y = |strip: bool| -> Vec<(usize, usize)> {
                    (0..blocks_x)
                        .filter(|&k| is_strip(k) == strip)
                        .flat_map(|k| (0..nfy / wy).map(move |j| (s.owned_lo() + k * wx, j * wy)))
                        .collect()
                };
                let ln = g.len();
                MrShard {
                    mom: [0, 1].map(|_| MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking()),
                    cur: 0,
                    boundary: boundary_nodes(&g),
                    strip_cols: with_y(true),
                    interior_cols: with_y(false),
                    walk: ColumnWalk::new::<L>(&g, wx, wy, 1),
                    geom: g,
                }
            })
            .collect();
        MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiMr {
                decomp,
                shards,
                scheme,
                consts: KernelConsts::new::<L>(tau),
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

impl<L: Lattice> MultiMr<L> {
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

impl<L: Lattice> DriverBody for MultiMr<L> {
    fn label(&self) -> &'static str {
        if L::D == 3 {
            "multi-mr3d"
        } else {
            "multi-mr2d"
        }
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            init_equilibrium::<L>(&sh.mom[0], &sh.geom, |lx, y, z| {
                field(self.decomp.global_x(r, lx), y, z)
            });
        }
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let g = self.decomp.global();
        fluid_macro_fields(g, |idx| {
            let (x, y, z) = g.coords(idx);
            self.moments(t, x, y, z)
        })
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
        let mut guards = blob_guards::<L>(self.decomp.global());
        guards.push(("shard count", self.shards.len() as u64));
        Frame {
            flavor: self.label(),
            parity: false,
            guards,
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

impl<L: Lattice> ShardedBody for MultiMr<L> {
    /// The two-phase overlap schedule. On `Err` no state has advanced (the
    /// buffer parity is unchanged) — the completed edge-strip launches are
    /// idempotent and a later retry of the whole step recomputes them
    /// bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // One shard's column launch over `cols`, on its own device: the
        // DRAM bytes it moved.
        let columns = |r: usize, cols: &[(usize, usize)]| -> u64 {
            let sh = &self.shards[r];
            if cols.is_empty() {
                return 0;
            }
            launch_mr_columns::<L>(
                cx.mg.device(r),
                &sh.mom[sh.cur],
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                &self.scheme,
                &self.consts,
                cx.t,
                &sh.walk,
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
                self.consts.tau,
                cx.t + 1,
                &sh.boundary,
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
    use lbm_core::geometry::NodeType;
    use lbm_gpu::MrSim;
    use lbm_lattice::{D2Q9, D3Q19};

    type Init = fn(usize, usize, usize) -> (f64, [f64; 3]);

    /// Periodic along x, walls on the lateral faces: a channel for
    /// `nz = 1`, a duct otherwise.
    fn walled(nx: usize, ny: usize, nz: usize) -> Geometry {
        let mut g = Geometry::new(nx, ny, nz, [true, false, nz == 1]);
        for idx in 0..g.len() {
            let (x, y, z) = g.coords(idx);
            if y == 0 || y == ny - 1 || (nz > 1 && (z == 0 || z == nz - 1)) {
                g.set(x, y, z, NodeType::Wall);
            }
        }
        g
    }

    fn shear_2d(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((2 * x + y) as f64 * 0.4).sin(),
            [
                0.02 * (y as f64 * 0.7).sin(),
                0.01 * (x as f64 * 0.5).cos(),
                0.0,
            ],
        )
    }

    fn shear_3d(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.01 * ((x + y) as f64 * 0.3).sin(),
            ],
        )
    }

    fn sharded<L: Lattice>(geom: Geometry, shards: usize) -> MultiMrSim<L> {
        MultiMrSim::new(
            DeviceSpec::v100(),
            geom,
            MrScheme::projective(),
            0.8,
            shards,
        )
    }

    /// Sharded MR matches single-device MR bitwise: the ghost moments are
    /// exact copies and the column kernel's per-node arithmetic is
    /// decomposition-independent.
    fn assert_matches_single<L: Lattice>(
        mut single: MrSim<L>,
        mut multi: MultiMrSim<L>,
        init: Option<Init>,
        steps: usize,
    ) {
        if let Some(init) = init {
            single.init_with(init);
            multi.init_with(init);
        }
        single.run(steps);
        multi.run(steps);
        assert_eq!(
            single.velocity_field(),
            multi.velocity_field(),
            "sharding changed the arithmetic"
        );
        assert_eq!(single.density_field(), multi.density_field());
    }

    /// MR-P on a periodic-x channel over four shards and a periodic-x duct
    /// over three.
    #[test]
    fn multi_matches_single_bitwise() {
        fn check<L: Lattice>(geom: Geometry, shards: usize, init: Init, steps: usize) {
            let single = MrSim::<L>::new(
                DeviceSpec::v100(),
                geom.clone(),
                MrScheme::projective(),
                0.8,
            )
            .with_cpu_threads(2);
            let multi = sharded::<L>(geom, shards).with_cpu_threads(2);
            assert_matches_single(single, multi, Some(init), steps);
        }
        check::<D2Q9>(walled(16, 8, 1), 4, shear_2d, 10);
        check::<D3Q19>(walled(12, 8, 8), 3, shear_3d, 6);
    }

    /// MR-R on an inlet/outlet channel matches to roundoff (the FD stencil
    /// runs on the edge shards with identical inputs, so this is bitwise
    /// too).
    #[test]
    fn multi_matches_single_channel_recursive() {
        let geom = Geometry::channel_2d(20, 10, 0.04);
        let (dev, scheme) = (DeviceSpec::mi100, MrScheme::recursive::<D2Q9>);
        let single = MrSim::<D2Q9>::new(dev(), geom.clone(), scheme(), 0.75).with_cpu_threads(2);
        let multi = MultiMrSim::<D2Q9>::new(dev(), geom, scheme(), 0.75, 3).with_cpu_threads(2);
        assert_matches_single(single, multi, None, 12);
    }

    /// The moment-space exchange moves exactly M/Q of the ST halo bytes:
    /// `M·8` = 48 of 72 per D2Q9 halo node, 80 of 152 per D3Q19 one.
    #[test]
    fn halo_bytes_are_m_per_node() {
        fn check<L: Lattice>(dev: DeviceSpec, geom: Geometry, steps: usize, per_step: u64) {
            let mut multi: MultiMrSim<L> =
                MultiMrSim::new(dev, geom, MrScheme::projective(), 0.8, 2).with_cpu_threads(2);
            multi.run(steps);
            assert_eq!(multi.halo_bytes_per_step(), per_step);
            assert_eq!(
                multi.interconnect().total_link_bytes(),
                steps as u64 * per_step
            );
        }
        // 4 transfers × 8 fluid nodes × M·8.
        check::<D2Q9>(DeviceSpec::v100(), walled(16, 10, 1), 4, 4 * 8 * 6 * 8);
        // 4 transfers × (6−2)·(6−2) fluid nodes × 10·8 bytes.
        check::<D3Q19>(DeviceSpec::mi100(), walled(8, 6, 6), 3, 4 * 16 * 10 * 8);
    }

    /// Mass is conserved across the cuts.
    #[test]
    fn conserves_mass() {
        let mut multi = sharded::<D2Q9>(walled(16, 8, 1), 4).with_cpu_threads(2);
        multi.init_with(|x, y, _| (1.0 + 0.01 * ((x + y) as f64).sin(), [0.0; 3]));
        let mass = |s: &MultiMrSim<D2Q9>| -> f64 { s.density_field().iter().sum() };
        let m0 = mass(&multi);
        multi.run(20);
        let m1 = mass(&multi);
        assert!((m0 - m1).abs() < 1e-9 * m0, "mass drift {}", m1 - m0);
    }

    /// One device thread per shard with two pooled launch threads each trip
    /// no strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        fn check<L: Lattice>(geom: Geometry, shards: usize, init: Init, steps: usize) {
            let run = |threads: usize, strict: bool| {
                let mut multi = sharded::<L>(geom.clone(), shards)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
                if strict {
                    for sh in &mut multi.shards {
                        let blank = [0, 1].map(|_| MomentLattice::new(1, L::M, 0, 0));
                        let mom = std::mem::replace(&mut sh.mom, blank);
                        sh.mom = mom.map(MomentLattice::with_racecheck_strict);
                    }
                }
                multi.init_with(init);
                multi.run(steps);
                multi.field_checksum()
            };
            assert_eq!(run(2 * shards, true), run(1, false));
        }
        check::<D2Q9>(walled(16, 8, 1), 4, shear_2d, 6);
        check::<D3Q19>(walled(12, 8, 8), 3, shear_3d, 4);
    }

    /// A kernel that panics on one shard's device thread (here: a column
    /// origin outside the shard) reaches the thread that called `step`,
    /// leaves no span open on any thread, and the driver still drops.
    #[test]
    fn kernel_panic_in_one_shard_surfaces_on_the_stepping_thread() {
        fn check<L: Lattice>(geom: Geometry, shards: usize, init: Init) {
            let hub = obs::Obs::shared();
            let mut multi = sharded::<L>(geom, shards)
                .with_cpu_threads(shards)
                .with_obs(hub.clone());
            multi.init_with(init);
            multi.run(2);
            multi.shards[shards - 2].interior_cols = vec![(1000, 0)];
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
        check::<D2Q9>(walled(16, 8, 1), 4, shear_2d);
        check::<D3Q19>(walled(12, 8, 8), 3, shear_3d);
    }
}

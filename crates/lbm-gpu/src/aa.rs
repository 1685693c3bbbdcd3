//! In-place AA-pattern propagation for the ST representation — one lattice
//! instead of two.
//!
//! The two-lattice drivers ([`crate::StSim`]) keep src/dst copies so a step
//! can stream without clobbering unread neighbors: `2Q·8` resident bytes
//! per node. The AA pattern (Bailey et al.; see the Wittmann et al.
//! propagation-step survey in PAPERS.md) eliminates the second lattice by
//! alternating two half-steps over a single buffer `A` of `Q·n` doubles:
//!
//! * **stream half-step** (performed when the completed-step counter is
//!   even): gather and collide with the pull kernel's own code — the ST
//!   node walk, its run stager and its gather, given the storage-slot map
//!   `OPP` instead of the identity (Wittmann et al.: AA is the pull kernel
//!   over permuted slots) — then *push* the post-collision values out,
//!   pre-applying the **next** step's streaming so they land in natural
//!   slots `A(x + c_i, i)`: per direction, each stretch of a row whose
//!   `x + c_i` is in the box without a wrap and fluid-like as one counted
//!   row (an offset contiguous copy, Wittmann et al.), any other push as an
//!   element write.
//! * **collide half-step** (counter odd): every node's inputs are already
//!   in its own natural slots; collide node-locally and store the results
//!   reversed, `A(x, OPP[i]) = f*_i`.
//!
//! With steps numbered from 1 this is the classic AA schedule — odd steps
//! pull-swap-collide-push, even steps collide in place.
//!
//! # Parity invariant
//!
//! At even completed-step counts the buffer holds the post-collision state
//! in *reversed* slots: `A_t(x, OPP[i]) = f_i(x, t)`, bitwise equal to what
//! `StSim` holds in its current lattice. At odd counts it holds the next
//! step's pre-collision inputs in *natural* slots. The host paths —
//! reduction, init, `f_at` — route through [`lbm_core::kernels::aa_slot`];
//! the two kernels each run at one parity and name its slots directly.
//!
//! # Race freedom
//!
//! During the stream half-step, cell `A(v, s)` is read only by the gather
//! of node `v − c_s` (fluid case: `x − c_j = v, OPP[j] = s ⇒ x = v − c_s`)
//! and written only by the push of the *same* node (`x + c_i = v, i = s ⇒
//! x = v − c_s`); the bounce-back reads/writes of `A(x, i)` / `A(x,
//! OPP[i])` are both by node `x` itself, under the same solid-neighbor
//! condition. Every cell therefore has exclusive single-node ownership (a
//! counted row writes the cells its nodes' element pushes would, so each
//! keeps its one writer), and each node gathers before it pushes — the
//! update is race-free under any block schedule, which the strict race
//! checker verifies in the tests (under the pooled executor; this is
//! exactly what it was built for). The collide half-step is trivially
//! node-local.
//!
//! Traffic per fluid node and step is `Q` reads + `Q` writes in both
//! half-steps, so the measured B/F stays at Table 2's `2Q·8` (144 / 304)
//! while resident bytes drop from `2Q·8` to `Q·8` per node.

use crate::boundary::boundary_nodes;
use crate::driver::{
    advance_solo, box_guards, BlockSize, DriverBody, Fields, Frame, Owned, Part, Rec,
    ScalarKernels, Sim, SlabBody, SoloBody,
};
use crate::init::{init_rows, plane_store};
use crate::multi::ring::StepCx;
use crate::multi::Slabs;
use crate::st::{fluid_like, population_macro_fields, NodeWalk};
use gpu_sim::exec::{BlockCtx, Kernel};
use gpu_sim::interconnect::LinkError;
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer, Gpu};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{aa_slot, KernelConsts};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// Stream half-step kernel: the pull gather over reversed slots and the
/// collide ([`NodeWalk::stage_run`], so per-node values are bitwise the
/// two-lattice kernel's), then the push into natural slots, a counted row
/// per stretch and direction (module docs).
struct AaStreamKernel<'a, L: Lattice, C: Collision<L>> {
    walk: NodeWalk<'a, L, C>,
    a: &'a GlobalBuffer<f64>,
}

impl<L: Lattice, C: Collision<L>> Kernel for AaStreamKernel<'_, L, C> {
    fn name(&self) -> &str {
        "aa-stream"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let (walk, a) = (&self.walk, self.a);
        let (geom, gains) = (walk.geom, &walk.consts.gains);
        let (n, bs, (nx, ny, nz)) = (geom.len(), walk.block_size, (geom.nx, geom.ny, geom.nz));
        // Pass 1: gather + collide into scratch, staged per maximal run.
        walk.for_each_run(ctx.block_id, |stid, sidx, len| {
            walk.stage_run(ctx, a, |i| L::OPP[i], (stid, sidx, len));
        });
        // Pass 2: push with the push rules (pre-applies the next step's
        // streaming), one row segment of a run at a time: a run may continue
        // across rows. Each node's gather strictly precedes its push, and
        // cell ownership is exclusive (module docs), so the in-place
        // overwrite is race-free.
        walk.for_each_run(ctx.block_id, |stid, sidx, len| {
            let mut j = 0;
            while j < len {
                let (x, y, z) = geom.coords(sidx + j);
                let take = (nx - x).min(len - j);
                for i in 0..L::Q {
                    // A stretch of nodes whose downstream node `x + c_i` is
                    // in the box without a wrap and fluid-like lands at
                    // `i·n + idx + off_i`: one counted row from scratch row
                    // `i`. Every other push is an element one.
                    let c = L::C[i];
                    let off =
                        c[0] as isize + (c[1] as isize + c[2] as isize * ny as isize) * nx as isize;
                    let row_in = lands_in(y, c[1], ny) && lands_in(z, c[2], nz);
                    let (first, slot) = (sidx + j, i * bs + stid + j);
                    let flush = |ctx: &mut BlockCtx, from: usize, to: usize| {
                        if to > from {
                            let dst = i * n + (first + from).wrapping_add_signed(off);
                            let row = (dst, n, 1, to - from);
                            ctx.write_window_from_scratch(a, row, None, (slot + from, bs), false);
                        }
                    };
                    let mut from = 0;
                    for k in 0..take {
                        let idx = first + k;
                        if row_in
                            && lands_in(x + k, c[0], nx)
                            && geom.node_at(idx.wrapping_add_signed(off)).is_fluid_like()
                        {
                            continue;
                        }
                        flush(ctx, from, k);
                        from = k + 1;
                        // The element push: across a wrap, or bounced back
                        // into the node's own slot `OPP[i]` (plus the gain
                        // of a moving wall) when `x + c_i` is solid or absent.
                        let (own, v) = (L::OPP[i] * n + idx, ctx.scratch()[slot + k]);
                        let to = geom
                            .neighbor(x + k, y, z, c)
                            .map(|(p, q, r)| geom.idx(p, q, r));
                        let (cell, v) = match to.map(|d| (d, geom.node_at(d))) {
                            Some((d, t)) if t.is_fluid_like() => (i * n + d, v),
                            Some((_, NodeType::MovingWall(uw))) => {
                                (own, v + gains.gain(L::OPP[i], uw))
                            }
                            _ => (own, v),
                        };
                        ctx.write(a, cell, v);
                    }
                    flush(ctx, from, take);
                }
                j += take;
            }
        });
    }
}

/// Whether coordinate `v + c` lies in `0..dim` without a periodic wrap.
#[inline(always)]
fn lands_in(v: usize, c: i32, dim: usize) -> bool {
    v.wrapping_add_signed(c as isize) < dim
}

/// Collide half-step kernel: read the `Q` natural slots (already streamed
/// by the previous half-step's push), collide, write back reversed.
/// Node-local by construction.
struct AaCollideKernel<'a, L: Lattice, C: Collision<L>> {
    walk: NodeWalk<'a, L, C>,
    a: &'a GlobalBuffer<f64>,
}

impl<L: Lattice, C: Collision<L>> Kernel for AaCollideKernel<'_, L, C> {
    fn name(&self) -> &str {
        "aa-collide"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let (walk, a) = (&self.walk, self.a);
        let (n, bs) = (walk.geom.len(), walk.block_size);
        walk.for_each_run(ctx.block_id, |stid, sidx, len| {
            ctx.read_window_to_scratch(a, (sidx, n, L::Q, len), None, (stid, bs), false);
            walk.collide_run(ctx.scratch(), stid, len);
            // All Q rows of the run were read above, so the reversed-slot
            // flush only overwrites cells this run's own nodes already
            // consumed. `OPP` is not a stride: one row per direction.
            for i in 0..L::Q {
                let row = (L::OPP[i] * n + sidx, n, 1, len);
                ctx.write_window_from_scratch(a, row, None, (i * bs + stid, len), false);
            }
        });
    }
}

/// The AA pattern's state: one `Q·n` lattice updated in place.
pub struct AaSt<L: Lattice, C: Collision<L>> {
    geom: Geometry,
    owned: Owned,
    a: GlobalBuffer<f64>,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    _l: PhantomData<L>,
}

/// Driver for an in-place AA-pattern ST simulation: one `Q·n` lattice,
/// bitwise equal to [`crate::StSim`] at every even step count.
pub type AaStSim<L, C> = Sim<AaSt<L, C>>;

impl<L: Lattice, C: Collision<L>> AaStSim<L, C> {
    /// Build an AA simulation on `device` over `geom`, initialized to
    /// equilibrium at rest. The AA scatter has no inlet/outlet support —
    /// the scheme pre-streams into neighbors before the boundary kernel
    /// could rebuild them — so geometries with inlet/outlet nodes are
    /// rejected.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C) -> Self {
        Sim::from_body(
            Gpu::new(device),
            AaSt::on_slab(Owned::all(&geom), geom, collision),
        )
    }

    /// Enable strict race checking on the single lattice: any cross-block
    /// overlap or stale read inside a launch panics. The in-place update's
    /// exclusive cell ownership is exactly what this verifies.
    pub fn with_racecheck_strict(mut self) -> Self {
        self.body.set_racecheck_strict();
        self
    }

    /// Distribution at a node, un-permuted to natural direction order
    /// regardless of the current parity.
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        self.body.f_at(self.steps(), x, y, z)
    }

    /// Moments at a node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

impl<L: Lattice, C: Collision<L>> AaSt<L, C> {
    /// The AA state over `geom`, computing its `owned` columns — the one
    /// constructor behind [`AaStSim::new`] and every shard of [`crate::multi`].
    pub(crate) fn on_slab(owned: Owned, geom: Geometry, collision: C) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert!(
            boundary_nodes(&geom).is_empty(),
            "AA-pattern streaming does not support inlet/outlet boundaries"
        );
        AaSt {
            a: GlobalBuffer::new(L::Q * geom.len()).with_touch_tracking(),
            consts: KernelConsts::new::<L>(collision.tau()),
            collision,
            block_size: 256,
            owned,
            geom,
            _l: PhantomData,
        }
    }

    /// See [`AaStSim::with_racecheck_strict`].
    pub(crate) fn set_racecheck_strict(&mut self) {
        self.a.set_racecheck_strict();
    }

    /// Distribution at a node after `t` steps, in natural direction order.
    pub fn f_at(&self, t: u64, x: usize, y: usize, z: usize) -> Vec<f64> {
        let n = self.geom.len();
        let idx = self.geom.idx(x, y, z);
        (0..L::Q)
            .map(|i| self.a.get(aa_slot::<L>(t, i) * n + idx))
            .collect()
    }

    /// Copy lattice cell `si` into cell `di` of `to`: the unit of the
    /// sharded AA exchange, which moves only the slots that cross a cut.
    pub(crate) fn send_cell(&self, to: &Self, si: usize, di: usize) {
        to.a.set(di, self.a.get(si));
    }
}

impl<L: Lattice, C: Collision<L>> ScalarKernels for AaSt<L, C> {
    fn set_scalar_kernels(&mut self) {
        self.consts.scalar = true;
    }
}

impl<L: Lattice, C: Collision<L>> BlockSize for AaSt<L, C> {
    /// The block size of the half-step kernels.
    fn set_block_size(&mut self, bs: usize) {
        assert!(bs >= 1);
        self.block_size = bs;
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for AaSt<L, C> {
    type Dev = Gpu;

    fn advance(&mut self, gpu: &Gpu, t: u64, rec: Rec<'_>) -> Result<(), LinkError> {
        advance_solo(self, gpu, t, rec)
    }

    fn label(&self) -> &'static str {
        "aa-st"
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// Stored per the even-parity invariant (reversed slots).
    fn init_with(
        &self,
        gpu: Option<&Gpu>,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        let store = plane_store(&self.a, L::Q, self.geom.len(), |i| aa_slot::<L>(0, i));
        let values = |m: &Moments, f: &mut [f64]| self.collision.reconstruct(m, f);
        init_rows::<L>(gpu, &self.geom, None, field, L::Q, values, store);
    }

    /// At even parity the slot un-permutation makes the per-node sums
    /// bitwise identical to [`crate::StSim`]'s; at odd parity the buffer
    /// holds the *streamed* inputs of the next step, so the fields are the
    /// (deterministic, conservative) half-cycle state — comparable to the
    /// two-lattice driver only at even counts.
    fn macro_fields(&self, t: u64) -> Fields {
        let (n, a) = (self.geom.len(), &self.a);
        population_macro_fields::<L>(n, fluid_like(&self.geom), |idx, i| {
            a.get(aa_slot::<L>(t, i) * n + idx)
        })
    }

    /// Exactly one lattice, `Q·8` bytes per node — half of
    /// [`crate::StSim`].
    fn footprint_bytes(&self) -> usize {
        self.a.size_bytes()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.a.set_fault_plan(plan);
    }

    /// The flavor carries the step parity (`"aa-st+even"` / `"aa-st+odd"`).
    fn frame(&self) -> Frame {
        Frame {
            flavor: "aa-st",
            parity: true,
            guards: box_guards(&self.geom, ("Q", L::Q)),
        }
    }

    fn state_arrays(&self, _t: u64) -> Vec<Vec<f64>> {
        vec![self.a.snapshot()]
    }

    fn state_lens(&self) -> Vec<usize> {
        vec![self.a.len()]
    }

    fn install(&mut self, _t: u64, arrays: Vec<Vec<f64>>) {
        self.a.set_span(0, &arrays[0]);
    }
}

impl<L: Lattice, C: Collision<L>> SoloBody for AaSt<L, C> {
    /// One launch over the owned span: the stream half-step at even
    /// completed-step counts, the in-place collide at odd ones. Per-node
    /// arithmetic does not depend on the span, so span launches covering a
    /// domain are bitwise one full launch.
    fn launch_part(&self, gpu: &Gpu, t: u64, part: Part, rec: Rec<'_>) {
        if part != Part::Interior {
            return;
        }
        let walk = || {
            let span = (self.owned.lo, self.owned.hi);
            NodeWalk::new(
                &self.geom,
                &self.collision,
                &self.consts,
                self.block_size,
                span,
            )
        };
        let cfg = walk().launch();
        let stats = if t.is_multiple_of(2) {
            gpu.launch(
                &cfg,
                &AaStreamKernel {
                    walk: walk(),
                    a: &self.a,
                },
            )
        } else {
            gpu.launch(
                &cfg,
                &AaCollideKernel {
                    walk: walk(),
                    a: &self.a,
                },
            )
        };
        rec(&stats);
    }
}

impl<L: Lattice, C: Collision<L>> SlabBody for AaSt<L, C> {
    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame) {
        let frame = Frame {
            flavor: "aa-st-multi",
            parity: true,
            guards: box_guards(global, ("Q", L::Q)),
        };
        ("multi-aa-st", frame)
    }
    /// The pre/post slot exchange around one in-place launch.
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError> {
        crate::multi::aa::advance(slabs, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StSim;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_lattice::{D2Q9, D3Q19};

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y + z) as f64 * 0.3).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// A 2D geometry with a moving lid so the AA bounce-back gain paths are
    /// exercised against the two-lattice driver.
    fn lid_geom(nx: usize, ny: usize) -> Geometry {
        let mut g = Geometry::walls_y_periodic_x(nx, ny);
        for x in 0..nx {
            g.set(x, ny - 1, 0, NodeType::MovingWall([0.05, 0.0, 0.0]));
        }
        g
    }

    /// The correctness contract: AA is bitwise equal to the two-lattice ST
    /// driver at *every even* step count, on both device models, including
    /// moving-wall bounce-back.
    #[test]
    fn aa_matches_st_bitwise_at_even_steps_2d() {
        for dev in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            let geom = lid_geom(20, 10);
            let mut aa: AaStSim<D2Q9, _> =
                AaStSim::new(dev.clone(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(2);
            aa.init_with(shear_init);
            let mut st: StSim<D2Q9, _> = StSim::new(dev, geom, Bgk::new(0.8)).with_cpu_threads(2);
            st.init_with(shear_init);
            assert_eq!(aa.field_checksum(), st.field_checksum(), "init state");
            for step in 1..=8u64 {
                aa.step();
                st.step();
                if step % 2 == 0 {
                    assert_eq!(
                        aa.field_checksum(),
                        st.field_checksum(),
                        "divergence at even step {step}"
                    );
                }
            }
        }
    }

    /// Same contract in 3D (walled duct, periodic x), with the projective
    /// regularized operator to cover the non-BGK collide path.
    #[test]
    fn aa_matches_st_bitwise_at_even_steps_3d() {
        for dev in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            let mut geom = Geometry::new(10, 6, 6, [true, false, false]);
            for z in 0..6 {
                for y in 0..6 {
                    for x in 0..10 {
                        if y == 0 || y == 5 || z == 0 || z == 5 {
                            geom.set(x, y, z, NodeType::Wall);
                        }
                    }
                }
            }
            let mut aa: AaStSim<D3Q19, _> =
                AaStSim::new(dev.clone(), geom.clone(), Projective::new(0.7)).with_cpu_threads(2);
            aa.init_with(shear_init);
            let mut st: StSim<D3Q19, _> =
                StSim::new(dev, geom, Projective::new(0.7)).with_cpu_threads(2);
            st.init_with(shear_init);
            for _ in 0..2 {
                aa.step();
                aa.step();
                st.step();
                st.step();
                assert_eq!(aa.field_checksum(), st.field_checksum());
            }
        }
    }

    /// The race checker's reason to exist: the in-place swap must be
    /// race-free under the pooled executor (forced pooling, small blocks,
    /// several workers), in strict mode, across both half-steps.
    #[test]
    fn aa_strict_racecheck_under_pooled_executor() {
        let mut sim: AaStSim<D2Q9, _> =
            AaStSim::new(DeviceSpec::v100(), lid_geom(20, 10), Bgk::new(0.8))
                .with_racecheck_strict()
                .with_cpu_threads(3)
                .with_parallel_threshold(0)
                .with_block_size(32);
        sim.init_with(shear_init);
        sim.run(4);
        assert!(sim.field_checksum() != 0);
    }

    /// Strict race check in 3D too (different neighbor topology).
    #[test]
    fn aa_strict_racecheck_3d() {
        let mut sim: AaStSim<D3Q19, _> = AaStSim::new(
            DeviceSpec::v100(),
            Geometry::periodic_3d(8, 6, 6),
            Bgk::new(0.9),
        )
        .with_racecheck_strict()
        .with_cpu_threads(3)
        .with_parallel_threshold(0)
        .with_block_size(32);
        sim.run(4);
        assert!(sim.field_checksum() != 0);
    }

    /// Resident bytes are exactly one lattice — `Q·8` per node, half of the
    /// two-lattice driver, byte-exact.
    #[test]
    fn footprint_is_single_lattice() {
        let geom = Geometry::periodic_2d(10, 10);
        let aa: AaStSim<D2Q9, _> = AaStSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
        let st: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
        assert_eq!(aa.footprint_bytes(), 9 * 100 * 8);
        assert_eq!(2 * aa.footprint_bytes(), st.footprint_bytes());
    }

    /// Measured B/F stays at Table 2's 2Q·8 on a periodic box — in-place
    /// storage halves residency, not traffic.
    #[test]
    fn measured_bpf_matches_table2_2d() {
        let mut sim: AaStSim<D2Q9, _> = AaStSim::new(
            DeviceSpec::v100(),
            Geometry::periodic_2d(32, 16),
            Bgk::new(0.9),
        )
        .with_cpu_threads(2);
        sim.run(4);
        let bpf = sim.measured_bpf();
        assert!((bpf - 144.0).abs() < 1e-9, "B/F = {bpf}");
    }

    #[test]
    fn measured_bpf_matches_table2_3d() {
        let mut sim: AaStSim<D3Q19, _> = AaStSim::new(
            DeviceSpec::v100(),
            Geometry::periodic_3d(12, 8, 8),
            Bgk::new(0.9),
        )
        .with_cpu_threads(2);
        sim.run(2);
        let bpf = sim.measured_bpf();
        assert!((bpf - 304.0).abs() < 1e-9, "B/F = {bpf}");
    }

    /// Scheduling must be invisible: 1, 3, and 8 worker threads produce
    /// bitwise-identical fields and identical tallies, at odd and even
    /// parity alike.
    #[test]
    fn executor_determinism_across_thread_counts() {
        let run = |threads: usize, steps: usize| {
            let mut sim: AaStSim<D2Q9, _> =
                AaStSim::new(DeviceSpec::v100(), lid_geom(20, 11), Bgk::new(0.8))
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0)
                    .with_block_size(32);
            sim.init_with(shear_init);
            sim.run(steps);
            (sim.field_checksum(), sim.traffic())
        };
        for steps in [7, 8] {
            let base = run(1, steps);
            for threads in [3, 8] {
                assert_eq!(base, run(threads, steps), "diverges at {threads} threads");
            }
        }
    }

    /// Scalar and vectorized kernels are bitwise-identical on both
    /// half-steps.
    #[test]
    fn scalar_path_matches_vectorized() {
        for steps in [3usize, 4] {
            let mk = |scalar: bool| {
                let mut sim: AaStSim<D2Q9, _> =
                    AaStSim::new(DeviceSpec::v100(), lid_geom(16, 9), Bgk::new(0.8))
                        .with_cpu_threads(2);
                if scalar {
                    sim = sim.with_scalar_kernels();
                }
                sim.init_with(shear_init);
                sim.run(steps);
                sim.field_checksum()
            };
            assert_eq!(mk(false), mk(true), "scalar/vector divergence at {steps}");
        }
    }

    /// Checkpoint/restore round-trips at both parities; the odd-parity
    /// snapshot carries the `+odd` flavor and restores onto the correct
    /// half-cycle (resumed trajectory bitwise equal to uninterrupted).
    #[test]
    fn checkpoint_round_trips_at_both_parities() {
        for cut in [3usize, 4] {
            let mut a: AaStSim<D2Q9, _> =
                AaStSim::new(DeviceSpec::v100(), lid_geom(16, 9), Bgk::new(0.8))
                    .with_cpu_threads(2);
            a.init_with(shear_init);
            a.run(cut);
            let blob = a.checkpoint();
            a.run(8 - cut);

            let mut b: AaStSim<D2Q9, _> =
                AaStSim::new(DeviceSpec::v100(), lid_geom(16, 9), Bgk::new(0.8))
                    .with_cpu_threads(2);
            b.restore(&blob).unwrap();
            assert_eq!(b.steps(), cut as u64);
            b.run(8 - cut);
            assert_eq!(a.field_checksum(), b.field_checksum(), "cut at {cut}");
        }
    }

    /// An ST snapshot (or any foreign flavor) is rejected, and a tampered
    /// parity tag is caught by the flavor/counter cross-check.
    #[test]
    fn restore_rejects_foreign_and_parity_mismatched_snapshots() {
        use lbm_core::io::{CheckpointError, CheckpointWriter};
        let geom = Geometry::walls_y_periodic_x(16, 9);
        let mut st: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(1);
        st.run(2);
        let mut aa: AaStSim<D2Q9, _> = AaStSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
        assert!(matches!(
            aa.restore(&st.checkpoint()),
            Err(CheckpointError::WrongFlavor { .. })
        ));
        // Forge an even-flavored blob whose stored counter is odd.
        let n = aa.geom().len();
        let mut w = CheckpointWriter::new("aa-st+even");
        w.put_u64(16).put_u64(9).put_u64(1).put_u64(9).put_u64(3);
        for _ in 0..6 {
            w.put_u64(0);
        }
        w.put_f64s(&vec![0.1; 9 * n]);
        assert!(matches!(
            aa.restore(&w.finish()),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// Odd-parity fields are the conservative half-cycle state: global mass
    /// equals the even-state mass on a periodic box.
    #[test]
    fn odd_parity_state_conserves_mass() {
        let mut sim: AaStSim<D2Q9, _> = AaStSim::new(
            DeviceSpec::v100(),
            Geometry::periodic_2d(16, 8),
            Bgk::new(0.9),
        )
        .with_cpu_threads(2);
        sim.init_with(shear_init);
        let mass = |s: &AaStSim<D2Q9, Bgk>| s.density_field().iter().sum::<f64>();
        let m0 = mass(&sim);
        for _ in 0..5 {
            sim.step();
            assert!(
                (mass(&sim) - m0).abs() < 1e-10,
                "mass drift at {}",
                sim.steps()
            );
        }
    }

    /// macro_fields matches the per-node accessors at both parities.
    #[test]
    fn macro_fields_matches_per_node_accessors() {
        let mut sim: AaStSim<D2Q9, _> =
            AaStSim::new(DeviceSpec::v100(), lid_geom(16, 10), Bgk::new(0.8)).with_cpu_threads(2);
        sim.init_with(shear_init);
        for _ in 0..3 {
            sim.step();
            let (rho, u) = sim.macro_fields();
            for idx in 0..sim.geom().len() {
                let (x, y, z) = sim.geom().coords(idx);
                if sim.geom().node_at(idx).is_fluid_like() {
                    let m = sim.moments_at(x, y, z);
                    assert_eq!(rho[idx], m.rho);
                    assert_eq!(u[idx], m.u);
                } else {
                    assert_eq!(rho[idx], 0.0);
                }
            }
        }
    }

    /// Inlet/outlet geometries are rejected up front.
    #[test]
    #[should_panic(expected = "does not support inlet/outlet")]
    fn rejects_inlet_outlet_geometries() {
        let geom = Geometry::channel_2d(16, 8, 0.03);
        let _ = AaStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
    }
}

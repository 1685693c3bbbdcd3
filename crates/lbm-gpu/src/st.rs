//! The standard distribution representation (ST) on the GPU substrate —
//! Algorithm 1 of the paper.
//!
//! Two full SoA lattices in global memory (`f[dir · n + node]`), pull
//! scheme, one thread per lattice node, 1D grid of 1D blocks. Per fluid
//! node and step the kernel reads `Q` and writes `Q` doubles: the measured
//! B/F reproduces Table 2's `2Q·8` (144 for D2Q9, 304 for D3Q19) up to the
//! small inlet/outlet kernel contribution.
//!
//! The node walk (`NodeWalk`: span walk, run stager, pull gather) is the
//! whole ST family's: the AA pattern's stream half-step ([`crate::aa`]) is
//! the same pull gather over reversed storage slots, and its collide
//! half-step walks the same runs.

use crate::boundary::{boundary_nodes, update_bc_block};
use crate::driver::{
    advance_solo, box_guards, BlockSize, DriverBody, Fields, Frame, NodeHalo, Owned, Part, Rec,
    ScalarKernels, Sim, SlabBody, SoloBody,
};
use crate::init::{init_rows, plane_store};
use crate::multi::ring::StepCx;
use crate::multi::Slabs;
use gpu_sim::exec::{BlockCtx, Kernel, Launch, LaunchStats};
use gpu_sim::interconnect::LinkError;
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer, Gpu};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{KernelConsts, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// The ST family's node walk: what its kernels (`st-bulk`, `aa-stream`,
/// `aa-collide`) hold — the operator and the x-span `[x_lo, x_hi)` of `geom`
/// (all y, z) they update: a solo body's whole box, a shard's owned columns
/// or one of its edge strips.
pub(crate) struct NodeWalk<'a, L: Lattice, C: Collision<L>> {
    pub(crate) geom: &'a Geometry,
    pub(crate) collision: &'a C,
    pub(crate) consts: &'a KernelConsts,
    pub(crate) block_size: usize,
    x_lo: usize,
    x_hi: usize,
    _l: PhantomData<L>,
}

impl<'a, L: Lattice, C: Collision<L>> NodeWalk<'a, L, C> {
    pub(crate) fn new(
        geom: &'a Geometry,
        collision: &'a C,
        consts: &'a KernelConsts,
        block_size: usize,
        (x_lo, x_hi): (usize, usize),
    ) -> Self {
        NodeWalk {
            geom,
            collision,
            consts,
            block_size,
            x_lo,
            x_hi,
            _l: PhantomData,
        }
    }

    /// One thread slot per span node, `Q` direction-major scratch rows per
    /// block for the staged run values.
    pub(crate) fn launch(&self) -> Launch {
        let span = (self.x_hi - self.x_lo) * self.geom.ny * self.geom.nz;
        Launch {
            blocks: span.div_ceil(self.block_size),
            threads_per_block: self.block_size,
            shared_doubles: 0,
            scratch_doubles: L::Q * self.block_size,
        }
    }

    /// Block `block_id` covers span slots `[b·bs, (b+1)·bs)` in `(z, y, x)`
    /// order; `f(stid, sidx, len)` fires once per maximal run of `Fluid`
    /// nodes with consecutive indices, slot `stid + j` holding node
    /// `sidx + j`. One division places the block's first slot and rows
    /// advance by increments. A run breaks only at a node that is not
    /// `Fluid` or where the index jumps (a row change on a partial span),
    /// so on the whole box runs continue across rows.
    #[inline]
    pub(crate) fn for_each_run(&self, block_id: usize, mut f: impl FnMut(usize, usize, usize)) {
        let (nx, w, bs) = (self.geom.nx, self.x_hi - self.x_lo, self.block_size);
        let q0 = block_id * bs;
        let q1 = (q0 + bs).min(w * self.geom.ny * self.geom.nz);
        if q0 >= q1 {
            return;
        }
        let mut row = q0 / w;
        let (mut q, mut x) = (q0, self.x_lo + q0 - row * w);
        // The open run; `len == 0` when there is none.
        let (mut stid, mut sidx, mut len) = (0, 0, 0);
        while q < q1 {
            let take = (self.x_hi - x).min(q1 - q);
            let base = row * nx + x;
            for k in 0..take {
                let idx = base + k;
                let fluid = matches!(self.geom.node_at(idx), NodeType::Fluid);
                if len > 0 && !(fluid && sidx + len == idx) {
                    f(stid, sidx, len);
                    len = 0;
                }
                if fluid {
                    if len == 0 {
                        (stid, sidx) = (q - q0 + k, idx);
                    }
                    len += 1;
                }
            }
            (q, row, x) = (q + take, row + 1, self.x_lo);
        }
        if len > 0 {
            f(stid, sidx, len);
        }
    }

    /// Streaming by gather (Algorithm 1, lines 3–10) with halfway
    /// bounce-back against solid neighbors — everything up to the collision
    /// — for node `idx`, out of a lattice that stores direction `i` of a
    /// node in storage slot `slot(i)`: the identity in the two-lattice
    /// state, `OPP` in the AA pattern's even state, whose stream half-step
    /// is this pull over reversed slots. A fluid neighbor's `f_i` is read at
    /// `slot(i)·n + nidx`, the bounce-back of the node's own `f_{OPP[i]}` at
    /// `slot(OPP[i])·n + idx`. Moving-wall corrections use the hoisted
    /// [`WallGains`](lbm_core::boundary::WallGains) table.
    #[inline]
    fn pull_gather(
        &self,
        ctx: &mut BlockCtx,
        src: &GlobalBuffer<f64>,
        slot: impl Fn(usize) -> usize,
        idx: usize,
        f_loc: &mut [f64; MAX_Q],
    ) {
        let (geom, n) = (self.geom, self.geom.len());
        let (x, y, z) = geom.coords(idx);
        for i in 0..L::Q {
            let c = L::C[i];
            let own = slot(L::OPP[i]) * n + idx;
            f_loc[i] = match geom.neighbor(x, y, z, [-c[0], -c[1], -c[2]]) {
                Some((px, py, pz)) => {
                    let nidx = geom.idx(px, py, pz);
                    match geom.node_at(nidx) {
                        t if t.is_fluid_like() => ctx.read(src, slot(i) * n + nidx),
                        NodeType::Wall => ctx.read(src, own),
                        NodeType::MovingWall(uw) => {
                            ctx.read(src, own) + self.consts.gains.gain(i, uw)
                        }
                        _ => unreachable!(),
                    }
                }
                None => ctx.read(src, own),
            };
        }
    }

    /// Gather the run of `len` nodes from `sidx` out of `src` (storage slots
    /// `slot`, see [`NodeWalk::pull_gather`]) into direction-major scratch rows,
    /// `scratch[i·bs + stid + j]`, and [`NodeWalk::collide_run`] it there.
    /// Reads stay element-wise — neighbor gathers and bounce-backs are
    /// irregular.
    #[inline]
    pub(crate) fn stage_run(
        &self,
        ctx: &mut BlockCtx,
        src: &GlobalBuffer<f64>,
        slot: impl Fn(usize) -> usize + Copy,
        (stid, sidx, len): (usize, usize, usize),
    ) {
        let bs = self.block_size;
        let mut f_loc = [0.0f64; MAX_Q];
        for j in 0..len {
            self.pull_gather(ctx, src, slot, sidx + j, &mut f_loc);
            let scratch = ctx.scratch();
            for i in 0..L::Q {
                scratch[i * bs + stid + j] = f_loc[i];
            }
        }
        self.collide_run(ctx.scratch(), stid, len);
    }

    /// Collide the run staged in scratch slots `stid..stid + len`: node by
    /// node through [`Collision::collide`] when `consts.scalar` (the
    /// equivalence oracle), else through the chunk-vectorized
    /// [`Collision::collide_soa`].
    #[inline]
    pub(crate) fn collide_run(&self, scratch: &mut [f64], stid: usize, len: usize) {
        let bs = self.block_size;
        if !self.consts.scalar {
            return self.collision.collide_soa(scratch, bs, stid, len);
        }
        let mut f_loc = [0.0f64; MAX_Q];
        for t in stid..stid + len {
            for i in 0..L::Q {
                f_loc[i] = scratch[i * bs + t];
            }
            self.collision.collide(&mut f_loc[..L::Q]);
            for i in 0..L::Q {
                scratch[i * bs + t] = f_loc[i];
            }
        }
    }
}

/// Pull + collide over a span (Algorithm 1): per run of consecutive fluid
/// nodes, [`NodeWalk::stage_run`], then flush its `Q` direction rows as one
/// counted family ([`BlockCtx::write_window_from_scratch`]). Same cells,
/// same read order, same values, same per-element race checks as the
/// element-wise path — only the arithmetic is batched across the run and the store loop
/// across the span, so tallies are byte-identical (see `DESIGN.md`,
/// "Executor" and "Vectorized kernels"). Columns outside the span are read
/// (time t) but never written, and per-node arithmetic does not depend on
/// the span, so span launches covering a domain are bitwise one launch over
/// the whole box.
struct StKernel<'a, L: Lattice, C: Collision<L>> {
    walk: NodeWalk<'a, L, C>,
    src: &'a GlobalBuffer<f64>,
    dst: &'a GlobalBuffer<f64>,
}

impl<L: Lattice, C: Collision<L>> Kernel for StKernel<'_, L, C> {
    fn name(&self) -> &str {
        let walk = &self.walk;
        match walk.x_hi - walk.x_lo == walk.geom.nx {
            true => "st-bulk",
            false => "st-bulk-span",
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let (walk, dst) = (&self.walk, self.dst);
        let (n, bs) = (walk.geom.len(), walk.block_size);
        walk.for_each_run(ctx.block_id, |stid, sidx, len| {
            walk.stage_run(ctx, self.src, |i| i, (stid, sidx, len));
            ctx.write_window_from_scratch(dst, (sidx, n, L::Q, len), None, (stid, bs), false);
        });
    }
}

/// Inlet/outlet rebuild kernel (runs after the bulk kernel).
struct StBcKernel<'a, L: Lattice, C: Collision<L>> {
    dst: &'a GlobalBuffer<f64>,
    geom: &'a Geometry,
    collision: &'a C,
    nodes: &'a [(usize, usize, usize)],
    block_size: usize,
    _l: PhantomData<L>,
}

impl<L: Lattice, C: Collision<L>> Kernel for StBcKernel<'_, L, C> {
    fn name(&self) -> &str {
        "st-bc"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let (n, dst) = (self.geom.len(), self.dst);
        let read_macro = |ctx: &mut BlockCtx, idx: usize| {
            let mut rho = 0.0;
            let mut j = [0.0f64; 3];
            for i in 0..L::Q {
                let fi = ctx.read(dst, i * n + idx);
                let c = L::cf(i);
                rho += fi;
                j[0] += c[0] * fi;
                j[1] += c[1] * fi;
                j[2] += c[2] * fi;
            }
            (rho, [j[0] / rho, j[1] / rho, j[2] / rho])
        };
        let store = |ctx: &mut BlockCtx, idx: usize, m: &Moments| {
            let mut out = [0.0f64; MAX_Q];
            self.collision.reconstruct(m, &mut out[..L::Q]);
            for i in 0..L::Q {
                ctx.write(dst, i * n + idx, out[i]);
            }
        };
        let tau = self.collision.tau();
        update_bc_block::<L>(
            ctx,
            self.geom,
            tau,
            self.nodes,
            self.block_size,
            read_macro,
            store,
        );
    }
}

/// Density and velocity over an `n`-node box from populations: `nodes`
/// yields `(domain index, storage id)` of every fluid-like node and
/// `f(id, i)` reads population `i`. One pass, the sums of
/// [`Moments::from_f`] without its second moment.
pub(crate) fn population_macro_fields<L: Lattice>(
    n: usize,
    nodes: impl Iterator<Item = (usize, usize)>,
    f: impl Fn(usize, usize) -> f64,
) -> Fields {
    let mut rho_out = vec![0.0; n];
    let mut u_out = vec![[0.0; 3]; n];
    for (idx, id) in nodes {
        let mut rho = 0.0;
        let mut j = [0.0f64; 3];
        for i in 0..L::Q {
            let fi = f(id, i);
            let c = L::cf(i);
            rho += fi;
            j[0] += c[0] * fi;
            j[1] += c[1] * fi;
            j[2] += c[2] * fi;
        }
        let inv_rho = 1.0 / rho;
        rho_out[idx] = rho;
        u_out[idx] = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
    }
    (rho_out, u_out)
}

/// The fluid-like nodes of `geom` as [`population_macro_fields`] wants them
/// from a dense lattice: storage id = domain index.
pub(crate) fn fluid_like(geom: &Geometry) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..geom.len())
        .filter(|&idx| geom.node_at(idx).is_fluid_like())
        .map(|idx| (idx, idx))
}

/// The ST pattern's state: two full distribution lattices.
pub struct St<L: Lattice, C: Collision<L>> {
    geom: Geometry,
    owned: Owned,
    f: [GlobalBuffer<f64>; 2],
    cur: usize,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    boundary: Vec<(usize, usize, usize)>,
    _l: PhantomData<L>,
}

/// Driver for an ST simulation on the substrate.
pub type StSim<L, C> = Sim<St<L, C>>;

impl<L: Lattice, C: Collision<L>> StSim<L, C> {
    /// Build an ST simulation on `device` over `geom`, initialized to
    /// equilibrium at rest (inlets at their prescribed velocity).
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C) -> Self {
        let body = St::on_slab(Owned::all(&geom), geom, collision);
        if !body.boundary.is_empty() {
            assert!(body.geom.nx >= 5, "FD boundaries need nx ≥ 5");
        }
        Sim::from_body(Gpu::new(device), body)
    }
}

impl<L: Lattice, C: Collision<L>> St<L, C> {
    /// The ST state over `geom`, computing its `owned` columns — the one
    /// constructor behind [`StSim::new`] and every shard of [`crate::multi`].
    pub(crate) fn on_slab(owned: Owned, geom: Geometry, collision: C) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        let lattice = || GlobalBuffer::new(L::Q * geom.len()).with_touch_tracking();
        St {
            f: [lattice(), lattice()],
            cur: 0,
            consts: KernelConsts::new::<L>(collision.tau()),
            collision,
            block_size: 256,
            boundary: boundary_nodes(&geom),
            owned,
            geom,
            _l: PhantomData,
        }
    }

    /// Strict race checking on both lattices (tests): any cross-block
    /// overlap or stale read inside a launch panics.
    #[cfg(test)]
    pub(crate) fn set_racecheck_strict(&mut self) {
        self.f
            .iter_mut()
            .for_each(GlobalBuffer::set_racecheck_strict);
    }

    /// Distribution at a node (current state).
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let n = self.geom.len();
        let idx = self.geom.idx(x, y, z);
        (0..L::Q)
            .map(|i| self.f[self.cur].get(i * n + idx))
            .collect()
    }

    /// Moments at a node (post-collision state).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }

    /// One streaming + collision launch over columns `[x_lo, x_hi)`.
    fn update(&self, gpu: &Gpu, x_lo: usize, x_hi: usize) -> LaunchStats {
        let kernel = StKernel {
            walk: NodeWalk::<L, C>::new(
                &self.geom,
                &self.collision,
                &self.consts,
                self.block_size,
                (x_lo, x_hi),
            ),
            src: &self.f[self.cur],
            dst: &self.f[self.cur ^ 1],
        };
        gpu.launch(&kernel.walk.launch(), &kernel)
    }
}

impl<L: Lattice, C: Collision<L>> ScalarKernels for St<L, C> {
    fn set_scalar_kernels(&mut self) {
        self.consts.scalar = true;
    }
}

impl<L: Lattice, C: Collision<L>> BlockSize for St<L, C> {
    /// The block size of the update and boundary kernels.
    fn set_block_size(&mut self, bs: usize) {
        assert!(bs >= 1);
        self.block_size = bs;
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for St<L, C> {
    type Dev = Gpu;

    fn advance(&mut self, gpu: &Gpu, t: u64, rec: Rec<'_>) -> Result<(), LinkError> {
        advance_solo(self, gpu, t, rec)
    }

    fn label(&self) -> &'static str {
        "st"
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    fn init_with(
        &self,
        gpu: Option<&Gpu>,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        let store = plane_store(&self.f[self.cur], L::Q, self.geom.len(), |i| i);
        let values = |m: &Moments, f: &mut [f64]| self.collision.reconstruct(m, f);
        init_rows::<L>(gpu, &self.geom, None, field, L::Q, values, store);
    }

    fn macro_fields(&self, _t: u64) -> Fields {
        let (n, f) = (self.geom.len(), &self.f[self.cur]);
        population_macro_fields::<L>(n, fluid_like(&self.geom), |idx, i| f.get(i * n + idx))
    }

    fn footprint_bytes(&self) -> usize {
        self.f[0].size_bytes() + self.f[1].size_bytes()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.f[0].set_fault_plan(plan.clone());
        self.f[1].set_fault_plan(plan);
    }

    fn frame(&self) -> Frame {
        Frame {
            flavor: "st",
            parity: false,
            guards: box_guards(&self.geom, ("Q", L::Q)),
        }
    }

    fn state_arrays(&self, _t: u64) -> Vec<Vec<f64>> {
        vec![self.f[self.cur].snapshot()]
    }

    fn state_lens(&self) -> Vec<usize> {
        vec![self.f[0].len()]
    }

    /// The snapshot lands in buffer 0 regardless of the saved parity.
    fn install(&mut self, _t: u64, arrays: Vec<Vec<f64>>) {
        self.f[0].set_span(0, &arrays[0]);
        self.cur = 0;
    }
}

impl<L: Lattice, C: Collision<L>> SoloBody for St<L, C> {
    /// One launch per edge strip, one over the interior, then the
    /// inlet/outlet rebuild of what they wrote.
    fn launch_part(&self, gpu: &Gpu, _t: u64, part: Part, rec: Rec<'_>) {
        match part {
            Part::Strips => {
                for (lo, hi) in self.owned.strips() {
                    rec(&self.update(gpu, lo, hi));
                }
            }
            Part::Interior => {
                if let Some((lo, hi)) = self.owned.interior() {
                    rec(&self.update(gpu, lo, hi));
                }
            }
            Part::Boundary if self.boundary.is_empty() => {}
            Part::Boundary => {
                rec(&gpu.launch(
                    &Launch::simple(
                        self.boundary.len().div_ceil(self.block_size),
                        self.block_size,
                    ),
                    &StBcKernel::<L, C> {
                        dst: &self.f[self.cur ^ 1],
                        geom: &self.geom,
                        collision: &self.collision,
                        nodes: &self.boundary,
                        block_size: self.block_size,
                        _l: PhantomData,
                    },
                ));
            }
        }
    }

    fn flip(&mut self) {
        self.cur ^= 1;
    }
}

impl<L: Lattice, C: Collision<L>> SlabBody for St<L, C> {
    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame) {
        let frame = Frame {
            flavor: "multi-st",
            parity: false,
            guards: box_guards(global, ("Q", L::Q)),
        };
        (frame.flavor, frame)
    }
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError> {
        slabs.two_phase(cx)
    }
}

impl<L: Lattice, C: Collision<L>> NodeHalo for St<L, C> {
    const HALO: usize = L::Q;

    fn send_nodes(&self, to: &Self, _t: u64, pairs: &[(usize, usize)]) {
        let (sn, dn) = (self.geom.len(), to.geom.len());
        let (sf, df) = (&self.f[self.cur ^ 1], &to.f[to.cur ^ 1]);
        for &(si, di) in pairs {
            for i in 0..L::Q {
                df.set(i * dn + di, sf.get(i * sn + si));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_core::Solver;
    use lbm_lattice::{D2Q9, D3Q19};

    /// The substrate ST solver must match the reference CPU solver exactly
    /// (same arithmetic, same order): 2D channel with BGK.
    #[test]
    fn matches_reference_2d_channel() {
        let geom = Geometry::channel_2d(16, 10, 0.04);
        let mut gpu_sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(4);
        let mut reference: Solver<D2Q9, _> = Solver::new(geom, Bgk::new(0.8)).with_threads(2);
        gpu_sim.run(25);
        reference.run(25);
        let (ug, ur) = (gpu_sim.velocity_field(), reference.velocity_field());
        for (a, b) in ug.iter().zip(&ur) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-13, "{a:?} vs {b:?}");
            }
        }
        let (rg, rr) = (gpu_sim.density_field(), reference.density_field());
        for (a, b) in rg.iter().zip(&rr) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    /// Same in 3D with projective regularization.
    #[test]
    fn matches_reference_3d_channel() {
        let geom = Geometry::channel_3d(12, 7, 7, 0.03);
        let mut gpu_sim: StSim<D3Q19, _> =
            StSim::new(DeviceSpec::mi100(), geom.clone(), Projective::new(0.7)).with_cpu_threads(4);
        let mut reference: Solver<D3Q19, _> =
            Solver::new(geom, Projective::new(0.7)).with_threads(2);
        gpu_sim.run(15);
        reference.run(15);
        let (ug, ur) = (gpu_sim.velocity_field(), reference.velocity_field());
        for (a, b) in ug.iter().zip(&ur) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-13);
            }
        }
    }

    /// Measured B/F on a periodic box reproduces Table 2's 2Q·8 exactly
    /// (no boundary kernel, every read unique).
    #[test]
    fn measured_bpf_matches_table2_2d() {
        let geom = Geometry::periodic_2d(32, 16);
        let mut sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.9)).with_cpu_threads(2);
        sim.run(3);
        let bpf = sim.measured_bpf();
        assert!((bpf - 144.0).abs() < 1e-9, "B/F = {bpf}");
    }

    #[test]
    fn measured_bpf_matches_table2_3d() {
        let geom = Geometry::periodic_3d(12, 8, 8);
        let mut sim: StSim<D3Q19, _> =
            StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.9)).with_cpu_threads(2);
        sim.run(2);
        let bpf = sim.measured_bpf();
        assert!((bpf - 304.0).abs() < 1e-9, "B/F = {bpf}");
    }

    /// Channel B/F: slightly above 2Q·8 because of the boundary kernel, but
    /// within a few percent at moderate sizes.
    #[test]
    fn channel_bpf_near_ideal() {
        let geom = Geometry::channel_2d(48, 24, 0.04);
        let mut sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8)).with_cpu_threads(2);
        sim.run(3);
        let bpf = sim.measured_bpf();
        assert!(bpf > 130.0 && bpf < 160.0, "B/F = {bpf}");
    }

    /// macro_fields is a single-pass equivalent of the per-node accessors.
    #[test]
    fn macro_fields_matches_per_node_accessors() {
        let geom = Geometry::channel_2d(16, 10, 0.04);
        let mut sim: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8)).with_cpu_threads(2);
        sim.run(5);
        let (rho, u) = sim.macro_fields();
        for idx in 0..sim.geom().len() {
            let (x, y, z) = sim.geom().coords(idx);
            if sim.geom().node_at(idx).is_fluid_like() {
                let m = sim.moments_at(x, y, z);
                assert_eq!(rho[idx], m.rho);
                assert_eq!(u[idx], m.u);
            } else {
                assert_eq!(rho[idx], 0.0);
                assert_eq!(u[idx], [0.0; 3]);
            }
        }
    }

    /// Footprint is two full lattices: 2Q doubles per node.
    #[test]
    fn footprint_is_two_lattices() {
        let geom = Geometry::periodic_2d(10, 10);
        let sim: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
        assert_eq!(sim.footprint_bytes(), 2 * 9 * 100 * 8);
    }

    /// The node walk's ragged cases under the strict race checker: rows of
    /// `nx ∈ {3, 5, 33}` through half rock under a moving lid, in blocks of
    /// 7 so rows and runs cross block ends — solo, and on three shards for
    /// the two-lattice and the in-place state — land on the unchecked
    /// one-thread fields.
    #[test]
    fn node_walk_is_racecheck_clean_on_ragged_spans() {
        use crate::aa::AaSt;
        use crate::multi::slabs::checks;
        use crate::multi::{MultiAaStSim, MultiStSim};
        let init: checks::Init = |x, y, _| (1.0 + 0.01 * ((x + 2 * y) as f64).sin(), [0.0; 3]);
        for nx in [3, 5, 33] {
            let mut geom = Geometry::walls_y_periodic_x(nx, 9);
            for idx in nx..7 * nx + nx {
                let (x, y, _) = geom.coords(idx);
                let h = (x * 7919 + y * 104_729 + 17).wrapping_mul(2_654_435_761);
                if (h >> 7) % 100 < 50 {
                    geom.set(x, y, 0, NodeType::Wall);
                }
            }
            for x in 0..nx {
                geom.set(x, 8, 0, NodeType::MovingWall([0.05, 0.0, 0.0]));
            }
            let solo = |threads: usize, strict: bool| {
                let mut sim: StSim<D2Q9, _> =
                    StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8))
                        .with_block_size(7)
                        .with_cpu_threads(threads)
                        .with_parallel_threshold(0);
                if strict {
                    sim.body.set_racecheck_strict();
                }
                sim.init_with(init);
                sim.run(6);
                sim.field_checksum()
            };
            assert_eq!(solo(3, true), solo(1, false), "nx = {nx}");
            checks::racecheck_clean(
                || {
                    MultiStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8), 3)
                        .with_block_size(7)
                },
                St::set_racecheck_strict,
                init,
                6,
                6,
            );
            checks::racecheck_clean(
                || {
                    MultiAaStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8), 3)
                        .with_block_size(7)
                },
                AaSt::set_racecheck_strict,
                init,
                6,
                6,
            );
        }
    }

    /// Executor determinism: the same simulation under 1, 3, and 8 CPU
    /// threads produces bitwise-identical populations and an identical
    /// traffic tally — block scheduling (including dynamic stealing in the
    /// persistent pool) must be invisible to both physics and accounting.
    #[test]
    fn executor_determinism_across_thread_counts() {
        let run = |threads: usize| {
            let geom = Geometry::channel_2d(20, 11, 0.04);
            let mut sim: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8))
                .with_cpu_threads(threads)
                .with_parallel_threshold(0) // force pooled dispatch at any size
                .with_block_size(32); // 7 ragged blocks
            sim.run(8);
            let mut f = Vec::new();
            for idx in 0..sim.geom().len() {
                let (x, y, z) = sim.geom().coords(idx);
                f.extend(sim.f_at(x, y, z));
            }
            (f, sim.traffic())
        };
        let base = run(1);
        for threads in [3, 8] {
            let got = run(threads);
            assert!(
                base.0.iter().zip(&got.0).all(|(a, b)| a == b),
                "fields diverge at {threads} threads"
            );
            assert_eq!(base.1, got.1, "tally diverges at {threads} threads");
        }
    }

    /// The span-staged store path must be bitwise- and tally-transparent
    /// against an element-wise oracle: per fluid node, gather + collide +
    /// `Q` element stores.
    #[test]
    fn span_store_path_matches_element_oracle() {
        let geom = Geometry::cavity_2d(13, 0.05);
        let n = geom.len();
        let q = <D2Q9 as Lattice>::Q;
        let vals: Vec<f64> = (0..q * n).map(|i| 1.0 + (i as f64) * 1e-4).collect();
        let collision = Bgk::new(0.8);
        let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(3);
        let (bs, blocks) = (32, n.div_ceil(32));
        let consts = KernelConsts::new::<D2Q9>(Collision::<D2Q9>::tau(&collision));
        let walk = || NodeWalk::new(&geom, &collision, &consts, bs, (0, geom.nx));

        struct ElementOracle<'a> {
            walk: NodeWalk<'a, D2Q9, Bgk>,
            src: &'a GlobalBuffer<f64>,
            dst: &'a GlobalBuffer<f64>,
        }
        impl Kernel for ElementOracle<'_> {
            fn name(&self) -> &str {
                "st-bulk-element"
            }
            fn run_block(&self, ctx: &mut BlockCtx) {
                let (geom, bs) = (self.walk.geom, self.walk.block_size);
                let n = geom.len();
                let mut f_loc = [0.0f64; MAX_Q];
                for idx in (ctx.block_id * bs..(ctx.block_id + 1) * bs).take_while(|&i| i < n) {
                    if matches!(geom.node_at(idx), NodeType::Fluid) {
                        self.walk.pull_gather(ctx, self.src, |i| i, idx, &mut f_loc);
                        Collision::<D2Q9>::collide(self.walk.collision, &mut f_loc[..9]);
                        for i in 0..9 {
                            ctx.write(self.dst, i * n + idx, f_loc[i]);
                        }
                    }
                }
            }
        }

        let src_a = GlobalBuffer::from_vec(vals.clone()).with_touch_tracking();
        let dst_a: GlobalBuffer<f64> = GlobalBuffer::new(q * n).with_touch_tracking();
        let span_stats = gpu.launch(
            &walk().launch(),
            &StKernel::<D2Q9, _> {
                walk: walk(),
                src: &src_a,
                dst: &dst_a,
            },
        );

        let src_b = GlobalBuffer::from_vec(vals).with_touch_tracking();
        let dst_b: GlobalBuffer<f64> = GlobalBuffer::new(q * n).with_touch_tracking();
        let elem_stats = gpu.launch(
            &Launch::simple(blocks, bs),
            &ElementOracle {
                walk: walk(),
                src: &src_b,
                dst: &dst_b,
            },
        );

        assert_eq!(
            span_stats.tally, elem_stats.tally,
            "span staging must not change the traffic accounting"
        );
        assert_eq!(
            dst_a.snapshot(),
            dst_b.snapshot(),
            "span staging must be bitwise-transparent"
        );
    }
}

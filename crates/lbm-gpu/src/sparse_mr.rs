//! Sparse (indirect-addressing) moment-representation driver.
//!
//! The MR byte reduction (store `M` moments instead of `Q` populations)
//! compounds with fluid-only compaction: a porous domain stores `M·8`
//! bytes per *fluid* node plus the `u32` link table, instead of `Q·8` per
//! bounding-box node twice over. Per fluid update the byte ledger is
//!
//! ```text
//!   B/F = 2M·8 + Q·4        (132 for D2Q9, 236 for D3Q19)
//! ```
//!
//! — `M` moment reads + `M` moment writes per node (a single-device moment
//! lattice is single-copy, updated in place under lockstep phases) plus one
//! `u32` link read per direction. Compare sparse ST's `2Q·8 + Q·4` (180/380)
//! and dense MR's `2M·8` (96/160).
//!
//! The update is the *pull-form* mirror of the dense MR drivers'
//! push-form scatter: for each direction the kernel follows the
//! precompiled link to the upstream node, takes that node's post-collision
//! population (recomputed from its time-`t` moments — in-cache work, traded
//! for the second lattice), and reduces the gathered populations straight
//! to time-`t+1` moments. Links encode halfway bounce-back exactly as the
//! dense scatter does (a wall link points at the node's own opposite
//! direction), so on the shared fluid nodes the arithmetic — and therefore
//! the trajectory — is **bitwise identical** to the dense MR drivers.
//!
//! One persistent block per SM (at most one per tile) walks a contiguous
//! range of tiles. Per tile it loads tile + [`HaloDirectory`] moments into
//! one SoA slab, reused tile after tile, collides all of them in `LANES`
//! chunks, and gathers through links that address the slab: at build every
//! active link is re-encoded in place as `d·n + j` (direction `d` of slab
//! column `j`, `n = len + halo`), so the gather is `shared[link]`. The
//! table keeps its size and counted reads, so the byte ledger is unchanged.
//!
//! One grid-wide lockstep barrier separates the gather (phase 0, reads
//! only) from the in-place write-back (phase 1), so a single moment
//! lattice suffices. Only the staged new moments of the block's tiles
//! persist across it, in block scratch ahead of the slab's moment rows.

use crate::driver::{
    advance_solo, box_guards, DriverBody, Fields, Frame, NodeHalo, Owned, Part, Rec, ScalarKernels,
    Sim, SlabBody, SoloBody,
};
use crate::init::{init_rows, plane_store};
use crate::multi::ring::StepCx;
use crate::multi::Slabs;
use crate::scheme::MrScheme;
use crate::sparse::{compact, FluidIndex, SparseBuildError};
use gpu_sim::exec::{BlockCtx, Launch, PhasedKernel};
use gpu_sim::interconnect::LinkError;
use gpu_sim::{DeviceSpec, GlobalBuffer, Gpu};
use lbm_core::geometry::Geometry;
use lbm_core::kernels::{self, LaneBlock, LANES, MAX_M, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::{Lattice, D2Q9, D3Q19};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Per-tile halo directory: for every tile of a [`FluidIndex`], the sorted
/// distinct compact ids *outside* the tile's storage span `lo..hi` that the
/// links of its active nodes pull from. Built once from the link table
/// (after ghost-column nodes left the active lists), it tells a block which
/// foreign moments to load before it starts gathering.
pub struct HaloDirectory {
    /// Tile `b`'s halo ids are `ids[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    ids: Vec<u32>,
    /// Largest `stored span + halo count` of any tile: the per-block slab
    /// holds that many nodes.
    slab_nodes: usize,
}

impl HaloDirectory {
    /// Walk the links of every tile's active nodes in `table` (the
    /// [`crate::sparse::build_neighbor_table`] of `index` for lattice `L`:
    /// `i·nf + p`, or `OPP[i]·nf + self` for a bounce-back), and re-encode
    /// them in place, tile by tile, as slab addresses `d·n + j`: `n = len +
    /// halo` is the tile's slab width and `j` the slab column of `p` —
    /// `p − lo` inside the tile's span, `len + k` for its `k`-th halo id.
    pub fn localize<L: Lattice>(index: &FluidIndex, table: &GlobalBuffer<u32>) -> Self {
        let nf = index.len();
        assert_eq!(table.len(), L::Q * nf, "link table does not match index");
        let mut starts = Vec::with_capacity(index.tiles().len() + 1);
        let (mut ids, mut halo, mut col) = (Vec::new(), Vec::new(), vec![0u32; nf]);
        let mut slab_nodes = 0;
        starts.push(0);
        // Direction-`i` link of `cid`: its upstream id, `≥ nf` for a
        // bounce-back (which pulls the node itself).
        let upstream =
            |i: usize, cid: u32| (table.get(i * nf + cid as usize) as usize).wrapping_sub(i * nf);
        for tile in index.tiles() {
            let (lo, hi) = (tile.lo as usize, tile.hi as usize);
            // Branch-free on random rock: every link is stored, and only a
            // foreign fluid one advances the end.
            halo.resize(L::Q * tile.active.len() + 1, 0);
            let mut end = 0;
            for i in 0..L::Q {
                for &cid in &tile.active {
                    let e = upstream(i, cid);
                    halo[end] = e as u32;
                    end += usize::from(e < nf && !(lo..hi).contains(&e));
                }
            }
            halo.truncate(end);
            halo.sort_unstable();
            halo.dedup();
            let n = hi - lo + halo.len();
            let slab = (lo..hi).chain(halo.iter().map(|&p| p as usize));
            slab.enumerate().for_each(|(j, p)| col[p] = j as u32);
            for i in 0..L::Q {
                for &cid in &tile.active {
                    let e = upstream(i, cid);
                    let d = if e < nf { i } else { L::OPP[i] };
                    let p = if e < nf { e } else { cid as usize };
                    let link = d * n + col[p] as usize;
                    assert!(link < L::Q * n, "link {link} outside the slab");
                    table.set(i * nf + cid as usize, link as u32);
                }
            }
            slab_nodes = slab_nodes.max(n);
            ids.extend_from_slice(&halo);
            starts.push(ids.len() as u32);
        }
        HaloDirectory {
            starts,
            ids,
            slab_nodes,
        }
    }

    /// Halo ids of tile `b`, ascending.
    pub fn tile(&self, b: usize) -> &[u32] {
        &self.ids[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

/// The tiles block `b` of `blocks` walks out of `tiles`: contiguous, sizes
/// differing by at most one.
fn block_tiles(b: usize, blocks: usize, tiles: usize) -> Range<usize> {
    b * tiles / blocks..(b + 1) * tiles / blocks
}

/// Two-phase pull kernel: each block walks its [`block_tiles`].
///
/// * **Phase 0**, per tile — load the moment rows of the tile and of its
///   halo directory into one SoA slab (`n = len + halo` nodes) in the
///   scratch tail, as one strided family for the tile and one per halo
///   node, collide all `n` into shared memory (vectorized lane
///   chunks or the scalar reference, bitwise-identical), read the active
///   nodes' slab links, gather their populations and stage each active
///   node's new moments in block scratch, after the previous tile's.
/// * **Phase 1** — after the grid-wide barrier, write every tile's staged
///   moments back in place, one span per run of consecutive active ids.
///
/// Reads all happen in phase 0 and writes in phase 1 with each cell
/// written by exactly one block, so the kernel passes strict race
/// checking.
struct SparseMrKernel<'a, L: Lattice> {
    body: &'a SparseMr<L>,
    /// Time-`t` moments (all reads go here).
    src: &'a GlobalBuffer<f64>,
    /// Time-`t+1` moments (all writes go here): `src` again for an in-place
    /// body — safe under the lockstep barrier — and the other buffer where
    /// an exchange follows the launch, so a failed one can retry the whole
    /// step from unmodified `src`.
    dst: &'a GlobalBuffer<f64>,
}

impl<L: Lattice> SparseMrKernel<'_, L> {
    /// Post-collision populations of the slab's `n` nodes: moment rows
    /// `scratch[tail + m·n + j]` → `shared[i·n + j]`. The lane chunks are
    /// the same `lbm_core::kernels` paths the dense MR drivers run (at
    /// `ω = 1 − 1/τ`, the f64 the scalar path recomputes); the scalar
    /// reference goes node by node through `collide_and_map`.
    fn collide_slab(&self, n: usize, tail: usize, out: &mut LaneBlock, ctx: &mut BlockCtx) {
        let (scheme, tau) = (&self.body.scheme, self.body.tau);
        let (shared, scratch) = ctx.shared_and_scratch();
        let moms = &scratch[tail..][..L::M * n];
        if self.body.scalar {
            let mut mm = [0.0f64; MAX_M];
            let mut fstar = [0.0f64; MAX_Q];
            for j in 0..n {
                for m in 0..L::M {
                    mm[m] = moms[m * n + j];
                }
                let node = Moments::unpack::<L>(&mm[..L::M]);
                scheme.collide_and_map::<L>(&node, tau, &mut fstar[..L::Q]);
                for i in 0..L::Q {
                    shared[i * n + j] = fstar[i];
                }
            }
            return;
        }
        let all = kernels::dirs_all::<L>();
        for j0 in (0..n).step_by(LANES) {
            scheme.collide_chunk::<L>(moms, n, j0, 1.0 - 1.0 / tau, all, out);
            let cnt = LANES.min(n - j0);
            for i in 0..L::Q {
                shared[i * n + j0..][..cnt].copy_from_slice(&out[i][..cnt]);
            }
        }
    }

    /// New moments of `LANES` active nodes whose gathered populations sit
    /// in `f` (`cnt` valid lanes), staged at slot `s0` of the `alen`-strided
    /// rows in `stage`.
    fn reduce_chunk(&self, f: &LaneBlock, cnt: usize, stage: &mut [f64], alen: usize, s0: usize) {
        if !self.body.scalar {
            kernels::moments_from_f_lanes::<L>(&f[..L::Q], stage, alen, s0);
            return;
        }
        let mut f_loc = [0.0f64; MAX_Q];
        let mut mm = [0.0f64; MAX_M];
        for l in 0..cnt {
            for i in 0..L::Q {
                f_loc[i] = f[i][l];
            }
            Moments::from_f::<L>(&f_loc[..L::Q]).pack::<L>(&mut mm[..L::M]);
            for m in 0..L::M {
                stage[m * alen + s0 + l] = mm[m];
            }
        }
    }

    /// Phase 0 of tile `b`: its new moments land in the `M` rows of
    /// `active.len()` slots at scratch offset `stage`, its slab's moment
    /// rows past the staged rows of the fullest block. `links` (`Q` rows of
    /// at least that many slots) and `f` are the block's reusable buffers.
    fn update_tile(
        &self,
        b: usize,
        stage: usize,
        (links, f): (&mut [u32], &mut LaneBlock),
        ctx: &mut BlockCtx,
    ) {
        let (nf, tail) = (self.body.index.len(), L::M * self.body.stage_nodes);
        let (tile, halo) = (&self.body.index.tiles()[b], self.body.halo.tile(b));
        let (lo, len) = (tile.lo as usize, (tile.hi - tile.lo) as usize);
        let (active, alen, n) = (&tile.active[..], tile.active.len(), len + halo.len());

        // Step 1: moment rows of tile + halo → scratch[tail + m·n + j]
        // (counted reads: every stored node of the tile once, every halo
        // node once per tile that pulls from it — repeats across tiles are
        // L2 hits under touch tracking, so the DRAM ledger stays
        // `M·8 + Q·4` read + `M·8` written per fluid node). The tile is one
        // strided family of `M` rows, and each halo node one of `M` single
        // cells: one accounting envelope per family, not per cell.
        ctx.read_window_to_scratch(self.src, (lo, nf, L::M, len), None, (tail, n), false);
        for (k, &p) in halo.iter().enumerate() {
            let (node, at) = ((p as usize, nf, L::M, 1), tail + len + k);
            ctx.read_window_to_scratch(self.src, node, None, (at, n), false);
        }

        // Step 2: post-collision populations of all n nodes → shared.
        self.collide_slab(n, tail, f, ctx);

        // Step 3: the active nodes' slab links, one counted span per
        // direction and run of consecutive ids → links[i·alen + slot].
        for run in tile.active_runs() {
            let cid = active[run.start] as usize;
            for i in 0..L::Q {
                let row = &mut links[i * alen..][run.clone()];
                ctx.read_span(&self.body.table, i * nf + cid, row);
            }
        }

        // Step 4: gather LANES active nodes at a time out of the slab and
        // reduce them to new moments in the staged rows.
        let (shared, scratch) = ctx.shared_and_scratch();
        let (slab, rows) = (&shared[..L::Q * n], &mut scratch[stage..][..L::M * alen]);
        for s0 in (0..alen).step_by(LANES) {
            let cnt = LANES.min(alen - s0);
            kernels::gather_lanes::<L>(slab, links, alen, s0, cnt, f);
            self.reduce_chunk(f, cnt, rows, alen, s0);
        }
    }
}

impl<L: Lattice> PhasedKernel for SparseMrKernel<'_, L> {
    fn name(&self) -> &str {
        "mr-sparse"
    }

    fn phases(&self) -> usize {
        2
    }

    fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
        let (tiles, nf) = (self.body.index.tiles(), self.body.index.len());
        let walk = block_tiles(ctx.block_id, self.body.blocks, tiles.len());
        let most = tiles[walk.clone()].iter().map(|t| t.active.len()).max();
        let len = if phase == 0 {
            L::Q * most.unwrap_or(0)
        } else {
            0
        };
        let (mut links, mut f) = (vec![0u32; len], [[0.0; LANES]; MAX_Q]);
        // The staged rows of the block's tiles, back to back from scratch
        // offset 0: `M` rows of `active.len()` slots per tile.
        let mut stage = 0;
        for b in walk {
            let (tile, alen) = (&tiles[b], tiles[b].active.len());
            if phase == 0 {
                self.update_tile(b, stage, (&mut links, &mut f), ctx);
            } else {
                // Write-back, one family of `M` spans per run of active ids.
                for run in tile.active_runs() {
                    let cid = tile.active[run.start] as usize;
                    let family = (cid, nf, L::M, run.len());
                    let from = (stage + run.start, alen);
                    ctx.write_window_from_scratch(self.dst, family, None, from, false);
                }
            }
            stage += L::M * alen;
        }
    }
}

/// The sparse moment representation's state: a moment lattice of `M` doubles
/// per fluid node, updated in place, plus the `u32` link table.
pub struct SparseMr<L: Lattice> {
    geom: Geometry,
    index: FluidIndex,
    /// The links, as slab addresses (see [`HaloDirectory::localize`]).
    table: GlobalBuffer<u32>,
    halo: HaloDirectory,
    /// Launch grid: one block per SM, at most one per tile.
    blocks: usize,
    /// Most active nodes any block stages across the barrier.
    stage_nodes: usize,
    mom: GlobalBuffer<f64>,
    /// Second lattice of a body with ghost columns (odd steps read it and
    /// write `mom`): its step is an update *then* an exchange, and a failed
    /// transfer must find time `t` untouched to be retried bitwise.
    mom2: Option<GlobalBuffer<f64>>,
    scheme: MrScheme,
    tau: f64,
    scalar: bool,
    _l: PhantomData<L>,
}

/// Driver for the sparse (fluid-compacted, indirect-addressing)
/// moment-representation simulation.
pub type SparseMrSim<L> = Sim<SparseMr<L>>;
/// Sparse MR on the D2Q9 lattice (M = 6: B/F 132 vs dense MR's 96).
pub type SparseMrSim2D = SparseMrSim<D2Q9>;
/// Sparse MR on the D3Q19 lattice (M = 10: B/F 236 vs dense MR's 160).
pub type SparseMrSim3D = SparseMrSim<D3Q19>;

impl<L: Lattice> SparseMrSim<L> {
    /// Build a sparse MR simulation, panicking on an unsupported geometry.
    /// Use [`SparseMrSim::try_new`] where build failures must be handled.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64) -> Self {
        Self::try_new(device, geom, scheme, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a sparse MR simulation. The geometry may contain only
    /// fluid/wall/periodic nodes (no inlet/outlet/moving walls).
    pub fn try_new(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
    ) -> Result<Self, SparseBuildError> {
        let sms = device.sm_count as usize;
        let body = SparseMr::on_slab(Owned::all(&geom), geom, scheme, tau, sms)?;
        Ok(Sim::from_body(Gpu::new(device), body))
    }

    /// Attach the substrate's race checker to the moment lattice. The
    /// two-phase kernel reads strictly before it writes, so even the
    /// strict checker stays quiet.
    pub fn with_racecheck_strict(mut self) -> Self {
        assert_eq!(self.steps(), 0, "attach the race checker before stepping");
        self.body.set_racecheck_strict();
        self
    }
}

impl<L: Lattice> SparseMr<L> {
    /// The sparse MR state over `geom`, updating the fluid nodes of its
    /// `owned` columns on a device of `sms` SMs — the one constructor
    /// behind [`SparseMrSim::try_new`] and every shard of [`crate::multi`].
    pub(crate) fn on_slab(
        owned: Owned,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        sms: usize,
    ) -> Result<Self, SparseBuildError> {
        let (index, table) = compact::<L>(&geom, owned)?;
        let halo = HaloDirectory::localize::<L>(&index, &table);
        let tiles = index.tiles();
        let blocks = tiles.len().min(sms);
        let staged = |b| tiles[block_tiles(b, blocks, tiles.len())].iter();
        let stage_nodes = (0..blocks).map(|b| staged(b).map(|t| t.active.len()).sum());
        let stage_nodes = stage_nodes.max().unwrap_or(0);
        let lattice = || GlobalBuffer::new(L::M * index.len()).with_touch_tracking();
        Ok(SparseMr {
            halo,
            blocks,
            stage_nodes,
            mom: lattice(),
            mom2: (owned.ghost_l || owned.ghost_r).then(lattice),
            geom,
            index,
            table,
            scheme,
            tau,
            scalar: false,
            _l: PhantomData,
        })
    }

    /// See [`SparseMrSim::with_racecheck_strict`].
    pub(crate) fn set_racecheck_strict(&mut self) {
        self.mom.set_racecheck_strict();
        if let Some(m2) = &mut self.mom2 {
            m2.set_racecheck_strict();
        }
    }

    /// The fluid-node compaction.
    pub fn index(&self) -> &FluidIndex {
        &self.index
    }

    /// The collision scheme.
    pub fn scheme(&self) -> &MrScheme {
        &self.scheme
    }

    /// The lattices step `t` reads and writes.
    fn lattice_pair(&self, t: u64) -> (&GlobalBuffer<f64>, &GlobalBuffer<f64>) {
        match &self.mom2 {
            None => (&self.mom, &self.mom),
            Some(m2) if t.is_multiple_of(2) => (&self.mom, m2),
            Some(m2) => (m2, &self.mom),
        }
    }
}

impl<L: Lattice> ScalarKernels for SparseMr<L> {
    fn set_scalar_kernels(&mut self) {
        self.scalar = true;
    }
}

impl<L: Lattice> DriverBody for SparseMr<L> {
    type Dev = Gpu;

    fn advance(&mut self, gpu: &Gpu, t: u64, rec: Rec<'_>) -> Result<(), LinkError> {
        advance_solo(self, gpu, t, rec)
    }

    fn label(&self) -> &'static str {
        "sparse-mr"
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// Every fluid node's start moments — the start of the dense MR
    /// drivers, so shared fluid nodes begin bitwise-equal.
    fn init_with(
        &mut self,
        threads: usize,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        let store = plane_store(&self.mom, L::M, self.index.len(), |m| m);
        let pack = |m: &Moments, p: &mut [f64]| m.pack::<L>(p);
        let ids = Some(&self.index.nodes[..]);
        init_rows::<L>(&self.geom, ids, threads, field, L::M, pack, store);
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let (nf, mom) = (self.index.len(), self.lattice_pair(t).0);
        let mut rho_out = vec![0.0; self.geom.len()];
        let mut u_out = vec![[0.0; 3]; self.geom.len()];
        for (cid, &idx) in self.index.nodes.iter().enumerate() {
            rho_out[idx] = mom.get(cid);
            for a in 0..L::D {
                u_out[idx][a] = mom.get((1 + a) * nf + cid);
            }
        }
        (rho_out, u_out)
    }

    /// The compacted moment lattices plus the link table — `M·8 + Q·4`
    /// bytes per fluid node in place.
    fn footprint_bytes(&self) -> usize {
        let mom2 = self.mom2.as_ref().map_or(0, GlobalBuffer::size_bytes);
        self.mom.size_bytes() + mom2 + self.table.size_bytes()
    }

    fn set_fault_plan(&mut self, plan: Arc<gpu_sim::FaultPlan>) {
        if let Some(m2) = &mut self.mom2 {
            m2.set_fault_plan(plan.clone());
        }
        self.mom.set_fault_plan(plan);
    }

    /// Publishes the walk as `sparse_mr_walk{stat}`: `tiles_per_block`, and
    /// `collided_per_fluid` — slab nodes collided per updated fluid node,
    /// the halo recompute.
    fn hub_attached(&self, obs: &obs::Obs) {
        let tiles = self.index.tiles();
        let spans: usize = tiles.iter().map(|t| (t.hi - t.lo) as usize).sum();
        let collided = (spans + self.halo.ids.len()) as f64 / self.index.active_len() as f64;
        for (stat, v) in [
            ("tiles_per_block", tiles.len() as f64 / self.blocks as f64),
            ("collided_per_fluid", collided),
        ] {
            let labels = [("pattern", self.label()), ("stat", stat)];
            obs.metrics.gauge_set("sparse_mr_walk", &labels, v);
        }
    }

    fn frame(&self) -> Frame {
        let mut guards = box_guards(&self.geom, ("M", L::M));
        guards.push(("fluid nodes", self.index.len() as u64));
        Frame {
            flavor: "sparse-mr",
            parity: false,
            guards,
        }
    }

    /// The live lattice: all there is in place, all that matters of a
    /// double buffer (the layout does not depend on `t`).
    fn state_arrays(&self, t: u64) -> Vec<Vec<f64>> {
        vec![self.lattice_pair(t).0.snapshot()]
    }

    fn state_lens(&self) -> Vec<usize> {
        vec![self.mom.len()]
    }

    fn install(&mut self, t: u64, arrays: Vec<Vec<f64>>) {
        self.lattice_pair(t).0.set_span(0, &arrays[0]);
    }
}

impl<L: Lattice> SoloBody for SparseMr<L> {
    /// One two-phase lockstep launch, one block per SM over every tile;
    /// measured B/F is `2M·8 + Q·4` (132 for D2Q9, 236 for D3Q19). Like
    /// sparse ST's, it is the part that precedes an exchange.
    fn launch_part(&self, gpu: &Gpu, t: u64, part: Part, rec: Rec<'_>) {
        if part != Part::Strips {
            return;
        }
        let (src, dst) = self.lattice_pair(t);
        let slab = self.halo.slab_nodes;
        let cfg = Launch {
            blocks: self.blocks,
            threads_per_block: self.index.tile_capacity().max(1),
            shared_doubles: L::Q * slab,
            scratch_doubles: L::M * (self.stage_nodes + slab),
        };
        let kernel = SparseMrKernel {
            body: self,
            src,
            dst,
        };
        rec(&gpu.launch_lockstep(&cfg, &kernel));
    }
}

impl<L: Lattice> SlabBody for SparseMr<L> {
    const OVERLAP_IN_BLOB: bool = false;

    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame) {
        let frame = Frame {
            flavor: "multi-sparse-mr",
            parity: false,
            guards: box_guards(global, ("M", L::M)),
        };
        (frame.flavor, frame)
    }
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError> {
        slabs.two_phase(cx)
    }
}

impl<L: Lattice> NodeHalo for SparseMr<L> {
    const HALO: usize = L::M;

    fn send_nodes(&self, to: &Self, t: u64, pairs: &[(usize, usize)]) {
        let (sn, dn) = (self.index.len(), to.index.len());
        let (sm, dm) = (self.lattice_pair(t).1, to.lattice_pair(t).1);
        for &(si, di) in pairs {
            for m in 0..L::M {
                dm.set(m * dn + di, sm.get(m * sn + si));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::build_neighbor_table;
    use crate::MrSim2D;
    use lbm_core::geometry::NodeType;

    fn obstacle_2d() -> Geometry {
        Geometry::walls_y_periodic_x(20, 12).with_cylinder(8.5, 5.5, 2.4)
    }

    fn shear(_x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (1.0, [0.04 * (y as f64 * 0.55).sin(), 0.0, 0.0])
    }

    /// The tentpole equivalence: sparse MR is bitwise-equal to dense MR on
    /// the shared fluid nodes (pull-form links reproduce the push-form
    /// scatter exactly), for both collision schemes.
    #[test]
    fn bitwise_equal_to_dense_mr_on_obstacle() {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let geom = obstacle_2d();
            let mut dense: MrSim2D<D2Q9> =
                MrSim2D::new(DeviceSpec::v100(), geom.clone(), scheme.clone(), 0.8)
                    .with_cpu_threads(2);
            dense.init_with(shear);
            let mut sparse: SparseMrSim2D =
                SparseMrSim::new(DeviceSpec::v100(), geom, scheme, 0.8).with_cpu_threads(2);
            sparse.init_with(shear);
            dense.run(12);
            sparse.run(12);
            assert_eq!(
                dense.field_checksum(),
                sparse.field_checksum(),
                "sparse MR must be bitwise-equal to dense MR"
            );
        }
    }

    /// Walls in y, periodic in x, and roughly `pct` % of the interior
    /// turned to rock by a coordinate hash.
    fn rock(nx: usize, ny: usize, nz: usize, pct: usize) -> Geometry {
        let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
        for idx in 0..g.len() {
            let (x, y, z) = g.coords(idx);
            let h = (x * 7919 + y * 104_729 + z * 1_299_709 + 17).wrapping_mul(2_654_435_761);
            if y == 0 || y == ny - 1 || (h >> 7) % 100 < pct {
                g.set(x, y, z, NodeType::Wall);
            }
        }
        g
    }

    /// The directory's cases: an obstacle and two rocks on default and
    /// custom tiles, a 3D rock, and a ghost-filtered index as the sharded
    /// build leaves it — columns 0 and nx − 1 stay stored (and gatherable)
    /// but leave the active lists, so runs break and the last tile column
    /// (x = 24 alone) drops out.
    fn directory_cases(d2q9: fn(&Geometry, &FluidIndex), d3q19: fn(&Geometry, &FluidIndex)) {
        for geom in [obstacle_2d(), rock(37, 21, 1, 50), rock(5, 12, 1, 30)] {
            d2q9(&geom, &FluidIndex::build(&geom));
            // Non-default tile shapes change the spans, not the contract.
            d2q9(&geom, &FluidIndex::build_tiled(&geom, (5, 3, 1)));
        }
        let g3 = rock(9, 8, 7, 35);
        d3q19(&g3, &FluidIndex::build(&g3));

        let geom = rock(25, 18, 1, 50);
        let mut index = FluidIndex::build(&geom);
        let tiles_before = index.tiles().len();
        index.retain_active(|idx| (1..24).contains(&geom.coords(idx).0));
        assert!(index.tiles().len() < tiles_before, "ghost-only tiles go");
        assert!(index.tiles().iter().any(|t| t.active_runs().count() > 1));
        d2q9(&geom, &index);
    }

    /// Every tile's directory against a brute-force walk of the table
    /// (decoded the slow way, by division): sorted, duplicate-free,
    /// disjoint from the tile's own span, and exactly the out-of-tile
    /// targets of the active nodes' links.
    fn assert_directory_invariants<L: Lattice>(geom: &Geometry, index: &FluidIndex) {
        let nf = index.len();
        let global = build_neighbor_table::<L>(geom, index).unwrap();
        let dir = HaloDirectory::localize::<L>(index, &GlobalBuffer::from_vec(global.clone()));
        let mut slab_nodes = 0;
        for (b, tile) in index.tiles().iter().enumerate() {
            let mut want: Vec<u32> = Vec::new();
            for &cid in &tile.active {
                for i in 0..L::Q {
                    let p = global[i * nf + cid as usize] % nf as u32;
                    if !(tile.lo..tile.hi).contains(&p) {
                        want.push(p);
                    }
                }
            }
            want.sort_unstable();
            want.dedup();
            let got = dir.tile(b);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "tile {b}: {got:?}");
            assert!(got.iter().all(|p| !(tile.lo..tile.hi).contains(p)));
            assert_eq!(got, &want[..], "tile {b}");
            slab_nodes = slab_nodes.max((tile.hi - tile.lo) as usize + got.len());
        }
        assert_eq!(dir.slab_nodes, slab_nodes);
    }

    #[test]
    fn halo_directory_invariants() {
        directory_cases(
            assert_directory_invariants::<D2Q9>,
            assert_directory_invariants::<D3Q19>,
        );
    }

    /// Every active link, re-encoded as the slab address `d·n + j`, maps
    /// back to the `(d, upstream)` of its global entry `d·nf + upstream`:
    /// column `j < len` is the tile's own node `lo + j`, the rest its halo
    /// ids.
    fn assert_slab_links<L: Lattice>(geom: &Geometry, index: &FluidIndex) {
        let nf = index.len();
        let global = build_neighbor_table::<L>(geom, index).unwrap();
        let table = GlobalBuffer::from_vec(global.clone());
        let dir = HaloDirectory::localize::<L>(index, &table);
        for (b, tile) in index.tiles().iter().enumerate() {
            let (lo, len, halo) = (tile.lo as usize, (tile.hi - tile.lo) as usize, dir.tile(b));
            let n = len + halo.len();
            for &cid in &tile.active {
                for i in 0..L::Q {
                    let at = i * nf + cid as usize;
                    let link = table.get(at) as usize;
                    assert!(link < L::Q * n, "tile {b}: {link} outside the slab");
                    let (d, j) = (link / n, link % n);
                    let p = if j < len {
                        lo + j
                    } else {
                        halo[j - len] as usize
                    };
                    let want = (global[at] as usize / nf, global[at] as usize % nf);
                    assert_eq!((d, p), want, "tile {b}, node {cid}, direction {i}");
                    let bounce = (L::OPP[i], cid as usize);
                    assert!(want.0 == i || want == bounce, "tile {b}: {want:?}");
                }
            }
        }
    }

    #[test]
    fn slab_links_resolve_to_the_global_links() {
        directory_cases(assert_slab_links::<D2Q9>, assert_slab_links::<D3Q19>);
    }

    /// The launch is one block per SM, each walking a contiguous run of
    /// tiles: 200×90 rock is 300 tiles, 3 or 4 to each of V100's 80 blocks,
    /// published with the halo recompute as `sparse_mr_walk`. Fewer tiles
    /// than SMs leave one tile per block.
    #[test]
    fn blocks_walk_contiguous_tile_ranges() {
        let walk = |geom: Geometry| {
            let obs = obs::Obs::shared();
            let sim: SparseMrSim2D =
                SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                    .with_obs(obs.clone());
            let gauge = |stat| {
                let labels = [("pattern", "sparse-mr"), ("stat", stat)];
                let v = obs.metrics.gauge("sparse_mr_walk", &labels);
                v.expect("walk gauge missing")
            };
            let (tiles, blocks) = (sim.index.tiles().len(), sim.blocks);
            (
                tiles,
                blocks,
                gauge("tiles_per_block"),
                gauge("collided_per_fluid"),
            )
        };
        let (tiles, blocks, per_block, collided) = walk(rock(200, 90, 1, 50));
        assert_eq!((tiles, blocks, per_block), (300, 80, 3.75));
        assert!(collided > 1.0 && collided < 3.0, "{collided}");
        let sizes: Vec<_> = (0..blocks)
            .map(|b| block_tiles(b, blocks, tiles).len())
            .collect();
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
        assert_eq!(block_tiles(blocks - 1, blocks, tiles).end, tiles);
        assert_eq!(walk(obstacle_2d()).2, 1.0);
    }

    /// A tile whose only fluid node is a dead end: every link bounces
    /// back, so its directory is empty — and the node keeps its mass.
    #[test]
    fn dead_end_tiles_have_empty_directories() {
        let mut geom = Geometry::walls_y_periodic_x(16, 16);
        for idx in 0..geom.len() {
            let (x, y, _) = geom.coords(idx);
            if !(x % 8 == 3 && y % 8 == 4) {
                geom.set(x, y, 0, NodeType::Wall);
            }
        }
        let mut sim: SparseMrSim2D =
            SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
        assert_eq!(sim.index.tiles().len(), 4);
        for b in 0..4 {
            assert!(sim.halo.tile(b).is_empty());
        }
        assert_eq!(sim.halo.slab_nodes, 1);
        sim.init_with(|x, _, _| (1.0 + 0.01 * x as f64, [0.0; 3]));
        let before = sim.density_field();
        sim.run(3);
        for (a, b) in sim.density_field().iter().zip(&before) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }

    /// The vectorized lane path and the scalar path are bitwise-identical,
    /// and the strict race checker accepts the two-phase schedule.
    #[test]
    fn scalar_and_vectorized_agree() {
        let geom = obstacle_2d();
        let mut fast: SparseMrSim2D = SparseMrSim::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_racecheck_strict()
        .with_cpu_threads(2);
        fast.init_with(shear);
        let mut slow: SparseMrSim2D =
            SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_scalar_kernels()
                .with_cpu_threads(1);
        slow.init_with(shear);
        fast.run(10);
        slow.run(10);
        assert_eq!(fast.field_checksum(), slow.field_checksum());
    }

    /// The byte ledger: B/F = 2M·8 + Q·4 per fluid update (132 for D2Q9),
    /// and the footprint is exactly (M·8 + Q·4) bytes per fluid node.
    #[test]
    fn measured_bpf_and_footprint_match_model() {
        let geom = obstacle_2d();
        let nf = geom.fluid_count();
        let mut sim: SparseMrSim2D =
            SparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_cpu_threads(2);
        sim.init_with(shear);
        assert_eq!(sim.measured_bpf(), 0.0, "no updates yet — the 0/0 guard");
        sim.run(3);
        assert!(
            (sim.measured_bpf() - 132.0).abs() < 0.5,
            "{}",
            sim.measured_bpf()
        );
        assert_eq!(sim.footprint_bytes(), nf * (6 * 8 + 9 * 4));
    }

    /// 3D sparse MR: B/F = 2·10·8 + 19·4 = 236 on a walled duct.
    #[test]
    fn measured_bpf_3d() {
        let mut g3 = Geometry::new(10, 8, 8, [true, false, false]);
        for z in 0..8 {
            for x in 0..10 {
                g3.set(x, 0, z, NodeType::Wall);
                g3.set(x, 7, z, NodeType::Wall);
            }
        }
        for y in 0..8 {
            for x in 0..10 {
                g3.set(x, y, 0, NodeType::Wall);
                g3.set(x, y, 7, NodeType::Wall);
            }
        }
        let nf = g3.fluid_count();
        let mut sim: SparseMrSim3D =
            SparseMrSim::new(DeviceSpec::mi100(), g3, MrScheme::projective(), 0.8)
                .with_cpu_threads(2);
        sim.init_with(shear);
        sim.run(2);
        assert!(
            (sim.measured_bpf() - 236.0).abs() < 0.5,
            "{}",
            sim.measured_bpf()
        );
        assert_eq!(sim.footprint_bytes(), nf * (10 * 8 + 19 * 4));
    }

    /// LBCK round-trip: a restored run continues bitwise-identically.
    #[test]
    fn checkpoint_roundtrip_is_bitwise() {
        let geom = obstacle_2d();
        let mk = || {
            let mut s: SparseMrSim2D = SparseMrSim::new(
                DeviceSpec::v100(),
                geom.clone(),
                MrScheme::projective(),
                0.8,
            )
            .with_cpu_threads(1);
            s.init_with(shear);
            s
        };
        let mut a = mk();
        a.run(5);
        let snap = a.checkpoint();
        a.run(4);

        let mut b = mk();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 5);
        b.run(4);
        assert_eq!(a.field_checksum(), b.field_checksum());
    }

    /// Typed build errors mirror the ST sparse driver.
    #[test]
    fn try_new_surfaces_typed_errors() {
        let geom = Geometry::channel_2d(12, 8, 0.04);
        let err =
            SparseMrSim::<D2Q9>::try_new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .err()
                .expect("inlet geometry must be rejected");
        assert!(
            matches!(err, SparseBuildError::UnsupportedNode(_)),
            "{err:?}"
        );
    }
}

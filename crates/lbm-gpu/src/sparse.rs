//! Indirect-addressing (sparse) variant of the ST pattern.
//!
//! The paper's roofline tables are computed "using direct addressing"
//! (Table 3 caption): every node of the bounding box is stored, and
//! neighbors are found arithmetically. For complex geometries the
//! alternative — analyzed in the paper's refs. \[4\] (Herschlag et al.) and
//! \[15\] — is *indirect addressing*: only fluid nodes are stored,
//! compacted, and each node carries an explicit neighbor list.
//!
//! Consequences reproduced here:
//!
//! * memory scales with the *fluid* count, not the bounding box — a porous
//!   or obstacle-laden domain stores no solid nodes;
//! * each update must additionally read its neighbor indices: B/F grows
//!   from `2Q·8` to `2Q·8 + Q·4` (a `u32` per direction), e.g. 380 instead
//!   of 304 for D3Q19 — the measured penalty of indirect addressing;
//! * bounce-back is precompiled into the neighbor table (a link to the
//!   node's own opposite slot), so the kernel has no geometry branches.
//!
//! Compact ids are assigned **tile by tile** (fixed-size spatial tiles,
//! one GPU block per tile, with a per-tile active list): fluid nodes that
//! are spatial neighbors land in nearby compact slots, so the link table
//! and the gather stay cache-coherent instead of striding the whole
//! domain. The tile decomposition also gives the sharded drivers a
//! natural per-tile halo-exchange granularity.
//!
//! Moving walls are not supported by the precompiled table (the gain term
//! depends on the wall velocity); domains are restricted to
//! `Wall`/`Fluid`/periodic, which covers the obstacle benchmarks. Build
//! errors surface as [`SparseBuildError`] through the fallible
//! constructors (`try_new`), so a service front-end can reject a bad
//! geometry instead of catching a panic.

use crate::driver::{
    advance_solo, box_guards, DriverBody, Fields, Frame, NodeHalo, Owned, Part, Rec, Sim, SlabBody,
    SoloBody,
};
use crate::init::{init_rows, plane_store};
use crate::multi::ring::StepCx;
use crate::multi::Slabs;
use crate::st::population_macro_fields;
use gpu_sim::exec::{BlockCtx, Kernel, Launch};
use gpu_sim::interconnect::LinkError;
use gpu_sim::{DeviceSpec, GlobalBuffer, Gpu};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{assert_lattice_fits, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// Why a sparse driver could not be built from a geometry. Each variant is
/// a *user input* problem, not a programming error — the service layer
/// maps these onto submission rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseBuildError {
    /// The geometry contains a node type the precompiled bounce-back table
    /// cannot express (inlet, outlet, or moving wall).
    UnsupportedNode(String),
    /// The geometry has no fluid nodes at all — nothing to simulate.
    NoFluidNodes,
    /// More fluid nodes than the u32 link encoding can address.
    TableOverflow(String),
}

impl std::fmt::Display for SparseBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseBuildError::UnsupportedNode(node) => write!(
                f,
                "sparse drivers support only fluid and resting-wall nodes (found {node})"
            ),
            SparseBuildError::NoFluidNodes => write!(f, "sparse domain has no fluid nodes"),
            SparseBuildError::TableOverflow(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SparseBuildError {}

/// Check that every node of `geom` is expressible by the precompiled
/// bounce-back table (fluid or resting wall only).
pub fn validate_sparse_geometry(geom: &Geometry) -> Result<(), SparseBuildError> {
    for idx in 0..geom.len() {
        match geom.node_at(idx) {
            NodeType::Fluid | NodeType::Wall => {}
            other => return Err(SparseBuildError::UnsupportedNode(format!("{other:?}"))),
        }
    }
    Ok(())
}

/// One spatial tile of the compaction: compact ids `lo..hi` are stored
/// contiguously, and `active` lists the ids this tile *updates*: the nodes
/// of the body's owned columns (a ghost column's nodes keep their storage
/// and leave the list).
#[derive(Clone, Debug)]
pub struct Tile {
    /// First compact id stored in this tile.
    pub lo: u32,
    /// One past the last compact id stored in this tile.
    pub hi: u32,
    /// Compact ids updated by this tile's block.
    pub active: Vec<u32>,
}

impl Tile {
    /// Maximal runs of consecutive compact ids on the active list, as slot
    /// ranges into `active`: a fully active tile is the single run
    /// `0..active.len()`, a ghost-filtered one breaks at every dropped
    /// node. Each run is one contiguous span of every compacted SoA row.
    pub fn active_runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let a = &self.active;
        let mut next = 0;
        std::iter::from_fn(move || {
            if next == a.len() {
                return None;
            }
            let start = next;
            next += 1;
            while next < a.len() && a[next] == a[next - 1] + 1 {
                next += 1;
            }
            Some(start..next)
        })
    }
}

/// Compacted fluid-node indexing for a geometry, tiled for cache
/// coherence: ids are assigned tile-by-tile, so a block's gather footprint
/// is spatially local.
pub struct FluidIndex {
    /// Flat domain index of each fluid node (compact id → domain).
    pub nodes: Vec<usize>,
    /// Domain index → compact id (usize::MAX for solid).
    pub compact: Vec<usize>,
    tiles: Vec<Tile>,
    tile_shape: (usize, usize, usize),
}

impl FluidIndex {
    /// Default tile shape: 8×8 squares in 2D, 4×4×4 cubes in 3D.
    pub fn default_tile_shape(geom: &Geometry) -> (usize, usize, usize) {
        if geom.nz == 1 {
            (8, 8, 1)
        } else {
            (4, 4, 4)
        }
    }

    /// Build the compaction for all fluid-like nodes of `geom` with the
    /// default tile shape.
    pub fn build(geom: &Geometry) -> Self {
        Self::build_tiled(geom, Self::default_tile_shape(geom))
    }

    /// Build the compaction with an explicit tile shape. Tiles are walked
    /// in z-major grid order and nodes within a tile in domain order, so
    /// the id assignment is deterministic. Empty tiles (no fluid) are
    /// dropped — the launch grid covers only populated tiles.
    pub fn build_tiled(geom: &Geometry, shape: (usize, usize, usize)) -> Self {
        let (tw, th, td) = shape;
        assert!(tw > 0 && th > 0 && td > 0, "tile dimensions must be ≥ 1");
        let mut nodes = Vec::with_capacity(geom.fluid_count());
        let mut compact = vec![usize::MAX; geom.len()];
        let mut tiles = Vec::new();
        for tz in 0..geom.nz.div_ceil(td) {
            for ty in 0..geom.ny.div_ceil(th) {
                for tx in 0..geom.nx.div_ceil(tw) {
                    let lo = nodes.len() as u32;
                    let xs = tx * tw..((tx + 1) * tw).min(geom.nx);
                    for z in tz * td..((tz + 1) * td).min(geom.nz) {
                        for y in ty * th..((ty + 1) * th).min(geom.ny) {
                            // The tile's stretch of row `(y, z)`, by index.
                            let first = geom.idx(xs.start, y, z);
                            for (k, n) in geom.row(y, z)[xs.clone()].iter().enumerate() {
                                if n.is_fluid_like() {
                                    compact[first + k] = nodes.len();
                                    nodes.push(first + k);
                                }
                            }
                        }
                    }
                    let hi = nodes.len() as u32;
                    if hi > lo {
                        // Every node starts active.
                        let active = (lo..hi).collect();
                        tiles.push(Tile { lo, hi, active });
                    }
                }
            }
        }
        FluidIndex {
            nodes,
            compact,
            tiles,
            tile_shape: shape,
        }
    }

    /// Number of fluid nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the domain has no fluid nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The populated tiles (one GPU block each).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// The tile shape this index was built with.
    pub fn tile_shape(&self) -> (usize, usize, usize) {
        self.tile_shape
    }

    /// Largest per-tile storage span — the shared/scratch slab stride of
    /// the tile kernels.
    pub fn tile_capacity(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| (t.hi - t.lo) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Total nodes on all active lists (= updates per step).
    pub fn active_len(&self) -> usize {
        self.tiles.iter().map(|t| t.active.len()).sum()
    }

    /// Drop nodes from the active lists (they stay stored and gatherable):
    /// ghost-column nodes, which receive their values by halo exchange
    /// instead of local update.
    pub fn retain_active(&mut self, keep: impl Fn(usize) -> bool) {
        for tile in &mut self.tiles {
            tile.active.retain(|&cid| keep(self.nodes[cid as usize]));
        }
        self.tiles.retain(|t| !t.active.is_empty());
    }
}

/// Largest fluid count a `q`-direction lattice can index through the `u32`
/// neighbor table: every entry `dir · nf + compact_id` with `dir < q` and
/// `compact_id < nf` must fit, so `q · nf − 1 ≤ u32::MAX`.
pub fn max_encodable_fluid_nodes(q: usize) -> usize {
    (u32::MAX as usize + 1) / q
}

/// Validate that `nf` fluid nodes are encodable for a `q`-direction
/// lattice. Returns a descriptive error instead of letting the `as u32`
/// casts in the table build silently truncate — a truncated link makes the
/// gather read the wrong node with no diagnostic at all.
pub fn check_table_encoding(q: usize, nf: usize) -> Result<(), String> {
    let max = max_encodable_fluid_nodes(q);
    if nf > max {
        return Err(format!(
            "sparse neighbor table overflow: {nf} fluid nodes × {q} directions \
             exceeds the u32 entry range (max {max} nodes for Q={q}); \
             the encoded links would silently truncate"
        ));
    }
    Ok(())
}

/// Build the pull neighbor table: entry `(i, n)` is the compact slot whose
/// direction-`i` population node `n` gathers — either the fluid neighbor at
/// `n − c_i`, or `n` itself with the opposite direction for bounce-back.
/// Entries are encoded as `dir · nf + compact_id`, one `u32` per link.
pub fn build_neighbor_table<L: Lattice>(
    geom: &Geometry,
    index: &FluidIndex,
) -> Result<Vec<u32>, SparseBuildError> {
    let nf = index.len();
    check_table_encoding(L::Q, nf).map_err(SparseBuildError::TableOverflow)?;
    let mut table = vec![0u32; L::Q * nf];
    let (dims, reach) = ([geom.nx, geom.ny, geom.nz], L::REACH as usize);
    // Flat-index step to the node direction `i` pulls from, `−c_i`: exact
    // for a node at least `REACH` from every face of the axes it moves on.
    let step: Vec<isize> = (L::C.iter())
        .map(|c| {
            -(c[0] as isize + geom.nx as isize * (c[1] as isize + geom.ny as isize * c[2] as isize))
        })
        .collect();
    for (cid, &idx) in index.nodes.iter().enumerate() {
        let (x, y, z) = geom.coords(idx);
        let off_face = ([x, y, z].iter().zip(dims))
            .take(L::D)
            .all(|(&v, n)| v >= reach && v + reach < n);
        for i in 0..L::Q {
            let c = L::C[i];
            let upstream = match off_face {
                true => Some(idx.wrapping_add_signed(step[i])),
                false => (geom.neighbor(x, y, z, [-c[0], -c[1], -c[2]]))
                    .map(|(px, py, pz)| geom.idx(px, py, pz)),
            };
            let entry = match upstream.map(|n| (n, index.compact[n])) {
                Some((_, p)) if p != usize::MAX => i * nf + p,
                Some((n, _)) if geom.node_at(n) != NodeType::Wall => {
                    let other = geom.node_at(n);
                    return Err(SparseBuildError::UnsupportedNode(format!("{other:?}")));
                }
                _ => L::OPP[i] * nf + cid,
            };
            table[i * nf + cid] = entry as u32;
        }
    }
    Ok(table)
}

/// Bulk kernel: pull through the neighbor table, collide, write. One block
/// per tile; the block walks its tile's active list.
struct SparseKernel<'a, L: Lattice, C: Collision<L>> {
    src: &'a GlobalBuffer<f64>,
    dst: &'a GlobalBuffer<f64>,
    table: &'a GlobalBuffer<u32>,
    tiles: &'a [Tile],
    nf: usize,
    collision: &'a C,
    _l: PhantomData<L>,
}

impl<L: Lattice, C: Collision<L>> Kernel for SparseKernel<'_, L, C> {
    fn name(&self) -> &str {
        "st-sparse"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let tile = &self.tiles[ctx.block_id];
        let mut f_loc = [0.0f64; MAX_Q];
        for &cid in &tile.active {
            let cid = cid as usize;
            for i in 0..L::Q {
                // Indirect gather: one u32 link read + one f64 read.
                let link = ctx.read(self.table, i * self.nf + cid) as usize;
                f_loc[i] = ctx.read(self.src, link);
            }
            self.collision.collide(&mut f_loc[..L::Q]);
            for i in 0..L::Q {
                ctx.write(self.dst, i * self.nf + cid, f_loc[i]);
            }
        }
    }
}

/// What both fluid-compacted bodies are built on: the tiled compaction of
/// `geom` with the nodes outside the `owned` columns dropped from the active
/// lists, and its link table. Refuses what the table cannot express and a
/// body with nothing to update.
pub(crate) fn compact<L: Lattice>(
    geom: &Geometry,
    owned: Owned,
) -> Result<(FluidIndex, GlobalBuffer<u32>), SparseBuildError> {
    assert_lattice_fits::<L>();
    if L::D == 2 {
        assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
    }
    validate_sparse_geometry(geom)?;
    let mut index = FluidIndex::build(geom);
    // No touch tracking on the link table: one block per tile over
    // disjoint active lists reads every link exactly once per launch,
    // so there is never a repeat touch for the L2 model to discount.
    let table = GlobalBuffer::from_vec(build_neighbor_table::<L>(geom, &index)?);
    index.retain_active(|idx| owned.contains(geom.coords(idx).0));
    if index.tiles().is_empty() {
        return Err(SparseBuildError::NoFluidNodes);
    }
    Ok((index, table))
}

/// The sparse ST pattern's state: two compacted lattices and the link
/// table.
pub struct SparseSt<L: Lattice, C: Collision<L>> {
    geom: Geometry,
    index: FluidIndex,
    table: GlobalBuffer<u32>,
    f: [GlobalBuffer<f64>; 2],
    cur: usize,
    collision: C,
    _l: PhantomData<L>,
}

/// Driver for the indirect-addressing ST simulation.
pub type StSparseSim<L, C> = Sim<SparseSt<L, C>>;

impl<L: Lattice, C: Collision<L>> StSparseSim<L, C> {
    /// Build a sparse simulation, panicking on an unsupported geometry.
    /// Use [`StSparseSim::try_new`] where build failures must be handled
    /// (the service layer rejects them as submission errors).
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C) -> Self {
        Self::try_new(device, geom, collision).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a sparse simulation. The geometry may contain only
    /// fluid/wall/periodic nodes (no inlet/outlet/moving walls).
    pub fn try_new(
        device: DeviceSpec,
        geom: Geometry,
        collision: C,
    ) -> Result<Self, SparseBuildError> {
        let body = SparseSt::on_slab(Owned::all(&geom), geom, collision)?;
        Ok(Sim::from_body(Gpu::new(device), body))
    }
}

impl<L: Lattice, C: Collision<L>> SparseSt<L, C> {
    /// The sparse ST state over `geom`, updating the fluid nodes of its
    /// `owned` columns — the one constructor behind [`StSparseSim::try_new`]
    /// and every shard of [`crate::multi`].
    pub(crate) fn on_slab(
        owned: Owned,
        geom: Geometry,
        collision: C,
    ) -> Result<Self, SparseBuildError> {
        let (index, table) = compact::<L>(&geom, owned)?;
        let lattice = || GlobalBuffer::new(L::Q * index.len()).with_touch_tracking();
        Ok(SparseSt {
            f: [lattice(), lattice()],
            cur: 0,
            geom,
            index,
            table,
            collision,
            _l: PhantomData,
        })
    }

    /// Strict race checking on both lattices (tests).
    #[cfg(test)]
    pub(crate) fn set_racecheck_strict(&mut self) {
        self.f
            .iter_mut()
            .for_each(GlobalBuffer::set_racecheck_strict);
    }

    /// The fluid-node compaction.
    pub fn index(&self) -> &FluidIndex {
        &self.index
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for SparseSt<L, C> {
    type Dev = Gpu;

    fn advance(&mut self, gpu: &Gpu, t: u64, rec: Rec<'_>) -> Result<(), LinkError> {
        advance_solo(self, gpu, t, rec)
    }

    fn label(&self) -> &'static str {
        "sparse-st"
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    fn init_with(
        &self,
        gpu: Option<&Gpu>,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        let store = plane_store(&self.f[self.cur], L::Q, self.index.len(), |i| i);
        let values = |m: &Moments, f: &mut [f64]| self.collision.reconstruct(m, f);
        let ids = Some(&self.index.nodes[..]);
        init_rows::<L>(gpu, &self.geom, ids, field, L::Q, values, store);
    }

    fn macro_fields(&self, _t: u64) -> Fields {
        let (nf, f) = (self.index.len(), &self.f[self.cur]);
        let nodes = self.index.nodes.iter().enumerate();
        population_macro_fields::<L>(
            self.geom.len(),
            nodes.map(|(cid, &idx)| (idx, cid)),
            |cid, i| f.get(i * nf + cid),
        )
    }

    /// Two compacted lattices plus the link table: scales with the fluid
    /// count, not the bounding box.
    fn footprint_bytes(&self) -> usize {
        self.f[0].size_bytes() + self.f[1].size_bytes() + self.table.size_bytes()
    }

    fn set_fault_plan(&mut self, plan: Arc<gpu_sim::FaultPlan>) {
        self.f[0].set_fault_plan(plan.clone());
        self.f[1].set_fault_plan(plan);
    }

    fn frame(&self) -> Frame {
        let mut guards = box_guards(&self.geom, ("Q", L::Q));
        guards.push(("fluid nodes", self.index.len() as u64));
        Frame {
            flavor: "sparse-st",
            parity: false,
            guards,
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

impl<L: Lattice, C: Collision<L>> SoloBody for SparseSt<L, C> {
    /// The sparse pull-collide kernel, one block per tile over its active
    /// list: `f[cur]` is read through the table's links, collided
    /// populations land in `f[cur ^ 1]`. Tiles are not split by distance
    /// from a cut, so the whole update is the part that precedes an
    /// exchange. Measured B/F is `2Q·8 + Q·4`: the link reads are the
    /// indirect-addressing penalty.
    fn launch_part(&self, gpu: &Gpu, _t: u64, part: Part, rec: Rec<'_>) {
        if part != Part::Strips {
            return;
        }
        let tiles = self.index.tiles();
        rec(&gpu.launch(
            &Launch::simple(tiles.len(), self.index.tile_capacity().max(1)),
            &SparseKernel::<L, C> {
                src: &self.f[self.cur],
                dst: &self.f[self.cur ^ 1],
                table: &self.table,
                tiles,
                nf: self.index.len(),
                collision: &self.collision,
                _l: PhantomData,
            },
        ));
    }

    fn flip(&mut self) {
        self.cur ^= 1;
    }
}

impl<L: Lattice, C: Collision<L>> SlabBody for SparseSt<L, C> {
    const OVERLAP_IN_BLOB: bool = false;

    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame) {
        let frame = Frame {
            flavor: "multi-sparse-st",
            parity: false,
            guards: box_guards(global, ("Q", L::Q)),
        };
        (frame.flavor, frame)
    }
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError> {
        slabs.two_phase(cx)
    }
}

impl<L: Lattice, C: Collision<L>> NodeHalo for SparseSt<L, C> {
    const HALO: usize = L::Q;

    fn send_nodes(&self, to: &Self, _t: u64, pairs: &[(usize, usize)]) {
        let (sn, dn) = (self.index.len(), to.index.len());
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

    #[test]
    fn compaction_counts_fluid_only() {
        let geom = Geometry::walls_y_periodic_x(12, 8).with_cylinder(6.0, 4.0, 2.0);
        let index = FluidIndex::build(&geom);
        assert_eq!(index.len(), geom.fluid_count());
        // Round trip compact ↔ domain.
        for (cid, &idx) in index.nodes.iter().enumerate() {
            assert_eq!(index.compact[idx], cid);
        }
    }

    /// The tiled id assignment covers 0..nf exactly once, tiles are
    /// disjoint contiguous spans, and every node starts active.
    #[test]
    fn tiles_partition_the_compaction() {
        let geom = Geometry::walls_y_periodic_x(20, 14).with_cylinder(9.0, 7.0, 3.0);
        let index = FluidIndex::build(&geom);
        let mut next = 0u32;
        let mut active_total = 0;
        for tile in index.tiles() {
            assert_eq!(tile.lo, next, "tiles must be contiguous spans");
            assert!(tile.hi > tile.lo);
            for (k, &cid) in tile.active.iter().enumerate() {
                assert_eq!(cid, tile.lo + k as u32, "all nodes active by default");
            }
            assert!(tile.active_runs().eq(std::iter::once(0..tile.active.len())));
            active_total += tile.active.len();
            next = tile.hi;
        }
        assert_eq!(next as usize, index.len());
        assert_eq!(active_total, index.len());
        assert_eq!(index.active_len(), index.len());
        assert!(index.tile_capacity() <= 8 * 8);
    }

    /// Sparse ST matches the dense reference on an obstacle-laden domain.
    #[test]
    fn matches_dense_reference_with_obstacle() {
        let geom = Geometry::walls_y_periodic_x(16, 10).with_cylinder(6.0, 5.0, 2.0);
        let init =
            |_x: usize, y: usize, _z: usize| (1.0, [0.03 * (y as f64 * 0.6).sin(), 0.0, 0.0]);
        let mut sparse: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2);
        sparse.init_with(init);
        let mut dense: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.8)).with_threads(2);
        dense.init_with(init);
        sparse.run(15);
        dense.run(15);
        let (us, ud) = (sparse.velocity_field(), dense.velocity_field());
        for (a, b) in us.iter().zip(&ud) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-12, "{a:?} vs {b:?}");
            }
        }
    }

    /// The indirect-addressing B/F penalty: 2Q·8 + Q·4 per update
    /// (304 + 76 = 380 for D3Q19; 144 + 36 = 180 for D2Q9).
    #[test]
    fn measured_bpf_includes_link_reads() {
        let geom = Geometry::walls_y_periodic_x(24, 12);
        let mut s2: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8)).with_cpu_threads(2);
        s2.run(3);
        assert!(
            (s2.measured_bpf() - 180.0).abs() < 1.0,
            "{}",
            s2.measured_bpf()
        );

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
        let mut s3: StSparseSim<D3Q19, _> =
            StSparseSim::new(DeviceSpec::v100(), g3, Bgk::new(0.8)).with_cpu_threads(2);
        s3.run(2);
        assert!(
            (s3.measured_bpf() - 380.0).abs() < 1.0,
            "{}",
            s3.measured_bpf()
        );
    }

    /// Regression for the 0/0 NaN: before any step there are zero updates,
    /// so the per-update ratio must report 0, not NaN.
    #[test]
    fn measured_bpf_is_zero_before_first_step() {
        let geom = Geometry::walls_y_periodic_x(12, 8);
        let s: StSparseSim<D2Q9, _> = StSparseSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
        assert_eq!(s.measured_bpf(), 0.0);
        assert!(s.measured_bpf().is_finite());
        // The footprint is well-defined at t = 0 (it is static storage).
        assert!(s.footprint_bytes() > 0);
    }

    /// Sparse storage beats dense on porous domains: with half the box
    /// solid, the footprint is roughly halved (plus the link table).
    #[test]
    fn footprint_scales_with_fluid_count() {
        let mut geom = Geometry::walls_y_periodic_x(32, 32);
        // Solid lower half.
        for y in 1..16 {
            for x in 0..32 {
                geom.set(x, y, 0, NodeType::Wall);
            }
        }
        let sparse: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
        let dense_bytes = 2 * 9 * geom.len() * 8;
        // fluid ≈ half the box; sparse ≈ half the f storage + 25% links.
        assert!(sparse.footprint_bytes() < (dense_bytes as f64 * 0.65) as usize);
    }

    /// The satellite fix: the u32 table encoding has a hard node-count
    /// ceiling per lattice, checked at build time with a clear error.
    /// (Allocating 2³²⁄Q nodes is infeasible in a unit test, so the bound
    /// check is exercised directly with synthetic counts.)
    #[test]
    fn table_encoding_bound_is_exact() {
        for q in [9usize, 19, 27] {
            let max = max_encodable_fluid_nodes(q);
            // Largest encodable entry fits in u32…
            assert!(q * max - 1 <= u32::MAX as usize);
            // …and one more node would overflow.
            assert!(q * (max + 1) - 1 > u32::MAX as usize);
            assert!(check_table_encoding(q, max).is_ok());
            let err = check_table_encoding(q, max + 1).unwrap_err();
            assert!(err.contains("overflow"), "{err}");
            assert!(err.contains(&format!("Q={q}")), "{err}");
        }
        // D3Q19 at the paper's production scales: 226 million fluid nodes
        // ((2³²)/19) is the ceiling — a 620³ box exceeds it.
        assert_eq!(max_encodable_fluid_nodes(19), 226_050_910);
        assert!(check_table_encoding(19, 620 * 620 * 620).is_err());
    }

    #[test]
    #[should_panic(expected = "only fluid and resting-wall")]
    fn rejects_inlets() {
        let geom = Geometry::channel_2d(12, 8, 0.04);
        let _ = StSparseSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
    }

    /// The satellite fix: the same rejection is a typed error through the
    /// fallible constructor — no panic for the service layer to catch.
    #[test]
    fn try_new_surfaces_typed_errors() {
        let geom = Geometry::channel_2d(12, 8, 0.04);
        let err = StSparseSim::<D2Q9, Bgk>::try_new(DeviceSpec::v100(), geom, Bgk::new(0.8))
            .err()
            .expect("inlet geometry must be rejected");
        assert!(
            matches!(err, SparseBuildError::UnsupportedNode(_)),
            "{err:?}"
        );
        assert!(err.to_string().contains("only fluid and resting-wall"));

        let mut all_solid = Geometry::periodic_2d(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                all_solid.set(x, y, 0, NodeType::Wall);
            }
        }
        let err = StSparseSim::<D2Q9, Bgk>::try_new(DeviceSpec::v100(), all_solid, Bgk::new(0.8))
            .err()
            .expect("all-solid geometry must be rejected");
        assert!(matches!(err, SparseBuildError::NoFluidNodes), "{err:?}");
    }

    /// LBCK round-trip: a restored run continues bitwise-identically.
    #[test]
    fn checkpoint_roundtrip_is_bitwise() {
        let geom = Geometry::walls_y_periodic_x(16, 10).with_cylinder(7.0, 5.0, 2.0);
        let init =
            |_x: usize, y: usize, _z: usize| (1.0, [0.02 * (y as f64 * 0.5).sin(), 0.0, 0.0]);
        let mk = || {
            let mut s: StSparseSim<D2Q9, _> =
                StSparseSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                    .with_cpu_threads(1);
            s.init_with(init);
            s
        };
        let mut a = mk();
        a.run(4);
        let snap = a.checkpoint();
        a.run(5);

        let mut b = mk();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 4);
        b.run(5);
        assert_eq!(a.field_checksum(), b.field_checksum());
        // Mismatched flavor is refused.
        assert!(b.restore(b"LBCKgarbage").is_err());
    }
}

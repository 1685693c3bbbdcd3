//! Multi-device sparse (indirect-addressing) drivers: slab-sharded
//! fluid-compacted ST and MR with **per-tile** halo exchange.
//!
//! Each shard builds its own tiled [`FluidIndex`] over the local geometry
//! (ghost columns included in storage, excluded from the active lists via
//! [`FluidIndex::retain_active`]) and its own link table, so the per-shard
//! update is exactly the single-device sparse kernel over the owned nodes.
//! The halo exchange goes tile by tile: every sender tile holding nodes of
//! the exchanged column issues its own transfer, sized by *that tile's*
//! fluid count in the column (the `(source id, destination id)` lists are
//! compiled once at construction). Summed over tiles this is the column's fluid
//! count — the wire bytes scale with the fluid-node population of the cut,
//! not the bounding-box cross-section, which is the sparse-storage
//! argument extended to the interconnect:
//!
//! ```text
//!   bytes/cut/step = (fluid nodes in cut column) × Q·8   (sparse ST)
//!                  = (fluid nodes in cut column) × M·8   (sparse MR)
//! ```
//!
//! The sparse MR shards are double-buffered even though the single-device
//! driver updates in place: the multi-device step is not one lockstep
//! launch (update, then exchange), so a failed halo transfer must leave
//! the time-`t` moments untouched for the step to be retried
//! bitwise-identically. Ghost values carry exact doubles, so both drivers
//! are *bitwise* identical to their single-device counterparts.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer};
use lbm_core::collision::Collision;
use lbm_core::geometry::Geometry;
use lbm_core::kernels::{assert_lattice_fits, MAX_M, MAX_Q};
use lbm_gpu::driver::{fill, DriverBody, Fields, Frame};
use lbm_gpu::scheme::MrScheme;
use lbm_gpu::sparse::{
    build_neighbor_table, launch_sparse_st, validate_sparse_geometry, FluidIndex, SparseBuildError,
};
use lbm_gpu::sparse_mr::{launch_sparse_mr, HaloDirectory};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// One shard of a sparse decomposition: local geometry, its tiled fluid
/// compaction (ghost columns stored but inactive), the local link table,
/// and two compacted state buffers (`Q·nf` doubles for ST, `M·nf` for MR).
struct SparseShard {
    geom: Geometry,
    index: FluidIndex,
    table: GlobalBuffer<u32>,
    bufs: [GlobalBuffer<f64>; 2],
    cur: usize,
}

/// Build shard `r`: local compaction + link table, ghost columns dropped
/// from the active lists, `dpn` doubles of state per fluid node.
fn build_shard<L: Lattice>(
    decomp: &SlabDecomp,
    r: usize,
    dpn: usize,
) -> Result<SparseShard, SparseBuildError> {
    assert_lattice_fits::<L>();
    let g = decomp.local_geometry(r);
    let mut index = FluidIndex::build(&g);
    if index.is_empty() {
        return Err(SparseBuildError::NoFluidNodes);
    }
    // Links are read once per launch: nothing for the L2 model to track.
    let table = GlobalBuffer::from_vec(build_neighbor_table::<L>(&g, &index)?);
    let s = decomp.slab(r);
    let (lo, hi) = (s.owned_lo(), s.owned_hi());
    index.retain_active(|idx| {
        let (lx, _, _) = g.coords(idx);
        lx >= lo && lx < hi
    });
    let nf = index.len();
    Ok(SparseShard {
        geom: g,
        index,
        table,
        bufs: [
            GlobalBuffer::new(dpn * nf).with_touch_tracking(),
            GlobalBuffer::new(dpn * nf).with_touch_tracking(),
        ],
        cur: 0,
    })
}

/// One interconnect transfer of the halo exchange: the nodes of one sender
/// tile that lie in an exchanged column, as `(source compact id,
/// destination compact id)` pairs.
struct TileTransfer {
    from: usize,
    to: usize,
    pairs: Vec<(u32, u32)>,
}

/// Compile the per-step exchange: for every directed halo transfer, in
/// `halo_transfers` order, one [`TileTransfer`] per sender tile with nodes
/// in the exchanged column, in tile order. Compact ids are assigned tile by
/// tile, so the column's pairs sorted by source id split at the tile spans.
fn build_exchange_plan(decomp: &SlabDecomp, shards: &[SparseShard]) -> Vec<TileTransfer> {
    let mut plan = Vec::new();
    for tr in decomp.halo_transfers() {
        let (src, dst) = (&shards[tr.from], &shards[tr.to]);
        let mut column = Vec::new();
        for z in 0..src.geom.nz {
            for y in 0..src.geom.ny {
                let scid = src.index.compact[src.geom.idx(tr.src_lx, y, z)];
                if scid != usize::MAX {
                    let dcid = dst.index.compact[dst.geom.idx(tr.dst_lx, y, z)];
                    column.push((scid as u32, dcid as u32));
                }
            }
        }
        column.sort_unstable();
        let mut rest = &column[..];
        for tile in src.index.tiles() {
            let k = rest.partition_point(|&(scid, _)| scid < tile.hi);
            if k > 0 {
                assert!(rest[0].0 >= tile.lo, "exchanged node in an inactive tile");
                plan.push(TileTransfer {
                    from: tr.from,
                    to: tr.to,
                    pairs: rest[..k].to_vec(),
                });
                rest = &rest[k..];
            }
        }
        assert!(rest.is_empty(), "exchanged node in an inactive tile");
    }
    plan
}

/// Per-tile halo exchange of the freshly computed (`cur ^ 1`) buffers:
/// every [`TileTransfer`] moves `(tile nodes in column) × dpn·8` bytes,
/// tallied through the interconnect *before* the copy — a failed transfer
/// moves no data and records no bytes, so a retried step tallies exactly
/// once.
fn exchange_tiled(
    cx: &StepCx<'_>,
    plan: &[TileTransfer],
    shards: &[SparseShard],
    dpn: usize,
) -> Result<(), LinkError> {
    for t in plan {
        let (src, dst) = (&shards[t.from], &shards[t.to]);
        let (snf, dnf) = (src.index.len(), dst.index.len());
        let (sb, db) = (&src.bufs[src.cur ^ 1], &dst.bufs[dst.cur ^ 1]);
        let bytes = (t.pairs.len() * dpn * 8) as u64;
        cx.transfer(t.from, t.to, bytes)?;
        for &(scid, dcid) in &t.pairs {
            for m in 0..dpn {
                db.set(m * dnf + dcid as usize, sb.get(m * snf + scid as usize));
            }
        }
    }
    Ok(())
}

/// Locate a global fluid node in its owner shard: `(shard, compact id)`.
fn locate(
    decomp: &SlabDecomp,
    shards: &[SparseShard],
    x: usize,
    y: usize,
    z: usize,
) -> (usize, usize) {
    let r = decomp.owner_of(x);
    let sh = &shards[r];
    let lx = decomp.slab(r).owned_lo() + (x - decomp.slab(r).x0);
    (r, sh.index.compact[sh.geom.idx(lx, y, z)])
}

/// The checkpoint frame both sparse bodies share: box dimensions, the
/// per-node payload (`"Q"` or `"M"`) and the shard count.
fn sparse_frame(
    flavor: &'static str,
    decomp: &SlabDecomp,
    payload: (&'static str, usize),
) -> Frame {
    let g = decomp.global();
    Frame {
        flavor,
        parity: false,
        guards: vec![
            ("nx", g.nx as u64),
            ("ny", g.ny as u64),
            ("nz", g.nz as u64),
            (payload.0, payload.1 as u64),
            ("shard count", decomp.num_shards() as u64),
        ],
    }
}

/// Every shard's compacted buffers and link tables, bytes.
fn shards_footprint(shards: &[SparseShard]) -> usize {
    shards
        .iter()
        .map(|s| s.bufs[0].size_bytes() + s.bufs[1].size_bytes() + s.table.size_bytes())
        .sum()
}

fn shards_set_fault_plan(shards: &mut [SparseShard], plan: &Arc<FaultPlan>) {
    for sh in shards {
        sh.bufs[0].set_fault_plan(plan.clone());
        sh.bufs[1].set_fault_plan(plan.clone());
    }
}

/// Every shard's current compacted lattice (ghost nodes included, so no
/// post-restore exchange is needed).
fn shards_snapshot(shards: &[SparseShard]) -> Vec<Vec<f64>> {
    shards.iter().map(|sh| sh.bufs[sh.cur].snapshot()).collect()
}

fn shards_lens(shards: &[SparseShard]) -> Vec<usize> {
    shards.iter().map(|sh| sh.bufs[0].len()).collect()
}

/// The snapshot lands in buffer 0 regardless of the saved parity.
fn shards_install(shards: &mut [SparseShard], arrays: &[Vec<f64>]) {
    for (sh, data) in shards.iter_mut().zip(arrays) {
        fill(&sh.bufs[0], data);
        sh.cur = 0;
    }
}

/// The sharded sparse ST pattern's state.
pub struct MultiSparseSt<L: Lattice, C: Collision<L>> {
    decomp: SlabDecomp,
    shards: Vec<SparseShard>,
    plan: Vec<TileTransfer>,
    collision: C,
    _l: PhantomData<L>,
}

/// Slab-sharded sparse ST simulation across N simulated devices.
pub type MultiSparseStSim<L, C> = MultiSim<MultiSparseSt<L, C>>;

impl<L: Lattice, C: Collision<L>> MultiSparseStSim<L, C> {
    /// Shard `geom` across `n` devices, panicking on an unsupported
    /// geometry. Use [`MultiSparseStSim::try_new`] where build failures
    /// must be handled.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        Self::try_new(device, geom, collision, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shard `geom` (fluid/wall/periodic only) across `n` devices joined
    /// ring-wise. Initialized to equilibrium at rest.
    pub fn try_new(
        device: DeviceSpec,
        geom: Geometry,
        collision: C,
        n: usize,
    ) -> Result<Self, SparseBuildError> {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        validate_sparse_geometry(&geom)?;
        if geom.fluid_count() == 0 {
            return Err(SparseBuildError::NoFluidNodes);
        }
        let decomp = SlabDecomp::new(geom, n);
        let shards = (0..n)
            .map(|r| build_shard::<L>(&decomp, r, L::Q))
            .collect::<Result<Vec<_>, _>>()?;
        let plan = build_exchange_plan(&decomp, &shards);
        Ok(MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiSparseSt {
                decomp,
                shards,
                plan,
                collision,
                _l: PhantomData,
            },
        ))
    }
}

impl<L: Lattice, C: Collision<L>> MultiSparseSt<L, C> {
    /// Analytic per-step halo traffic: fluid-like cut-column nodes × `Q·8`
    /// — proportional to fluid count, not box volume.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::Q * 8) as u64
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for MultiSparseSt<L, C> {
    fn label(&self) -> &'static str {
        "multi-sparse-st"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut feq = [0.0f64; MAX_Q];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            let nf = sh.index.len();
            for (cid, &idx) in sh.index.nodes.iter().enumerate() {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = field(gx, y, z);
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                self.collision.reconstruct(&m, &mut feq[..L::Q]);
                for (i, &v) in feq[..L::Q].iter().enumerate() {
                    sh.bufs[0].set(i * nf + cid, v);
                }
            }
        }
    }

    fn macro_fields(&self, _t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        let mut f_loc = [0.0f64; MAX_Q];
        for idx in 0..g.len() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let (r, cid) = locate(&self.decomp, &self.shards, x, y, z);
            let sh = &self.shards[r];
            let nf = sh.index.len();
            for (i, f) in f_loc.iter_mut().enumerate().take(L::Q) {
                *f = sh.bufs[sh.cur].get(i * nf + cid);
            }
            let m = Moments::from_f::<L>(&f_loc[..L::Q]);
            rho_out[idx] = m.rho;
            u_out[idx] = m.u;
        }
        (rho_out, u_out)
    }

    fn footprint_bytes(&self) -> usize {
        shards_footprint(&self.shards)
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        shards_set_fault_plan(&mut self.shards, &plan);
    }

    fn frame(&self) -> Frame {
        sparse_frame("multi-sparse-st", &self.decomp, ("Q", L::Q))
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        shards_snapshot(&self.shards)
    }

    fn state_lens(&self) -> Vec<usize> {
        shards_lens(&self.shards)
    }

    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        shards_install(&mut self.shards, &arrays);
    }
}

impl<L: Lattice, C: Collision<L>> ShardedBody for MultiSparseSt<L, C> {
    /// On `Err` no state has advanced (the buffer parity is unchanged) —
    /// the completed update launches are idempotent and a retried step
    /// recomputes them bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // Update every shard's owned (active) nodes: read t, write t+1.
        cx.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            launch_sparse_st::<L, C>(
                cx.mg.device(r),
                &sh.bufs[sh.cur],
                &sh.bufs[sh.cur ^ 1],
                &sh.table,
                &sh.index,
                &self.collision,
            );
        });

        // Per-tile halo exchange of the freshly computed edge columns.
        let halo_span = cx.halo_span();
        exchange_tiled(cx, &self.plan, &self.shards, L::Q)?;
        drop(halo_span);

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        Ok(())
    }
}

/// The sharded sparse MR pattern's state.
pub struct MultiSparseMr<L: Lattice> {
    decomp: SlabDecomp,
    shards: Vec<SparseShard>,
    /// Shard `r`'s halo directory (of its ghost-filtered active lists).
    halos: Vec<HaloDirectory>,
    plan: Vec<TileTransfer>,
    scheme: MrScheme,
    tau: f64,
    scalar: bool,
    _l: PhantomData<L>,
}

/// Slab-sharded sparse MR simulation (MR-P or MR-R) across N devices.
pub type MultiSparseMrSim<L> = MultiSim<MultiSparseMr<L>>;

impl<L: Lattice> MultiSparseMrSim<L> {
    /// Shard `geom` across `n` devices, panicking on an unsupported
    /// geometry. Use [`MultiSparseMrSim::try_new`] where build failures
    /// must be handled.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        Self::try_new(device, geom, scheme, tau, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shard `geom` (fluid/wall/periodic only) across `n` devices joined
    /// ring-wise. Initialized to equilibrium at rest.
    pub fn try_new(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        n: usize,
    ) -> Result<Self, SparseBuildError> {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        validate_sparse_geometry(&geom)?;
        if geom.fluid_count() == 0 {
            return Err(SparseBuildError::NoFluidNodes);
        }
        let decomp = SlabDecomp::new(geom, n);
        let shards = (0..n)
            .map(|r| build_shard::<L>(&decomp, r, L::M))
            .collect::<Result<Vec<_>, _>>()?;
        let halos = shards
            .iter()
            .map(|sh| HaloDirectory::build::<L>(&sh.index, &sh.table))
            .collect();
        let plan = build_exchange_plan(&decomp, &shards);
        Ok(MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiSparseMr {
                decomp,
                shards,
                halos,
                plan,
                scheme,
                tau,
                scalar: false,
                _l: PhantomData,
            },
        ))
    }

    /// Force the original per-node scalar kernels (bitwise-identical to
    /// the default vectorized lane path; used by the equivalence tests).
    pub fn with_scalar_kernels(mut self) -> Self {
        self.body.scalar = true;
        self
    }
}

impl<L: Lattice> MultiSparseMr<L> {
    /// Analytic per-step halo traffic: fluid-like cut-column nodes × `M·8`
    /// — proportional to fluid count, not box volume.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::M * 8) as u64
    }
}

impl<L: Lattice> DriverBody for MultiSparseMr<L> {
    fn label(&self) -> &'static str {
        "multi-sparse-mr"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut packed = [0.0f64; MAX_M];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            let nf = sh.index.len();
            for (cid, &idx) in sh.index.nodes.iter().enumerate() {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = field(gx, y, z);
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                m.pack::<L>(&mut packed[..L::M]);
                for (mi, &pv) in packed.iter().enumerate().take(L::M) {
                    sh.bufs[0].set(mi * nf + cid, pv);
                }
            }
        }
    }

    fn macro_fields(&self, _t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        for idx in 0..g.len() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let (r, cid) = locate(&self.decomp, &self.shards, x, y, z);
            let sh = &self.shards[r];
            let nf = sh.index.len();
            rho_out[idx] = sh.bufs[sh.cur].get(cid);
            for (a, ua) in u_out[idx].iter_mut().enumerate().take(L::D) {
                *ua = sh.bufs[sh.cur].get((1 + a) * nf + cid);
            }
        }
        (rho_out, u_out)
    }

    fn footprint_bytes(&self) -> usize {
        shards_footprint(&self.shards)
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        shards_set_fault_plan(&mut self.shards, &plan);
    }

    fn frame(&self) -> Frame {
        sparse_frame("multi-sparse-mr", &self.decomp, ("M", L::M))
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        shards_snapshot(&self.shards)
    }

    fn state_lens(&self) -> Vec<usize> {
        shards_lens(&self.shards)
    }

    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        shards_install(&mut self.shards, &arrays);
    }
}

impl<L: Lattice> ShardedBody for MultiSparseMr<L> {
    /// On `Err` no state has advanced — the time-`t` buffer is never
    /// written (the sharded update is double-buffered, unlike the in-place
    /// single-device driver), so a retried step recomputes
    /// bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // Update every shard's owned (active) nodes: read t, write t+1.
        cx.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            launch_sparse_mr::<L>(
                cx.mg.device(r),
                &sh.bufs[sh.cur],
                &sh.bufs[sh.cur ^ 1],
                &sh.table,
                &sh.index,
                &self.halos[r],
                &self.scheme,
                self.tau,
                self.scalar,
            );
        });

        // Per-tile moment-space halo exchange: M·8 bytes per fluid node.
        let halo_span = cx.halo_span();
        exchange_tiled(cx, &self.plan, &self.shards, L::M)?;
        drop(halo_span);

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::Projective;
    use lbm_core::geometry::NodeType;
    use lbm_gpu::{SparseMrSim2D, StSparseSim};
    use lbm_lattice::D2Q9;

    fn obstacle_geom() -> Geometry {
        Geometry::walls_y_periodic_x(24, 12).with_cylinder(10.5, 5.5, 2.6)
    }

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

    /// Sharded sparse ST is bitwise identical to the single-device sparse
    /// driver on an obstacle domain: ghosts carry exact doubles and the
    /// per-node pull arithmetic is decomposition-independent.
    #[test]
    fn multi_sparse_st_matches_single_bitwise() {
        let geom = obstacle_geom();
        let mut single: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiSparseStSim<D2Q9, _> =
            MultiSparseStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 3)
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
        assert_eq!(single.field_checksum(), multi.field_checksum());
    }

    /// Sharded sparse MR is bitwise identical to the single-device sparse
    /// MR driver (which is itself bitwise-equal to dense MR), for both
    /// collision schemes.
    #[test]
    fn multi_sparse_mr_matches_single_bitwise() {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let geom = obstacle_geom();
            let mut single: SparseMrSim2D =
                SparseMrSim2D::new(DeviceSpec::v100(), geom.clone(), scheme.clone(), 0.8)
                    .with_cpu_threads(2);
            single.init_with(shear_init);
            let mut multi: MultiSparseMrSim<D2Q9> =
                MultiSparseMrSim::new(DeviceSpec::v100(), geom, scheme, 0.8, 4).with_cpu_threads(2);
            multi.init_with(shear_init);
            single.run(8);
            multi.run(8);
            assert_eq!(single.field_checksum(), multi.field_checksum());
        }
    }

    /// The tentpole wire-byte claim: per-tile transfers sum to (cut-column
    /// fluid nodes) × payload, so interconnect traffic scales with the
    /// fluid population of the cut columns — not the box cross-section —
    /// and the MR exchange carries M/Q of the ST bytes.
    #[test]
    fn halo_bytes_scale_with_fluid_count_not_box_volume() {
        // Solid band across the lower half of every column: the cut
        // columns' fluid population halves, and so must the wire bytes.
        let mut geom = Geometry::walls_y_periodic_x(16, 18);
        for y in 1..9 {
            for x in 0..16 {
                geom.set(x, y, 0, NodeType::Wall);
            }
        }
        let full = Geometry::walls_y_periodic_x(16, 18);
        let steps = 5;

        let run_st = |g: Geometry| {
            let mut m: MultiSparseStSim<D2Q9, _> =
                MultiSparseStSim::new(DeviceSpec::v100(), g, Projective::new(0.8), 2)
                    .with_cpu_threads(2);
            m.run(steps);
            assert_eq!(
                m.interconnect().total_link_bytes(),
                steps as u64 * m.halo_bytes_per_step(),
                "per-tile transfers must sum to the analytic halo traffic"
            );
            m.halo_bytes_per_step()
        };
        // 2 shards periodic: 4 transfers/step. Full box: 16 fluid/column.
        assert_eq!(run_st(full.clone()), 4 * 16 * 9 * 8);
        // Half-solid box: 8 fluid/column — wire bytes halve with porosity.
        assert_eq!(run_st(geom.clone()), 4 * 8 * 9 * 8);

        // Sparse MR moves M·8 per halo node instead of Q·8.
        let mut mr: MultiSparseMrSim<D2Q9> =
            MultiSparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 2)
                .with_cpu_threads(2);
        mr.run(steps);
        assert_eq!(mr.halo_bytes_per_step(), 4 * 8 * 6 * 8);
        assert_eq!(
            mr.interconnect().total_link_bytes(),
            steps as u64 * mr.halo_bytes_per_step()
        );
    }

    /// The exchange plan compiled at construction is the walk of the cut
    /// columns it replaced — same transfers, same order, same node pairs —
    /// on a cut through 50 % rock whose shards are 25 columns wide, so the
    /// left ghost breaks the first tile column's active runs and the right
    /// ghost (x = 24 alone in its tile column) leaves stored tiles with no
    /// active node.
    #[test]
    fn exchange_plan_matches_a_walk_of_the_cut_columns() {
        let mut geom = Geometry::walls_y_periodic_x(46, 24);
        for idx in 0..geom.len() {
            let (x, y, _) = geom.coords(idx);
            let h = (x * 7919 + y * 104_729 + 17).wrapping_mul(2_654_435_761);
            if (h >> 7) % 100 < 50 {
                geom.set(x, y, 0, NodeType::Wall);
            }
        }
        let sim: MultiSparseMrSim<D2Q9> =
            MultiSparseMrSim::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 2);
        for sh in &sim.shards {
            let tiles = sh.index.tiles();
            assert!(tiles.iter().any(|t| t.active_runs().count() > 1));
            let stored: usize = tiles.iter().map(|t| (t.hi - t.lo) as usize).sum();
            assert!(stored < sh.index.len(), "ghost-only tiles keep storage");
        }
        let mut want = Vec::new();
        for tr in sim.decomp.halo_transfers() {
            let (src, dst) = (&sim.shards[tr.from], &sim.shards[tr.to]);
            for y in 0..src.geom.ny {
                let scid = src.index.compact[src.geom.idx(tr.src_lx, y, 0)];
                if scid != usize::MAX {
                    let dcid = dst.index.compact[dst.geom.idx(tr.dst_lx, y, 0)];
                    want.push((tr.from, tr.to, scid as u32, dcid as u32));
                }
            }
        }
        let got: Vec<_> = sim
            .plan
            .iter()
            .flat_map(|t| t.pairs.iter().map(|&(s, d)| (t.from, t.to, s, d)))
            .collect();
        assert_eq!(got, want);
        assert!(sim.plan.iter().all(|t| !t.pairs.is_empty()));
        assert_eq!(sim.halo_bytes_per_step(), (got.len() * 6 * 8) as u64);
    }

    /// LBCK round-trips for both sharded sparse flavors are bitwise.
    #[test]
    fn checkpoint_roundtrips_are_bitwise() {
        let geom = obstacle_geom();
        let mk_st = || {
            let mut s: MultiSparseStSim<D2Q9, _> =
                MultiSparseStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2)
                    .with_cpu_threads(1);
            s.init_with(shear_init);
            s
        };
        let mut a = mk_st();
        a.run(4);
        let snap = a.checkpoint();
        a.run(3);
        let mut b = mk_st();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 4);
        b.run(3);
        assert_eq!(a.field_checksum(), b.field_checksum());

        let mk_mr = || {
            let mut s: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
                DeviceSpec::v100(),
                geom.clone(),
                MrScheme::projective(),
                0.8,
                3,
            )
            .with_cpu_threads(1);
            s.init_with(shear_init);
            s
        };
        let mut a = mk_mr();
        a.run(4);
        let snap = a.checkpoint();
        a.run(3);
        let mut b = mk_mr();
        b.restore(&snap).unwrap();
        b.run(3);
        assert_eq!(a.field_checksum(), b.field_checksum());
        // Mismatched flavor is refused.
        assert!(b.restore(&mk_st().checkpoint()).is_err());
    }

    /// Typed build errors for the service layer: unsupported node types and
    /// all-solid domains are rejected without panicking.
    #[test]
    fn try_new_surfaces_typed_errors() {
        let geom = Geometry::channel_2d(12, 8, 0.04);
        let err = MultiSparseStSim::<D2Q9, Projective>::try_new(
            DeviceSpec::v100(),
            geom.clone(),
            Projective::new(0.8),
            2,
        )
        .err()
        .expect("inlet geometry must be rejected");
        assert!(
            matches!(err, SparseBuildError::UnsupportedNode(_)),
            "{err:?}"
        );
        let err = MultiSparseMrSim::<D2Q9>::try_new(
            DeviceSpec::v100(),
            geom,
            MrScheme::projective(),
            0.8,
            2,
        )
        .err()
        .expect("inlet geometry must be rejected");
        assert!(
            matches!(err, SparseBuildError::UnsupportedNode(_)),
            "{err:?}"
        );
    }

    fn strict(sh: &mut SparseShard) {
        let blank = [GlobalBuffer::new(0), GlobalBuffer::new(0)];
        let bufs = std::mem::replace(&mut sh.bufs, blank);
        sh.bufs = bufs.map(GlobalBuffer::with_racecheck_strict);
    }

    /// Three device threads with two pooled launch threads each trip no
    /// strict race check in either sparse driver, and land on the
    /// one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run_st = |threads: usize, check: bool| {
            let mut multi: MultiSparseStSim<D2Q9, _> =
                MultiSparseStSim::new(DeviceSpec::v100(), obstacle_geom(), Projective::new(0.8), 3)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if check {
                multi.shards.iter_mut().for_each(strict);
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run_st(6, true), run_st(1, false));
        let run_mr = |threads: usize, check: bool| {
            let mut multi: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
                DeviceSpec::v100(),
                obstacle_geom(),
                MrScheme::projective(),
                0.8,
                3,
            )
            .with_cpu_threads(threads)
            .with_parallel_threshold(0);
            if check {
                multi.shards.iter_mut().for_each(strict);
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run_mr(6, true), run_mr(1, false));
    }
}

//! Multi-device sparse (indirect-addressing) drivers: slab-sharded
//! fluid-compacted ST and MR with **per-tile** halo exchange.
//!
//! Every shard is a [`SparseSt`] / [`SparseMr`] on its slab: its own tiled
//! `FluidIndex` over the local geometry (ghost columns stored, dropped from
//! the active lists) and its own link table, so the per-shard update is
//! exactly the single-device sparse kernel over the owned nodes. What is
//! specific to the pair is the *plan*: every sender tile holding nodes of
//! an exchanged column issues its own transfer, sized by *that tile's* fluid
//! count in the column (`tile_plan`). Summed over tiles this is the
//! column's fluid count — the wire bytes scale with the fluid-node
//! population of the cut, not the bounding-box cross-section, which is the
//! sparse-storage argument extended to the interconnect:
//!
//! ```text
//!   bytes/cut/step = (fluid nodes in cut column) × Q·8   (sparse ST)
//!                  = (fluid nodes in cut column) × M·8   (sparse MR)
//! ```
//!
//! The schedule is the shared one with everything in its first phase: tiles
//! are not sorted by distance from a cut, so the whole update precedes the
//! exchange. That is also why a sparse MR shard is double-buffered where
//! the single-device driver updates in place (see `SparseMr`). Two frozen
//! formats set the pair apart: their blobs carry no overlap words, and a
//! build can fail with a typed [`SparseBuildError`] ([`check_slabs`]).

use super::decomp::SlabDecomp;
use super::ring::Ring;
use super::slabs::{column_plan, Slabs, Transfer};
use crate::driver::{DriverBody, Owned, Sim, SlabBody};
use crate::scheme::MrScheme;
use crate::sparse::{validate_sparse_geometry, FluidIndex, SparseBuildError, SparseSt};
use crate::sparse_mr::SparseMr;
use gpu_sim::DeviceSpec;
use lbm_core::collision::Collision;
use lbm_core::geometry::Geometry;
use lbm_lattice::Lattice;

/// What a sharded sparse build refuses, decided from the geometry alone (so
/// `lbm-serve` runs it at submit): node types the link table cannot express,
/// and a slab that owns no fluid node — its device would have nothing to
/// launch.
pub fn check_slabs(decomp: &SlabDecomp) -> Result<(), SparseBuildError> {
    let g = decomp.global();
    validate_sparse_geometry(g)?;
    let owns_fluid = |s: &super::Slab| {
        (s.x0..s.x0 + s.width)
            .any(|x| (0..g.ny * g.nz).any(|k| g.node(x, k % g.ny, k / g.ny).is_fluid_like()))
    };
    if decomp.slabs().iter().all(owns_fluid) {
        Ok(())
    } else {
        Err(SparseBuildError::NoFluidNodes)
    }
}

/// Compile the per-step exchange of a fluid-compacted pattern: every column
/// transfer of [`column_plan`], in compact ids, split into one [`Transfer`]
/// per sender tile with nodes in the column, in tile order. Compact ids are
/// assigned tile by tile, so the column's pairs sorted by source id split at
/// the tile spans.
fn tile_plan<B: DriverBody>(
    decomp: &SlabDecomp,
    shards: &[B],
    index: impl Fn(&B) -> &FluidIndex,
) -> Vec<Transfer> {
    let mut plan = Vec::new();
    for Transfer { from, to, pairs } in column_plan(decomp, shards) {
        let (src, dst) = (index(&shards[from]), index(&shards[to]));
        let mut column: Vec<_> = pairs
            .iter()
            .map(|&(si, di)| (src.compact[si], dst.compact[di]))
            .collect();
        column.sort_unstable();
        let mut rest = &column[..];
        for tile in src.tiles() {
            let k = rest.partition_point(|&(scid, _)| scid < tile.hi as usize);
            if k > 0 {
                assert!(
                    rest[0].0 >= tile.lo as usize,
                    "exchanged node in an inactive tile"
                );
                plan.push(Transfer {
                    from,
                    to,
                    pairs: rest[..k].to_vec(),
                });
                rest = &rest[k..];
            }
        }
        assert!(rest.is_empty(), "exchanged node in an inactive tile");
    }
    plan
}

/// The one sharded sparse constructor: check the slabs, build a body on
/// each, compile the per-tile plan, host the lot on a ring.
fn build<B: SlabBody>(
    device: DeviceSpec,
    geom: Geometry,
    n: usize,
    index: impl Fn(&B) -> &FluidIndex,
    on_slab: impl Fn(Owned, Geometry) -> Result<B, SparseBuildError>,
) -> Result<Sim<Slabs<B>>, SparseBuildError> {
    let decomp = SlabDecomp::new(geom, n);
    check_slabs(&decomp)?;
    let shards = decomp
        .boxes()
        .map(|(owned, g)| on_slab(owned, g))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = tile_plan(&decomp, &shards, index);
    let body = Slabs::new(decomp, shards, plan);
    Ok(Sim::from_body(Ring::new(device, n), body))
}

/// Slab-sharded sparse ST simulation across N simulated devices.
pub type MultiSparseStSim<L, C> = Sim<Slabs<SparseSt<L, C>>>;

impl<L: Lattice, C: Collision<L> + Clone> MultiSparseStSim<L, C> {
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
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        build(device, geom, n, SparseSt::index, |owned, g| {
            SparseSt::on_slab(owned, g, collision.clone())
        })
    }
}

/// Slab-sharded sparse MR simulation (MR-P or MR-R) across N devices.
pub type MultiSparseMrSim<L> = Sim<Slabs<SparseMr<L>>>;

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
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        let sms = device.sm_count as usize;
        build(device, geom, n, SparseMr::index, |owned, g| {
            SparseMr::on_slab(owned, g, scheme.clone(), tau, sms)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::slabs::checks;
    use crate::{MrSim2D, SparseMrSim2D, StSparseSim};
    use lbm_core::collision::Projective;
    use lbm_core::geometry::NodeType;
    use lbm_core::Simulation;
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

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn sparse_st(geom: Geometry, shards: usize) -> MultiSparseStSim<D2Q9, Projective> {
        MultiSparseStSim::new(v100(), geom, Projective::new(0.8), shards)
    }

    fn sparse_mr(geom: Geometry, shards: usize) -> MultiSparseMrSim<D2Q9> {
        MultiSparseMrSim::new(v100(), geom, MrScheme::projective(), 0.8, shards)
    }

    /// Sharded sparse ST is bitwise identical to the single-device sparse
    /// driver on an obstacle domain: ghosts carry exact doubles and the
    /// per-node pull arithmetic is decomposition-independent.
    #[test]
    fn multi_sparse_st_matches_single_bitwise() {
        let geom = obstacle_geom();
        checks::matches_single(
            StSparseSim::<D2Q9, _>::new(v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2),
            sparse_st(geom, 3).with_cpu_threads(2),
            Some(shear_init),
            &[10],
        );
    }

    /// Sharded sparse MR is bitwise identical to the single-device sparse
    /// MR driver (which is itself bitwise-equal to dense MR), for both
    /// collision schemes.
    #[test]
    fn multi_sparse_mr_matches_single_bitwise() {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let geom = obstacle_geom();
            checks::matches_single(
                SparseMrSim2D::new(v100(), geom.clone(), scheme.clone(), 0.8).with_cpu_threads(2),
                MultiSparseMrSim::<D2Q9>::new(v100(), geom, scheme, 0.8, 4).with_cpu_threads(2),
                Some(shear_init),
                &[8],
            );
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
        let exact = |g: Geometry, per_step: u64| {
            checks::halo_bytes_exact(
                sparse_st(g, 2).with_cpu_threads(2),
                steps,
                Slabs::halo_bytes_per_step,
                per_step,
                steps as u64 * per_step,
            )
        };
        // 2 shards periodic: 4 transfers/step. Full box: 16 fluid/column.
        exact(full, 4 * 16 * 9 * 8);
        // Half-solid box: 8 fluid/column — wire bytes halve with porosity.
        exact(geom.clone(), 4 * 8 * 9 * 8);
        // Sparse MR moves M·8 per halo node instead of Q·8.
        checks::halo_bytes_exact(
            sparse_mr(geom, 2).with_cpu_threads(2),
            steps,
            Slabs::halo_bytes_per_step,
            4 * 8 * 6 * 8,
            steps as u64 * 4 * 8 * 6 * 8,
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
        let decomp = SlabDecomp::new(geom.clone(), 2);
        let sim = sparse_mr(geom, 2);
        let shards = &sim.body.shards;
        for sh in shards {
            let tiles = sh.index().tiles();
            assert!(tiles.iter().any(|t| t.active_runs().count() > 1));
            let stored: usize = tiles.iter().map(|t| (t.hi - t.lo) as usize).sum();
            assert!(stored < sh.index().len(), "ghost-only tiles keep storage");
        }
        let mut want = Vec::new();
        for tr in decomp.halo_transfers() {
            let (src, dst) = (&shards[tr.from], &shards[tr.to]);
            for y in 0..src.geom().ny {
                let scid = src.index().compact[src.geom().idx(tr.src_lx, y, 0)];
                if scid != usize::MAX {
                    let dcid = dst.index().compact[dst.geom().idx(tr.dst_lx, y, 0)];
                    want.push((tr.from, tr.to, scid, dcid));
                }
            }
        }
        let plan = &sim.body.plan;
        let got: Vec<_> = plan
            .iter()
            .flat_map(|t| t.pairs.iter().map(|&(s, d)| (t.from, t.to, s, d)))
            .collect();
        assert_eq!(got, want);
        assert!(plan.iter().all(|t| !t.pairs.is_empty()));
        assert_eq!(sim.halo_bytes_per_step(), (got.len() * 6 * 8) as u64);
    }

    /// Blocks that walk several tiles on a cut through rock: 46×300 at
    /// 50 % in two 25-column local boxes gives each shard 114 walked tiles
    /// for V100's 80 blocks, the left ghost breaking runs and the right
    /// ghost's tile column stored between walked tiles but walked by no
    /// block. At every step, step 0 included, the lane kernel on 1, 2 and 3
    /// threads under the strict race checker and the scalar kernel match
    /// solo sparse MR and dense MR FNV-bitwise.
    #[test]
    fn multi_tile_blocks_on_a_cut_through_rock() {
        let mut geom = Geometry::walls_y_periodic_x(46, 300);
        for idx in 0..geom.len() {
            let (x, y, _) = geom.coords(idx);
            let h = (x * 7919 + y * 104_729 + 17).wrapping_mul(2_654_435_761);
            if (h >> 7) % 100 < 50 {
                geom.set(x, y, 0, NodeType::Wall);
            }
        }
        let mk = |threads| {
            sparse_mr(geom.clone(), 2)
                .with_cpu_threads(threads)
                .with_parallel_threshold(0)
        };
        let mut lanes: Vec<_> = (1..=3).map(mk).collect();
        for sim in &mut lanes {
            sim.body
                .shards
                .iter_mut()
                .for_each(SparseMr::set_racecheck_strict);
        }
        for sh in &lanes[0].body.shards {
            let tiles = sh.index().tiles();
            assert_eq!((tiles.len(), v100().sm_count), (114, 80));
            assert!(tiles.iter().any(|t| t.active_runs().count() > 1));
            let walked: usize = tiles.iter().map(|t| (t.hi - t.lo) as usize).sum();
            assert!(walked < sh.index().len(), "ghost-only tiles keep storage");
        }
        let mut scalar = mk(1).with_scalar_kernels();
        let mrp = MrScheme::projective;
        let mut solo = SparseMrSim2D::new(v100(), geom.clone(), mrp(), 0.8);
        let mut dense: MrSim2D<D2Q9> = MrSim2D::new(v100(), geom, mrp(), 0.8);
        dense.init_with(shear_init);
        solo.init_with(shear_init);
        scalar.init_with(shear_init);
        lanes.iter_mut().for_each(|s| s.init_with(shear_init));
        let mut all: Vec<&mut dyn Simulation> = vec![&mut dense, &mut solo, &mut scalar];
        all.extend(lanes.iter_mut().map(|s| s as &mut dyn Simulation));
        for step in 0..=4 {
            if step > 0 {
                all.iter_mut().for_each(|s| s.step());
            }
            let want = all[0].field_checksum();
            for (k, s) in all.iter().enumerate() {
                assert_eq!(
                    s.field_checksum(),
                    want,
                    "run {k} vs dense MR at step {step}"
                );
            }
        }
    }

    /// LBCK round-trips for both sharded sparse flavors are bitwise.
    #[test]
    fn checkpoint_roundtrips_are_bitwise() {
        let geom = obstacle_geom();
        let mk_st = || {
            let mut s = sparse_st(geom.clone(), 2).with_cpu_threads(1);
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
            let mut s = sparse_mr(geom.clone(), 3).with_cpu_threads(1);
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

    /// Typed build errors for the service layer: unsupported node types,
    /// all-solid domains and a slab that owns nothing but rock are rejected
    /// without panicking, at build and not at the first launch.
    #[test]
    fn try_new_surfaces_typed_errors() {
        let st = |g: &Geometry, n| {
            MultiSparseStSim::<D2Q9, _>::try_new(v100(), g.clone(), Projective::new(0.8), n).err()
        };
        let mr = |g: &Geometry, n| {
            MultiSparseMrSim::<D2Q9>::try_new(v100(), g.clone(), MrScheme::projective(), 0.8, n)
                .err()
        };
        let inlet = Geometry::channel_2d(12, 8, 0.04);
        for err in [st(&inlet, 2), mr(&inlet, 2)] {
            let err = err.expect("inlet geometry must be rejected");
            assert!(
                matches!(err, SparseBuildError::UnsupportedNode(_)),
                "{err:?}"
            );
        }
        // Fluid in columns 0..8 only: shard 0 of two is fine, and of four
        // shards the third owns rock and mirrors rock, the fourth owns rock
        // but its right ghost wraps around to fluid.
        let mut half = Geometry::walls_y_periodic_x(16, 6);
        for y in 1..5 {
            for x in 8..16 {
                half.set(x, y, 0, NodeType::Wall);
            }
        }
        assert!(st(&half, 1).is_none() && mr(&half, 1).is_none());
        for n in [2, 4] {
            assert_eq!(st(&half, n), Some(SparseBuildError::NoFluidNodes), "x{n}");
            assert_eq!(mr(&half, n), Some(SparseBuildError::NoFluidNodes), "x{n}");
        }
    }

    /// Three device threads with two pooled launch threads each trip no
    /// strict race check in either sparse driver, and land on the
    /// one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        checks::racecheck_clean(
            || sparse_st(obstacle_geom(), 3),
            SparseSt::set_racecheck_strict,
            shear_init,
            6,
            6,
        );
        checks::racecheck_clean(
            || sparse_mr(obstacle_geom(), 3),
            SparseMr::set_racecheck_strict,
            shear_init,
            6,
            6,
        );
    }
}

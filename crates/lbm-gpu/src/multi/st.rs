//! Multi-device ST: slab-sharded standard representation with
//! distribution-space halo exchange (`Q·8` bytes per halo node).
//!
//! Every shard is an [`St`] on its slab, so it runs the pull-scheme update
//! of `StSim` over its owned span and the sharded trajectory is *bitwise*
//! identical to the single-device one. Nothing about its exchange is
//! special: whole nodes, the shared two-phase schedule of [`super::slabs`]
//! (one strip launch per cut-adjacent column, then the interior).

use super::decomp::SlabDecomp;
use super::ring::Ring;
use super::slabs::{column_plan, Slabs};
use crate::boundary::boundary_nodes;
use crate::driver::Sim;
use crate::st::St;
use gpu_sim::DeviceSpec;
use lbm_core::collision::Collision;
use lbm_core::geometry::Geometry;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// Slab-sharded ST simulation across N simulated devices.
pub type MultiStSim<L, C> = Sim<Slabs<St<L, C>>>;

impl<L: Lattice, C: Collision<L> + Clone> MultiStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards: Vec<_> = decomp
            .boxes()
            .map(|(owned, g)| St::on_slab(owned, g, collision.clone()))
            .collect();
        let plan = column_plan(&decomp, &shards);
        Sim::from_body(Ring::new(device, n), Slabs::new(decomp, shards, plan))
    }
}

impl<L: Lattice, C: Collision<L>> Slabs<St<L, C>> {
    /// Distribution at a global node (current state, owner shard).
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let (sh, lx) = self.owner(x);
        sh.f_at(lx, y, z)
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

/// Inlet/outlet domains constrain the decomposition: the FD stencil of an
/// edge shard reads two columns inward (so edge shards must own ≥ 3), and
/// no cut-adjacent column may itself be a boundary column (so every shard
/// must own ≥ 2).
pub(crate) fn check_boundary_widths(decomp: &SlabDecomp) {
    if boundary_nodes(decomp.global()).is_empty() {
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
    use crate::multi::slabs::checks;
    use crate::StSim;
    use lbm_core::collision::{Bgk, Projective};
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

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    /// Sharded ST is bitwise identical to single-device ST on a periodic-x
    /// channel — same pull arithmetic, ghosts carry exact doubles.
    #[test]
    fn multi_matches_single_bitwise_2d() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let op = Projective::new(0.8);
        checks::matches_single(
            StSim::<D2Q9, _>::new(v100(), geom.clone(), op).with_cpu_threads(2),
            MultiStSim::<D2Q9, _>::new(v100(), geom, op, 4).with_cpu_threads(2),
            Some(shear_init),
            &[10],
        );
    }

    /// Same with an inlet/outlet channel: the BC kernel runs on the edge
    /// shards only and still matches bitwise.
    #[test]
    fn multi_matches_single_bitwise_channel() {
        let geom = Geometry::channel_2d(20, 10, 0.04);
        checks::matches_single(
            StSim::<D2Q9, _>::new(v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(2),
            MultiStSim::<D2Q9, _>::new(v100(), geom, Bgk::new(0.8), 3).with_cpu_threads(2),
            None,
            &[12],
        );
    }

    /// 3D duct across 2 devices.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = Geometry::channel_3d(12, 7, 7, 0.03);
        let (dev, op) = (DeviceSpec::mi100, Projective::new(0.7));
        checks::matches_single(
            StSim::<D3Q19, _>::new(dev(), geom.clone(), op).with_cpu_threads(2),
            MultiStSim::<D3Q19, _>::new(dev(), geom, op, 2).with_cpu_threads(2),
            None,
            &[6],
        );
    }

    /// Halo traffic: each direction of each cut carries exactly
    /// (fluid column nodes)·Q·8 bytes per step.
    #[test]
    fn halo_bytes_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let multi = MultiStSim::<D2Q9, _>::new(v100(), geom, Projective::new(0.8), 2);
        // n = 2 periodic: 4 transfers/step, 8 fluid nodes per column.
        let per_step = 4 * 8 * 9 * 8;
        checks::halo_bytes_exact(
            multi.with_cpu_threads(2),
            5,
            Slabs::halo_bytes_per_step,
            per_step,
            5 * per_step,
        );
    }

    /// Overlap stats: interior covers the exchange on a wide domain.
    #[test]
    fn overlap_stats_accumulate() {
        let geom = Geometry::walls_y_periodic_x(64, 16);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(v100(), geom, Projective::new(0.8), 2).with_cpu_threads(2);
        multi.run(3);
        let s = multi.stats();
        assert_eq!(s.steps, 3);
        assert!(s.boundary_s > 0.0 && s.interior_s > 0.0 && s.exchange_s > 0.0);
        assert!(s.total_s >= s.boundary_s + s.interior_s.max(s.exchange_s));
        assert!(s.overlap_efficiency() > 0.0 && s.overlap_efficiency() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "FD boundaries need ≥ 3")]
    fn narrow_edge_shards_rejected_for_channels() {
        let geom = Geometry::channel_2d(8, 6, 0.04);
        let _ = MultiStSim::<D2Q9, _>::new(v100(), geom, Bgk::new(0.8), 4);
    }

    /// Four device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        checks::racecheck_clean(
            || MultiStSim::<D2Q9, _>::new(v100(), geom.clone(), Projective::new(0.8), 4),
            St::set_racecheck_strict,
            shear_init,
            8,
            6,
        );
    }
}

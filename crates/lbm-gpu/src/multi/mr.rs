//! Multi-device MR: slab-sharded moment representation with *moment-space*
//! halo exchange — `M·8` bytes per halo node instead of the ST pattern's
//! `Q·8`, the paper's bandwidth argument extended to the interconnect
//! (96 vs 144 bytes for D2Q9, 80 vs 152 for D3Q19).
//!
//! Every shard is an [`Mr`] on its slab (`Mr::on_slab`): the column walker
//! of [`crate::mr`] with a footprint chosen for the owned width, so one
//! body serves every dimension. Two things are specific to the pattern, and
//! both live with its storage. A shard stores two shift-0 moment lattices
//! and alternates between them, where the single-device `MrSim` updates one
//! in place under circular shifting: that is only safe when a whole step is
//! one lockstep launch, and a shard's step is a strip launch *then* an
//! interior launch, the later of which would clobber slots the earlier
//! still needed (`MrSim`'s `double_buffer_matches_single` test proves the
//! trajectory is bitwise unchanged). And its strips are column *blocks* —
//! the first and last owned footprint, whose halo reads a ghost column —
//! not single columns. The exchange itself is the shared one.

use super::decomp::SlabDecomp;
use super::ring::Ring;
use super::slabs::{column_plan, Slabs};
use super::st::check_boundary_widths;
use crate::driver::Sim;
use crate::mr::Mr;
use crate::scheme::MrScheme;
use gpu_sim::DeviceSpec;
use lbm_core::geometry::Geometry;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// Slab-sharded MR simulation (MR-P or MR-R) across N devices.
pub type MultiMrSim<L> = Sim<Slabs<Mr<L>>>;
/// [`MultiMrSim`] under its 2D name.
pub type MultiMrSim2D<L> = MultiMrSim<L>;
/// [`MultiMrSim`] under its 3D name.
pub type MultiMrSim3D<L> = MultiMrSim<L>;

impl<L: Lattice> MultiMrSim<L> {
    /// Shard a channel- or duct-type geometry (walls on the y and, in 3D,
    /// z extreme faces) across `n` devices. Initialized to equilibrium at
    /// rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards: Vec<_> = decomp
            .boxes()
            .map(|(owned, g)| Mr::on_slab(&device, owned, g, scheme.clone(), tau))
            .collect();
        let plan = column_plan(&decomp, &shards);
        Sim::from_body(Ring::new(device, n), Slabs::new(decomp, shards, plan))
    }

    /// Moments at a global node (owner shard, current time).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        let (sh, lx) = self.body.owner(x);
        sh.moments_at(self.steps(), lx, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverBody;
    use crate::multi::slabs::checks::{self, Init};
    use crate::MrSim;
    use gpu_sim::FaultPlan;
    use lbm_core::geometry::NodeType;
    use lbm_lattice::{D2Q9, D3Q19};
    use std::sync::Arc;

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

    /// MR-P on a periodic-x channel over four shards and a periodic-x duct
    /// over three: the ghost moments are exact copies and the column
    /// kernel's per-node arithmetic is decomposition-independent.
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
            checks::matches_single(single, multi, Some(init), &[steps]);
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
        checks::matches_single(single, multi, None, &[12]);
    }

    /// The moment-space exchange moves exactly M/Q of the ST halo bytes:
    /// `M·8` = 48 of 72 per D2Q9 halo node, 80 of 152 per D3Q19 one.
    #[test]
    fn halo_bytes_are_m_per_node() {
        fn check<L: Lattice>(dev: DeviceSpec, geom: Geometry, steps: usize, per_step: u64) {
            let multi: MultiMrSim<L> =
                MultiMrSim::new(dev, geom, MrScheme::projective(), 0.8, 2).with_cpu_threads(2);
            checks::halo_bytes_exact(
                multi,
                steps,
                Slabs::halo_bytes_per_step,
                per_step,
                steps as u64 * per_step,
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
            checks::racecheck_clean(
                || sharded::<L>(geom.clone(), shards),
                Mr::set_racecheck_strict,
                init,
                2 * shards,
                steps,
            );
        }
        check::<D2Q9>(walled(16, 8, 1), 4, shear_2d, 6);
        check::<D3Q19>(walled(12, 8, 8), 3, shear_3d, 4);
        // Scattered rock: chunks mix span-scattered bulk lanes with
        // node-scattered ones, and the cut at x = 12 runs through it.
        let mut rock = walled(24, 10, 1);
        for (x, y) in (0..24).flat_map(|x| (1..9).map(move |y| (x, y))) {
            if (7 * x + 13 * y) % 5 == 0 {
                rock.set(x, y, 0, NodeType::Wall);
            }
        }
        check::<D2Q9>(rock, 2, shear_2d, 6);
    }

    /// A kernel that panics on one shard's device thread reaches the thread
    /// that called `step`, leaves no span open on any thread, and the
    /// driver still drops. The panic is injected into one shard's lattices
    /// only: a plan on the ring itself would step the shards one after
    /// another on the calling thread.
    #[test]
    fn kernel_panic_in_one_shard_surfaces_on_the_stepping_thread() {
        fn check<L: Lattice>(geom: Geometry, shards: usize, init: Init) {
            let hub = obs::Obs::shared();
            let mut multi = sharded::<L>(geom, shards)
                .with_cpu_threads(shards)
                .with_obs(hub.clone());
            multi.init_with(init);
            multi.run(2);
            let victim = &mut multi.body.shards[shards - 2];
            // ρ of an interior fluid node: written once per step.
            let cell = victim.geom().idx(2, 3, victim.geom().nz / 2);
            let mut plan = FaultPlan::new();
            plan.inject_panic(cell, 0);
            victim.set_fault_plan(Arc::new(plan));
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

//! Multi-device AA-pattern ST: slab-sharded in-place propagation with
//! parity-aware halo exchange.
//!
//! Every shard is an [`AaSt`] on its slab: **one** `Q·8`-per-node lattice
//! (half of [`super::MultiStSim`]'s residency) running the two half-steps of
//! [`crate::AaStSim`] over its owned span. What is specific to the
//! pattern is the whole exchange — a different algorithm from the shared
//! whole-node one of [`super::slabs`], not a copy of it:
//!
//! * **Stream half-step** (even `t`): the edge nodes *gather* from the
//!   ghost column and *push* into it, so the cut protocol is two partial
//!   exchanges around one launch. Pre-exchange: each owned edge column's
//!   cut-crossing slots (`{s : c_s·x̂ = −1}` for a left ghost, `+1` for a
//!   right ghost — the slots the neighbor's gather reads) are copied into
//!   the adjacent ghost. Post-exchange: the same slots of each ghost — now
//!   holding the neighbor-bound *pushes* — are copied back into the owner's
//!   edge column, but only the cells a `Fluid` node pushed; where the
//!   pushing node is not `Fluid` (a wall or the domain edge sits across
//!   the cut), the owner already stored the value itself through the local
//!   bounce rules and the ghost slot is stale. The geometry is static, so
//!   both lists of cells are compiled once, at construction (`slot_plan`).
//! * **Collide half-step** (odd `t`): node-local, no exchange at all.
//!
//! Only `REACH = 1` cut-crossing slots move: 3 of 9 (D2Q9) or 5 of 19
//! (D3Q19) populations, twice per two-step cycle — 2·3/9 = ⅔ of one ST
//! exchange per cycle where ST pays 2 full-`Q` exchanges, a 3× wire
//! saving on top of the halved residency. The cost: the stream launch both
//! reads and writes the cut columns, so neither exchange can overlap
//! compute (the stats record the exchange as exposed time).
//!
//! Bitwise: every per-node read resolves to the same value the
//! single-device [`crate::AaStSim`] reads, so the sharded trajectory is
//! identical with `==`, at both parities.

use super::decomp::SlabDecomp;
use super::ring::{Ring, StepCx};
use super::slabs::{column_plan, Slabs, Transfer};
use super::stats::{device_time_s, exchange_time_s};
use crate::aa::AaSt;
use crate::driver::{DriverBody, Part, Sim};
use gpu_sim::interconnect::LinkError;
use gpu_sim::DeviceSpec;
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// Slab-sharded AA-pattern ST simulation across N simulated devices.
pub type MultiAaStSim<L, C> = Sim<Slabs<AaSt<L, C>>>;

impl<L: Lattice, C: Collision<L> + Clone> MultiAaStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        let decomp = SlabDecomp::new(geom, n);
        let shards: Vec<_> = decomp
            .boxes()
            .map(|(owned, g)| AaSt::on_slab(owned, g, collision.clone()))
            .collect();
        let plan = slot_plan(&decomp, &shards);
        Sim::from_body(Ring::new(device, n), Slabs::new(decomp, shards, plan))
    }

    /// Distribution at a global node, un-permuted to natural direction
    /// order regardless of the current parity.
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let (sh, lx) = self.body.owner(x);
        sh.f_at(self.steps(), lx, y, z)
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

/// Storage slots whose direction has x-component `dir`: what crosses a cut
/// towards (`+1`) or from (`−1`) the right.
fn crossing_slots<L: Lattice>(dir: i32) -> Vec<usize> {
    (0..L::Q).filter(|&s| L::C[s][0] == dir).collect()
}

/// The AA exchange (module docs) as `(source cell, destination cell)`
/// pairs: of the `2m` transfers, `k < m` is directed cut transfer `k` of
/// [`column_plan`] over its crossing slots, and `m + k` sends back from its
/// ghosts the cells a `Fluid` node pushed.
fn slot_plan<L: Lattice, C: Collision<L>>(
    decomp: &SlabDecomp,
    shards: &[AaSt<L, C>],
) -> Vec<Transfer> {
    let (mut pre, mut post) = (Vec::new(), Vec::new());
    for Transfer { from, to, pairs } in column_plan(decomp, shards) {
        let (on, hg) = (shards[from].geom().len(), shards[to].geom());
        // The ghost's side decides which slots cross towards it.
        let ghost_left = pairs.first().is_some_and(|&(_, hi)| hg.coords(hi).0 == 0);
        let slots = crossing_slots::<L>(if ghost_left { -1 } else { 1 });
        let (mut there, mut back) = (Vec::new(), Vec::new());
        for (oi, hi) in pairs {
            let (x, y, z) = hg.coords(hi);
            for &s in &slots {
                let (owned, ghost) = (s * on + oi, s * hg.len() + hi);
                there.push((owned, ghost));
                let c = L::C[s];
                let pusher = hg.neighbor(x, y, z, [-c[0], -c[1], -c[2]]);
                if matches!(
                    pusher.map(|(p, q, r)| hg.node(p, q, r)),
                    Some(NodeType::Fluid)
                ) {
                    back.push((ghost, owned));
                }
            }
        }
        pre.push(Transfer {
            from,
            to,
            pairs: there,
        });
        post.push(Transfer {
            from: to,
            to: from,
            pairs: back,
        });
    }
    pre.append(&mut post);
    pre
}

impl<L: Lattice, C: Collision<L>> Slabs<AaSt<L, C>> {
    /// Run one exchange phase of the compiled plan ([`slot_plan`]); either
    /// phase ships the whole crossing-slot column over the link. Link
    /// tallies are recorded (with bounded retries) before each copy, so a
    /// failed transfer moves no data and a successful retry tallies exactly
    /// once.
    fn exchange_slots(
        &mut self,
        cx: &StepCx<'_>,
        phase: Phase,
    ) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let m = self.plan.len() / 2;
        let mut out = Vec::with_capacity(m);
        for k in 0..m {
            let bytes = (self.plan[k].pairs.len() * 8) as u64;
            let tr = &self.plan[if phase == Phase::Pre { k } else { m + k }];
            cx.transfer(k, &mut self.sent, tr.from, tr.to, bytes)?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            tr.pairs
                .iter()
                .for_each(|&(si, di)| src.send_cell(dst, si, di));
            out.push((tr.from, tr.to, bytes));
        }
        self.sent = 0;
        Ok(out)
    }

    /// Analytic interconnect traffic of one two-step AA cycle: each cut
    /// direction moves its crossing slots twice (pre + post) per stream
    /// half-step, and the collide half-step moves nothing.
    pub fn halo_bytes_per_cycle(&self) -> u64 {
        let pre = &self.plan[..self.plan.len() / 2];
        (2 * pre.iter().map(|tr| tr.pairs.len()).sum::<usize>() * 8) as u64
    }
}

/// One step of the sharded AA driver (`AaSt`'s `SlabBody::advance_slabs`).
///
/// A failure in the *pre*-exchange leaves no owned state mutated —
/// retrying the whole step is safe. A failure in the *post*-exchange
/// arrives after the in-place launch, so the step is parked half-done:
/// the next call finishes the pending exchange (idempotent: it only
/// reads ghosts and writes edge columns), and only then is the step
/// counted, instead of recomputing over clobbered inputs. The stats
/// record every exchange as exposed time — the launch both reads and
/// rewrites the cut columns, so nothing can overlap it — and a parked step
/// records its launch and pre-exchange when it completes, so its stats are
/// those of the step run without the failure.
pub(crate) fn advance<L: Lattice, C: Collision<L>>(
    slabs: &mut Slabs<AaSt<L, C>>,
    cx: &StepCx<'_>,
) -> Result<(), LinkError> {
    let launch_time =
        |bytes: Vec<u64>| device_time_s(cx.mg.spec(), bytes.into_iter().max().unwrap_or(0));
    let (launch_s, exchange_s) = if let Some((launch_s, pre_s)) = slabs.parked {
        let post = slabs.exchange_slots(cx, Phase::Post)?;
        slabs.parked = None;
        (launch_s, pre_s + exchange_time_s(cx.mg, &post))
    } else if cx.t.is_multiple_of(2) {
        // Stream half-step: pre-exchange, one in-place launch per
        // shard, post-exchange.
        let pre_span = cx.halo_span();
        let pre = slabs.exchange_slots(cx, Phase::Pre)?;
        drop(pre_span);
        let (launch_s, pre_s) = (
            launch_time(slabs.launch(cx, Part::Interior)),
            exchange_time_s(cx.mg, &pre),
        );
        let post_span = cx.halo_span();
        let post = slabs.exchange_slots(cx, Phase::Post).inspect_err(|_| {
            slabs.parked = Some((launch_s, pre_s));
        })?;
        drop(post_span);
        (launch_s, pre_s + exchange_time_s(cx.mg, &post))
    } else {
        // Collide half-step: node-local, no exchange.
        (launch_time(slabs.launch(cx, Part::Interior)), 0.0)
    };
    slabs.stats.record_step(0.0, launch_s, exchange_s, 0.0);
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Pre,
    Post,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::slabs::checks;
    use crate::AaStSim;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_core::io::CheckpointError;
    use lbm_lattice::{D2Q9, D3Q19};

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y + z) as f64 * 0.3).sin(),
            [
                0.03 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// Lid-driven-style domain: periodic x, wall bottom, moving lid top —
    /// exercises the MovingWall gain rules at the cut columns.
    fn lid_geom(nx: usize, ny: usize) -> Geometry {
        let mut g = Geometry::walls_y_periodic_x(nx, ny);
        for x in 0..nx {
            g.set(x, ny - 1, 0, NodeType::MovingWall([0.05, 0.0, 0.0]));
        }
        g
    }

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    /// Sharded AA is bitwise identical to single-device AA at *every* step
    /// count — both parities — including MovingWall gains at the cuts.
    #[test]
    fn multi_matches_single_bitwise_both_parities_2d() {
        let (geom, op) = (lid_geom(16, 8), Projective::new(0.8));
        checks::matches_single(
            AaStSim::<D2Q9, _>::new(v100(), geom.clone(), op).with_cpu_threads(2),
            MultiAaStSim::<D2Q9, _>::new(v100(), geom, op, 3).with_cpu_threads(2),
            Some(shear_init),
            &[7, 8],
        );
    }

    /// 3D walled duct across 2 devices, odd and even step counts.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let mut geom = Geometry::new(12, 7, 7, [true, false, false]);
        for z in 0..7 {
            for x in 0..12 {
                geom.set(x, 0, z, NodeType::Wall);
                geom.set(x, 6, z, NodeType::Wall);
            }
        }
        for y in 0..7 {
            for x in 0..12 {
                geom.set(x, y, 0, NodeType::Wall);
                geom.set(x, y, 6, NodeType::Wall);
            }
        }
        let dev = DeviceSpec::mi100;
        checks::matches_single(
            AaStSim::<D3Q19, _>::new(dev(), geom.clone(), Bgk::new(0.7)).with_cpu_threads(2),
            MultiAaStSim::<D3Q19, _>::new(dev(), geom, Bgk::new(0.7), 2).with_cpu_threads(2),
            Some(shear_init),
            &[5, 6],
        );
    }

    /// Per-cycle halo traffic: only the cut-crossing slots move (3 of 9
    /// for D2Q9), twice per stream step — 3× less wire than sharded ST
    /// over a two-step cycle. The link tally matches the analytic figure
    /// exactly, and the footprint is half of two-lattice sharding.
    #[test]
    fn halo_bytes_and_footprint_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mk = || {
            MultiAaStSim::<D2Q9, _>::new(v100(), geom.clone(), Projective::new(0.8), 2)
                .with_cpu_threads(2)
        };
        // n = 2 periodic: 2 cuts → 4 directed transfers, each crossing 3
        // slots over 8 fluid column nodes, pre + post per stream step.
        let per_cycle = 2 * 4 * 8 * 3 * 8;
        // Four steps are two full cycles.
        checks::halo_bytes_exact(
            mk(),
            4,
            Slabs::halo_bytes_per_cycle,
            per_cycle,
            2 * per_cycle,
        );
        // ST exchanges full-Q columns every step: 2 · 4 · 8 · 9 · 8 per
        // cycle — exactly 3× the AA wire traffic.
        let st_cycle = 2 * 4 * 8 * 9 * 8;
        assert_eq!(3 * mk().halo_bytes_per_cycle(), st_cycle);
        // One lattice per shard: shard lattices total (16 + 2·2) · 10 · 9
        // doubles (each shard owns 8 columns + 2 ghosts).
        assert_eq!(mk().footprint_bytes(), 20 * 10 * 9 * 8);
    }

    /// Checkpoint at odd parity restores bitwise mid-cycle; a two-lattice
    /// multi-ST snapshot is rejected as a foreign flavor.
    #[test]
    fn checkpoint_round_trips_at_odd_parity() {
        let geom = lid_geom(12, 6);
        let mk = || {
            let mut s: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(v100(), geom.clone(), Projective::new(0.8), 2)
                    .with_cpu_threads(2);
            s.init_with(shear_init);
            s
        };
        let mut a = mk();
        a.run(3);
        let snap = a.checkpoint();
        a.run(4);
        let mut b = mk();
        b.restore(&snap).unwrap();
        assert_eq!(b.steps(), 3);
        b.run(4);
        assert_eq!(a.field_checksum(), b.field_checksum());

        let st: crate::multi::MultiStSim<D2Q9, _> =
            crate::multi::MultiStSim::new(v100(), geom.clone(), Projective::new(0.8), 2);
        assert!(matches!(
            b.restore(&st.checkpoint()),
            Err(CheckpointError::WrongFlavor { .. })
        ));
    }

    /// Four device threads with two pooled launch threads each trip no
    /// strict race check on the in-place lattices, and land on the
    /// one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        checks::racecheck_clean(
            || MultiAaStSim::<D2Q9, _>::new(v100(), lid_geom(16, 8), Projective::new(0.8), 4),
            AaSt::set_racecheck_strict,
            shear_init,
            8,
            6,
        );
    }

    #[test]
    #[should_panic(expected = "does not support inlet/outlet")]
    fn rejects_inlet_outlet_geometries() {
        let geom = Geometry::channel_2d(12, 6, 0.04);
        let _ = MultiAaStSim::<D2Q9, _>::new(v100(), geom, Bgk::new(0.8), 2);
    }
}

//! Multi-device AA-pattern ST: slab-sharded in-place propagation with
//! parity-aware halo exchange.
//!
//! Each shard holds **one** `Q·8`-per-node lattice (half of
//! [`crate::MultiStSim`]'s residency) and runs the same two half-steps as
//! [`lbm_gpu::AaStSim`] over its owned span:
//!
//! * **Stream half-step** (even `t`): the edge nodes *gather* from the
//!   ghost column and *push* into it, so the cut protocol is two partial
//!   exchanges around one launch. Pre-exchange: each owned edge column's
//!   cut-crossing slots (`{s : c_s·x̂ = −1}` for a left ghost, `+1` for a
//!   right ghost — the slots the neighbor's gather reads) are copied into
//!   the adjacent ghost. Post-exchange: the same slots of each ghost — now
//!   holding the neighbor-bound *pushes* — are copied back into the owner's
//!   edge column, guarded per `(cell, slot)` by "the pushing node is
//!   Fluid"; where it is not (a wall or the domain edge sits across the
//!   cut), the owner already stored the value itself through the local
//!   bounce rules and the ghost slot is stale.
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
//! single-device [`lbm_gpu::AaStSim`] reads, so the sharded trajectory is
//! identical with `==`, at both parities.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{aa_slot, KernelConsts};
use lbm_gpu::aa::{launch_aa_collide_span, launch_aa_stream_span};
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::driver::{fill, DriverBody, Fields, Frame};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

struct AaShard {
    geom: Geometry,
    a: GlobalBuffer<f64>,
    owned_lo: usize,
    owned_hi: usize,
}

/// The sharded AA pattern's state: one lattice per shard, updated in place.
pub struct MultiAaSt<L: Lattice, C: Collision<L>> {
    decomp: SlabDecomp,
    shards: Vec<AaShard>,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    /// A stream half-step's post-exchange failed after the launch mutated
    /// the lattice in place; the next `advance` must finish that exchange
    /// (idempotent: it only reads ghosts and writes edge columns) before
    /// the step can complete.
    post_pending: bool,
    stats: OverlapStats,
    _l: PhantomData<L>,
}

/// Slab-sharded AA-pattern ST simulation across N simulated devices.
pub type MultiAaStSim<L, C> = MultiSim<MultiAaSt<L, C>>;

impl<L: Lattice, C: Collision<L>> MultiAaStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        assert!(
            boundary_nodes(&geom).is_empty(),
            "AA-pattern streaming does not support inlet/outlet boundaries"
        );
        let decomp = SlabDecomp::new(geom, n);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let ln = g.len();
                AaShard {
                    a: GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                    owned_lo: s.owned_lo(),
                    owned_hi: s.owned_hi(),
                    geom: g,
                }
            })
            .collect();
        MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiAaSt {
                decomp,
                shards,
                consts: KernelConsts::new::<L>(collision.tau()),
                collision,
                block_size: 256,
                post_pending: false,
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

    /// Set the thread-block size of the span kernels.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.body.block_size = bs;
        self
    }

    /// Distribution at a global node, un-permuted to natural direction
    /// order regardless of the current parity.
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let b = &self.body;
        let r = b.decomp.owner_of(x);
        let sh = &b.shards[r];
        let lx = sh.owned_lo + (x - b.decomp.slab(r).x0);
        let ln = sh.geom.len();
        let idx = sh.geom.idx(lx, y, z);
        (0..L::Q)
            .map(|i| sh.a.get(aa_slot::<L>(self.steps(), i) * ln + idx))
            .collect()
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

impl<L: Lattice, C: Collision<L>> MultiAaSt<L, C> {
    /// Run one exchange phase over every cut. Pre copies owned edge
    /// columns into ghosts; post copies ghosts back into the neighbor's
    /// edge columns with the pushing-node guard. Link tallies are recorded
    /// (with bounded retries) before each copy, so a failed transfer moves
    /// no data and a successful retry tallies exactly once.
    fn exchange(
        &self,
        cx: &StepCx<'_>,
        phase: Phase,
    ) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            // Ghost side determines which slots cross this cut direction.
            let ghost_left = tr.dst_lx == 0;
            let dir = if ghost_left { -1 } else { 1 };
            let slots: Vec<usize> = (0..L::Q).filter(|&s| L::C[s][0] == dir).collect();
            let bytes = (self.decomp.column_fluid_count(tr.gx) * slots.len() * 8) as u64;
            // Post reverses the roles: the ghost holder sends back to the
            // column owner.
            let (from, to) = match phase {
                Phase::Pre => (tr.from, tr.to),
                Phase::Post => (tr.to, tr.from),
            };
            cx.transfer(from, to, bytes)?;
            let owner = &self.shards[tr.from];
            let holder = &self.shards[tr.to];
            let (on, hn) = (owner.geom.len(), holder.geom.len());
            for z in 0..owner.geom.nz {
                for y in 0..owner.geom.ny {
                    if !owner.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let oi = owner.geom.idx(tr.src_lx, y, z);
                    let hi = holder.geom.idx(tr.dst_lx, y, z);
                    for &s in &slots {
                        match phase {
                            Phase::Pre => holder.a.set(s * hn + hi, owner.a.get(s * on + oi)),
                            Phase::Post => {
                                // Only slots a Fluid node actually pushed:
                                // where the pushing cell across the cut is
                                // solid or absent, the owner stored this
                                // slot itself via the local bounce rules.
                                let c = L::C[s];
                                let pusher =
                                    holder.geom.neighbor(tr.dst_lx, y, z, [-c[0], -c[1], -c[2]]);
                                let pushed = pusher.is_some_and(|(px, py, pz)| {
                                    matches!(holder.geom.node(px, py, pz), NodeType::Fluid)
                                });
                                if pushed {
                                    owner.a.set(s * on + oi, holder.a.get(s * hn + hi));
                                }
                            }
                        }
                    }
                }
            }
            out.push((from, to, bytes));
        }
        Ok(out)
    }

    /// Modeled schedule timing (the exchange is always exposed — AA cannot
    /// overlap it with the in-place launch).
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic interconnect traffic of one two-step AA cycle: each cut
    /// direction moves its crossing slots twice (pre + post) per stream
    /// half-step, and the collide half-step moves nothing.
    pub fn halo_bytes_per_cycle(&self) -> u64 {
        self.decomp
            .halo_transfers()
            .iter()
            .map(|tr| {
                let dir = if tr.dst_lx == 0 { -1 } else { 1 };
                let crossing = (0..L::Q).filter(|&s| L::C[s][0] == dir).count();
                2 * (self.decomp.column_fluid_count(tr.gx) * crossing * 8) as u64
            })
            .sum()
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for MultiAaSt<L, C> {
    fn label(&self) -> &'static str {
        "multi-aa-st"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    /// Into the even-parity slot layout.
    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut feq = [0.0f64; 48];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            let ln = sh.geom.len();
            for idx in 0..ln {
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
                    sh.a.set(aa_slot::<L>(0, i) * ln + idx, v);
                }
            }
        }
        self.post_pending = false;
    }

    /// Gathered from the owning shards through the parity slot map.
    fn macro_fields(&self, t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        for (idx, rho_o) in rho_out.iter_mut().enumerate() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let r = self.decomp.owner_of(x);
            let sh = &self.shards[r];
            let lx = sh.owned_lo + (x - self.decomp.slab(r).x0);
            let ln = sh.geom.len();
            let lidx = sh.geom.idx(lx, y, z);
            let mut rho = 0.0;
            let mut j = [0.0f64; 3];
            for i in 0..L::Q {
                let fi = sh.a.get(aa_slot::<L>(t, i) * ln + lidx);
                let c = L::cf(i);
                rho += fi;
                j[0] += c[0] * fi;
                j[1] += c[1] * fi;
                j[2] += c[2] * fi;
            }
            let inv_rho = 1.0 / rho;
            *rho_o = rho;
            u_out[idx] = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
        }
        (rho_out, u_out)
    }

    /// Every shard's single resident lattice — half of
    /// [`crate::MultiStSim`]'s footprint shard for shard.
    fn footprint_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.a.size_bytes()).sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for sh in &mut self.shards {
            sh.a.set_fault_plan(plan.clone());
        }
    }

    /// The flavor tag carries the step parity, so a restore can only land
    /// on the half of the AA cycle the snapshot was taken at.
    fn frame(&self) -> Frame {
        let g = self.decomp.global();
        Frame {
            flavor: "aa-st-multi",
            parity: true,
            guards: vec![
                ("nx", g.nx as u64),
                ("ny", g.ny as u64),
                ("nz", g.nz as u64),
                ("Q", L::Q as u64),
                ("shard count", self.shards.len() as u64),
            ],
        }
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        self.shards.iter().map(|sh| sh.a.snapshot()).collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|sh| sh.a.len()).collect()
    }

    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        for (sh, data) in self.shards.iter().zip(&arrays) {
            fill(&sh.a, data);
        }
        self.post_pending = false;
    }
}

impl<L: Lattice, C: Collision<L>> ShardedBody for MultiAaSt<L, C> {
    /// A failure in the *pre*-exchange leaves no owned state mutated —
    /// retrying the whole step is safe. A failure in the *post*-exchange
    /// arrives after the in-place launch, so the step is parked half-done:
    /// the next call finishes the pending exchange (and only then is the
    /// step counted) instead of recomputing over clobbered inputs.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        if self.post_pending {
            let transfers = self.exchange(cx, Phase::Post)?;
            self.post_pending = false;
            self.stats
                .record_step(0.0, 0.0, exchange_time_s(cx.mg, &transfers), 0.0);
            return Ok(());
        }
        let launch_bytes;
        let mut exchange_s = 0.0;
        if cx.t.is_multiple_of(2) {
            // Stream half-step: pre-exchange, one in-place launch per
            // shard, post-exchange. Neither exchange can overlap the
            // launch — it reads and rewrites the cut columns.
            let pre_span = cx.halo_span();
            let pre = self.exchange(cx, Phase::Pre)?;
            drop(pre_span);
            launch_bytes = cx.mg.for_each_device(|r| {
                let sh = &self.shards[r];
                launch_aa_stream_span::<L, C>(
                    cx.mg.device(r),
                    &sh.a,
                    &sh.geom,
                    &self.collision,
                    &self.consts,
                    self.block_size,
                    sh.owned_lo,
                    sh.owned_hi,
                )
                .tally
                .dram_bytes()
            });
            let post_span = cx.halo_span();
            let post = match self.exchange(cx, Phase::Post) {
                Ok(t) => t,
                Err(e) => {
                    self.post_pending = true;
                    return Err(e);
                }
            };
            drop(post_span);
            exchange_s = exchange_time_s(cx.mg, &pre) + exchange_time_s(cx.mg, &post);
        } else {
            // Collide half-step: node-local, no exchange.
            launch_bytes = cx.mg.for_each_device(|r| {
                let sh = &self.shards[r];
                launch_aa_collide_span::<L, C>(
                    cx.mg.device(r),
                    &sh.a,
                    &sh.geom,
                    &self.collision,
                    &self.consts,
                    self.block_size,
                    sh.owned_lo,
                    sh.owned_hi,
                )
                .tally
                .dram_bytes()
            });
        }
        let spec = cx.mg.spec().clone();
        let launch_s = device_time_s(&spec, launch_bytes.into_iter().max().unwrap_or(0));
        self.stats.record_step(0.0, launch_s, exchange_s, 0.0);
        Ok(())
    }

    fn overlap(&self) -> Option<&OverlapStats> {
        Some(&self.stats)
    }

    fn overlap_mut(&mut self) -> Option<&mut OverlapStats> {
        Some(&mut self.stats)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Pre,
    Post,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_core::io::CheckpointError;
    use lbm_gpu::AaStSim;
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

    /// Sharded AA is bitwise identical to single-device AA at *every* step
    /// count — both parities — including MovingWall gains at the cuts.
    #[test]
    fn multi_matches_single_bitwise_both_parities_2d() {
        for steps in [7usize, 8] {
            let geom = lid_geom(16, 8);
            let mut single: AaStSim<D2Q9, _> =
                AaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                    .with_cpu_threads(2);
            single.init_with(shear_init);
            let mut multi: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 3)
                    .with_cpu_threads(2);
            multi.init_with(shear_init);
            single.run(steps);
            multi.run(steps);
            assert_eq!(
                single.field_checksum(),
                multi.field_checksum(),
                "diverged at {steps} steps"
            );
            let (us, um) = (single.velocity_field(), multi.velocity_field());
            for (a, b) in us.iter().zip(&um) {
                for k in 0..3 {
                    assert_eq!(a[k], b[k], "sharding changed the arithmetic");
                }
            }
        }
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
        for steps in [5usize, 6] {
            let mut single: AaStSim<D3Q19, _> =
                AaStSim::new(DeviceSpec::mi100(), geom.clone(), Bgk::new(0.7)).with_cpu_threads(2);
            single.init_with(shear_init);
            let mut multi: MultiAaStSim<D3Q19, _> =
                MultiAaStSim::new(DeviceSpec::mi100(), geom.clone(), Bgk::new(0.7), 2)
                    .with_cpu_threads(2);
            multi.init_with(shear_init);
            single.run(steps);
            multi.run(steps);
            assert_eq!(single.field_checksum(), multi.field_checksum());
        }
    }

    /// Per-cycle halo traffic: only the cut-crossing slots move (3 of 9
    /// for D2Q9), twice per stream step — 3× less wire than sharded ST
    /// over a two-step cycle. The link tally matches the analytic figure
    /// exactly, and the footprint is half of two-lattice sharding.
    #[test]
    fn halo_bytes_and_footprint_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mut multi: MultiAaStSim<D2Q9, _> =
            MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2)
                .with_cpu_threads(2);
        multi.run(4); // two full cycles
                      // n = 2 periodic: 2 cuts → 4 directed transfers, each crossing 3
                      // slots over 8 fluid column nodes, pre + post per stream step.
        let per_cycle = 2 * 4 * 8 * 3 * 8;
        assert_eq!(multi.halo_bytes_per_cycle(), per_cycle as u64);
        assert_eq!(
            multi.interconnect().total_link_bytes(),
            2 * per_cycle as u64
        );
        // ST exchanges full-Q columns every step: 2 · 4 · 8 · 9 · 8 per
        // cycle — exactly 3× the AA wire traffic.
        let st_cycle = 2 * 4 * 8 * 9 * 8;
        assert_eq!(3 * multi.halo_bytes_per_cycle(), st_cycle as u64);
        // One lattice per shard: shard lattices total (16 + 2·2) · 10 · 9
        // doubles (each shard owns 8 columns + 2 ghosts).
        assert_eq!(multi.footprint_bytes(), 20 * 10 * 9 * 8);
    }

    /// Checkpoint at odd parity restores bitwise mid-cycle; a two-lattice
    /// multi-ST snapshot is rejected as a foreign flavor.
    #[test]
    fn checkpoint_round_trips_at_odd_parity() {
        let geom = lid_geom(12, 6);
        let mk = || {
            let mut s: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2)
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

        let st: crate::MultiStSim<D2Q9, _> =
            crate::MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 2);
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
        let run = |threads: usize, strict: bool| {
            let geom = lid_geom(16, 8);
            let mut multi: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if strict {
                for sh in &mut multi.shards {
                    let a = std::mem::replace(&mut sh.a, GlobalBuffer::new(0));
                    sh.a = a.with_racecheck_strict();
                }
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run(8, true), run(1, false));
    }

    #[test]
    #[should_panic(expected = "does not support inlet/outlet")]
    fn rejects_inlet_outlet_geometries() {
        let geom = Geometry::channel_2d(12, 6, 0.04);
        let _ = MultiAaStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 2);
    }
}

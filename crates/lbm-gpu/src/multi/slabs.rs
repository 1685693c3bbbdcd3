//! The one sharded body: [`Slabs<B>`] is a slab decomposition whose every
//! shard is the *single-device* body `B` of a pattern, built on the slab's
//! local geometry (`crate::driver`, "Slab ownership"), on a [`Ring`].
//!
//! Everything a pattern knows about its own state — layout, initial field,
//! read-back, checkpoint array, kernels — stays in its own module; this
//! module knows coordinates, links and the schedule:
//!
//! * **Coordinates.** A shard sees local `x`; fields go in through
//!   [`SlabDecomp::global_x`] (ghosts included, so ghost columns start
//!   consistent with their owners and no initial exchange is needed) and
//!   come out by copying each shard's owned columns. A blob is the pattern's
//!   sharded frame, the shard count, the overlap timing where the pattern's
//!   frozen format has it, and one array per shard: its live lattice, ghost
//!   columns included, so a restore needs no exchange either.
//! * **Links.** The halo plan is compiled once at construction: per directed
//!   cut transfer, the `(source node, destination node)` pairs of the
//!   fluid-like nodes of the sender's edge column. Walls are never sent —
//!   the update resolves solid neighbours from its own node.
//! * **Schedule.** `Slabs::two_phase` is the overlap schedule of
//!   [`super::stats`]: every shard's strips, the exchange of what they wrote
//!   (modelled as concurrent with the interior), interiors, boundary
//!   kernels, then the flip. A transfer is tallied on the interconnect
//!   (under the host's retry policy) *before* its copy, so a failed one
//!   moves no data and records no bytes; no shard flips before every
//!   transfer succeeded, so time `t` is intact and a retried step recomputes
//!   bitwise the same; and the retry tallies only the transfers the failed
//!   attempt did not get through (`Slabs::sent`), so the links carry every
//!   halo byte exactly once.
//!
//! The pattern modules next to this one add what is specific to a pattern:
//! its constructor, its switches and whatever its exchange does differently.

// `SlabBody` and `NodeHalo` are crate-private: callers name a pattern's
// alias, never a `B`.
#![allow(private_bounds)]

use super::decomp::SlabDecomp;
use super::ring::{Ring, StepCx};
use super::stats::{device_time_s, exchange_time_s, OverlapStats};
use crate::driver::{
    BlockSize, DriverBody, Fields, Frame, NodeHalo, Part, Rec, ScalarKernels, SlabBody,
};
use gpu_sim::interconnect::LinkError;
use gpu_sim::memory::Tally;
use gpu_sim::FaultPlan;
use lbm_core::geometry::Geometry;
use std::sync::Arc;

/// One interconnect transfer of the halo exchange: nodes of shard `from`'s
/// edge column and the ghost nodes of shard `to` that mirror them, as ids of
/// the pattern (see `NodeHalo::send_nodes`).
pub(crate) struct Transfer {
    pub from: usize,
    pub to: usize,
    pub pairs: Vec<(usize, usize)>,
}

/// The plan of a dense pattern: one transfer per directed cut transfer, in
/// [`SlabDecomp::halo_transfers`] order, over the column's fluid-like nodes
/// by flat domain index.
pub(crate) fn column_plan<B: DriverBody>(decomp: &SlabDecomp, shards: &[B]) -> Vec<Transfer> {
    let column = |tr: &super::HaloTransfer| {
        let (src, dst) = (shards[tr.from].geom(), shards[tr.to].geom());
        let mut pairs = Vec::new();
        for z in 0..src.nz {
            for y in 0..src.ny {
                if src.node(tr.src_lx, y, z).is_fluid_like() {
                    pairs.push((src.idx(tr.src_lx, y, z), dst.idx(tr.dst_lx, y, z)));
                }
            }
        }
        Transfer {
            from: tr.from,
            to: tr.to,
            pairs,
        }
    };
    decomp.halo_transfers().iter().map(column).collect()
}

/// A pattern's state sharded over the slabs of a decomposition.
pub struct Slabs<B> {
    decomp: SlabDecomp,
    pub(crate) shards: Vec<B>,
    pub(crate) plan: Vec<Transfer>,
    pub(crate) stats: OverlapStats,
    /// A step's in-place launch ran but the exchange that closes it failed:
    /// the next `advance` must finish that exchange, not recompute over
    /// clobbered inputs. Only the AA schedule parks a step. What it holds is
    /// the parked step's modeled launch and pre-exchange time, which the
    /// step records when it completes.
    pub(crate) parked: Option<(f64, f64)>,
    /// Transfers of the exchange in flight that got through before one
    /// failed: the retry copies them again but tallies only the rest.
    pub(crate) sent: usize,
    label: &'static str,
}

impl<B: SlabBody> Slabs<B> {
    /// Shard `r` of `shards` was built on `decomp`'s slab `r`; `plan` is the
    /// exchange between them.
    pub(crate) fn new(decomp: SlabDecomp, shards: Vec<B>, plan: Vec<Transfer>) -> Self {
        assert_eq!(shards.len(), decomp.num_shards(), "one body per slab");
        Slabs {
            label: shards[0].sharded_frame(decomp.global()).0,
            decomp,
            shards,
            plan,
            stats: OverlapStats::default(),
            parked: None,
            sent: 0,
        }
    }

    /// Modeled overlap-schedule timing.
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// The shard owning global column `x`, and `x` in its local frame.
    pub(crate) fn owner(&self, x: usize) -> (&B, usize) {
        let r = self.decomp.owner_of(x);
        let s = self.decomp.slab(r);
        (&self.shards[r], s.owned_lo() + (x - s.x0))
    }

    /// One part of step `cx.t` on every shard, each on its own device: the
    /// DRAM bytes each moved.
    pub(crate) fn launch(&self, cx: &StepCx<'_>, part: Part) -> Vec<u64> {
        cx.mg.for_each_device(|r| {
            let mut bytes = 0;
            self.shards[r].launch_part(cx.mg.device(r), cx.t, part, &mut |stats| {
                bytes += stats.tally.dram_bytes()
            });
            bytes
        })
    }
}

impl<B: NodeHalo> Slabs<B> {
    /// Analytic per-step halo traffic: halo nodes × `B::HALO · 8` bytes —
    /// fluid-like nodes of the cut columns, not their bounding box.
    pub fn halo_bytes_per_step(&self) -> u64 {
        let nodes: usize = self.plan.iter().map(|tr| tr.pairs.len()).sum();
        (nodes * B::HALO * 8) as u64
    }

    /// Copy every cut's freshly computed edge columns (time `t + 1`) into
    /// the neighbours' ghost columns: what moved, as `(from, to, bytes)`.
    fn exchange(&mut self, cx: &StepCx<'_>) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::with_capacity(self.plan.len());
        for (k, tr) in self.plan.iter().enumerate() {
            let bytes = (tr.pairs.len() * B::HALO * 8) as u64;
            cx.transfer(k, &mut self.sent, tr.from, tr.to, bytes)?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            src.send_nodes(dst, cx.t, &tr.pairs);
            out.push((tr.from, tr.to, bytes));
        }
        self.sent = 0;
        Ok(out)
    }

    /// The two-phase overlap schedule (see the module docs). On `Err` no
    /// state has advanced: the completed launches are idempotent.
    pub(crate) fn two_phase(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        let strips = self.launch(cx, Part::Strips);
        let halo_span = cx.halo_span();
        let transfers = self.exchange(cx)?;
        drop(halo_span);
        let interior = self.launch(cx, Part::Interior);
        let bc = self.launch(cx, Part::Boundary);

        let slowest =
            |bytes: &[u64]| device_time_s(cx.mg.spec(), bytes.iter().copied().max().unwrap_or(0));
        self.stats.record_step(
            slowest(&strips),
            slowest(&interior),
            exchange_time_s(cx.mg, &transfers),
            slowest(&bc),
        );
        self.shards.iter_mut().for_each(B::flip);
        Ok(())
    }
}

impl<B: SlabBody> DriverBody for Slabs<B> {
    type Dev = Ring;

    fn label(&self) -> &'static str {
        self.label
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(
        &mut self,
        threads: usize,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.init_with(threads, &|lx, y, z| {
                field(self.decomp.global_x(r, lx), y, z)
            });
        }
        self.stats = OverlapStats::default();
        (self.parked, self.sent) = (None, 0);
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho = vec![0.0; g.len()];
        let mut u = vec![[0.0; 3]; g.len()];
        for (sh, s) in self.shards.iter().zip(self.decomp.slabs()) {
            let (lg, (lrho, lu)) = (sh.geom(), sh.macro_fields(t));
            for z in 0..g.nz {
                for y in 0..g.ny {
                    let (dst, src) = (g.idx(s.x0, y, z), lg.idx(s.owned_lo(), y, z));
                    rho[dst..dst + s.width].copy_from_slice(&lrho[src..src + s.width]);
                    u[dst..dst + s.width].copy_from_slice(&lu[src..src + s.width]);
                }
            }
        }
        (rho, u)
    }

    fn footprint_bytes(&self) -> usize {
        self.shards.iter().map(B::footprint_bytes).sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for sh in &mut self.shards {
            sh.set_fault_plan(plan.clone());
        }
    }

    fn frame(&self) -> Frame {
        let mut frame = self.shards[0].sharded_frame(self.decomp.global()).1;
        frame.guards.push(("shard count", self.shards.len() as u64));
        frame
    }

    fn state_arrays(&self, t: u64) -> Vec<Vec<f64>> {
        self.shards.iter().map(|sh| sh.current(t)).collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.shards.iter().map(B::current_len).collect()
    }

    fn install(&mut self, t: u64, arrays: Vec<Vec<f64>>) {
        for (sh, data) in self.shards.iter_mut().zip(arrays) {
            sh.install_current(t, data);
        }
        (self.parked, self.sent) = (None, 0);
    }

    /// The overlap timing, where the pattern's blobs have it.
    fn ledger(&self, _tally: &Tally) -> Vec<u64> {
        if !B::OVERLAP_IN_BLOB {
            return Vec::new();
        }
        let s = &self.stats;
        let times = [
            s.boundary_s,
            s.interior_s,
            s.exchange_s,
            s.bc_s,
            s.hidden_s,
            s.total_s,
        ];
        std::iter::once(s.steps)
            .chain(times.map(f64::to_bits))
            .collect()
    }

    fn set_ledger(&mut self, words: &[u64], _tally: &mut Tally) {
        if let &[steps, boundary, interior, exchange, bc, hidden, total] = words {
            self.stats = OverlapStats {
                steps,
                boundary_s: f64::from_bits(boundary),
                interior_s: f64::from_bits(interior),
                exchange_s: f64::from_bits(exchange),
                bc_s: f64::from_bits(bc),
                hidden_s: f64::from_bits(hidden),
                total_s: f64::from_bits(total),
            };
        }
    }

    /// The pattern's schedule over the ring; shard launches go to the hub
    /// and the modeled timing, not to `rec`.
    fn advance(&mut self, ring: &Ring, t: u64, _rec: Rec<'_>) -> Result<(), LinkError> {
        B::advance_slabs(self, &ring.cx(t))
    }
}

impl<B: ScalarKernels> ScalarKernels for Slabs<B> {
    fn set_scalar_kernels(&mut self) {
        self.shards.iter_mut().for_each(B::set_scalar_kernels);
    }
}

impl<B: BlockSize> BlockSize for Slabs<B> {
    fn set_block_size(&mut self, bs: usize) {
        for sh in &mut self.shards {
            sh.set_block_size(bs);
        }
    }
}

/// What every sharded pattern must pass, written once: the pattern modules'
/// tests call these with their own drivers.
#[cfg(test)]
pub(crate) mod checks {
    use super::*;
    use crate::{Sim, SoloBody};

    pub(crate) type Init = fn(usize, usize, usize) -> (f64, [f64; 3]);

    /// The sharded run is the single-device run, bitwise: ghosts carry exact
    /// doubles and every kernel's per-node arithmetic is
    /// decomposition-independent. From `init` (rest if `None`), at each of
    /// `steps` in turn.
    pub(crate) fn matches_single<A: SoloBody, B: SlabBody>(
        mut single: Sim<A>,
        mut multi: Sim<Slabs<B>>,
        init: Option<Init>,
        steps: &[usize],
    ) {
        if let Some(init) = init {
            single.init_with(init);
            multi.init_with(init);
        }
        for &upto in steps {
            let more = upto - single.steps() as usize;
            single.run(more);
            multi.run(more);
            assert_eq!(
                single.velocity_field(),
                multi.velocity_field(),
                "sharding changed the arithmetic at step {upto}"
            );
            assert_eq!(single.density_field(), multi.density_field());
            assert_eq!(single.field_checksum(), multi.field_checksum());
        }
    }

    /// After `steps` steps the analytic halo payload `payload` reports is
    /// `want`, and the interconnect carried exactly `want_total`.
    pub(crate) fn halo_bytes_exact<B: SlabBody>(
        mut multi: Sim<Slabs<B>>,
        steps: usize,
        payload: impl Fn(&Slabs<B>) -> u64,
        want: u64,
        want_total: u64,
    ) {
        multi.run(steps);
        assert_eq!(payload(&multi), want);
        assert_eq!(multi.interconnect().total_link_bytes(), want_total);
    }

    /// One device thread per shard with pooled launch threads under each
    /// trips no strict race check (`strict` arms a shard's lattices), and
    /// lands on the one-thread run's fields.
    pub(crate) fn racecheck_clean<B: SlabBody>(
        mk: impl Fn() -> Sim<Slabs<B>>,
        strict: fn(&mut B),
        init: Init,
        threads: usize,
        steps: usize,
    ) {
        let run = |threads: usize, check: bool| {
            let mut multi = mk().with_cpu_threads(threads).with_parallel_threshold(0);
            if check {
                multi.body.shards.iter_mut().for_each(strict);
            }
            multi.init_with(init);
            multi.run(steps);
            multi.field_checksum()
        };
        assert_eq!(run(threads, true), run(1, false));
    }
}

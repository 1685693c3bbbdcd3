//! The single moment lattice with circular array time shifting.
//!
//! Algorithm 2 stores only `M` moments per node and updates them *in place*
//! each timestep. To keep a column's new values from clobbering old values
//! that adjacent columns still need (their halo reads), every timestep
//! shifts the storage location of all nodes by a constant offset — the
//! constant-time circular array shifting of Dethier et al. (2011), the
//! paper's ref. \[1\]. Writes trail reads by the sliding window's two-layer
//! lag, and the shift is chosen *downward* (toward already-consumed slots)
//! so that under bulk-synchronous tile phases no unread slot is ever
//! overwritten; the strict race checker verifies this in the tests.
//!
//! Layout: moment-major (SoA), `buf[m · cap + slot(idx, t)]` with
//! `slot(idx, t) = (idx − t·shift) mod cap`, `cap = n + pad`.
//!
//! An orthogonal single-lattice mode is the **parity twist**
//! ([`MomentLattice::with_parity_twist`]): instead of shifting slots within
//! a plane, the *plane order* alternates with step parity — at odd times
//! moment `m` lives in plane `M−1−m` (the esoteric-twist idea of Geier &
//! Schönherr carried to moment space). Zero shift, zero padding, `M·8`
//! bytes per node exactly; the parity is part of the storage contract, so
//! checkpoints of twisted lattices must carry it in their flavor tag.

use gpu_sim::exec::BlockCtx;
use gpu_sim::memory::Selection;
use gpu_sim::GlobalBuffer;
use lbm_core::kernels::MAX_M;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// A timestep resolved against one lattice ([`MomentLattice::at`]): the
/// circular offset `t·shift mod cap` — a `u128 %` — is computed here once,
/// so a launch pays for it once instead of once per row.
#[derive(Clone, Copy, Debug)]
pub struct TimeSlot {
    t: u64,
    off: usize,
}

/// Moment storage for a whole domain, with circular time shifting.
pub struct MomentLattice {
    buf: GlobalBuffer<f64>,
    /// Nodes in the domain.
    n: usize,
    /// Slots per moment plane (`n + pad`).
    cap: usize,
    /// Slot shift per timestep, in nodes (one row in 2D, one layer in 3D).
    shift: usize,
    /// Moments per node.
    m: usize,
    /// Parity twist: at odd `t`, moment `m` is stored in plane `M−1−m`.
    twist: bool,
}

impl MomentLattice {
    /// Allocate for `n` nodes with `m` moments, shifting by `shift` nodes
    /// per step and padding with `pad ≥ shift` spare slots.
    pub fn new(n: usize, m: usize, shift: usize, pad: usize) -> Self {
        assert!(pad >= shift, "padding must cover the per-step shift");
        assert!(
            m <= MAX_M,
            "moment count {m} exceeds the fixed kernel staging bound MAX_M = {MAX_M}"
        );
        MomentLattice {
            buf: GlobalBuffer::new(m * (n + pad)),
            n,
            cap: n + pad,
            shift,
            m,
            twist: false,
        }
    }

    /// Enable the parity twist: at odd timesteps moment `m` is stored in
    /// plane `M−1−m` instead of plane `m`. This is the single-lattice MR
    /// storage discipline — each step reads every logical moment from the
    /// current parity's planes and writes the post-collision moments to the
    /// *other* parity's planes, which are the same physical planes in
    /// reversed order, so no second lattice (and no slot shift) is needed.
    /// Mutually exclusive with circular shifting: the twist replaces it.
    pub fn with_parity_twist(mut self) -> Self {
        assert_eq!(
            self.shift, 0,
            "parity twist replaces circular shifting; construct with shift = 0"
        );
        self.twist = true;
        self
    }

    /// Whether the parity twist is enabled.
    pub fn parity_twist(&self) -> bool {
        self.twist
    }

    /// Whether the plane order is reversed at timestep `t` (odd `t` of a
    /// twisted lattice).
    #[inline(always)]
    fn reversed(&self, t: u64) -> bool {
        self.twist && t % 2 == 1
    }

    /// Physical plane holding logical moment `m` at timestep `t`.
    #[inline(always)]
    fn plane(&self, t: u64, m: usize) -> usize {
        if self.reversed(t) {
            self.m - 1 - m
        } else {
            m
        }
    }

    /// Enable the launch-scoped L2 model on the backing buffer.
    pub fn with_touch_tracking(mut self) -> Self {
        self.buf = self.buf.with_touch_tracking();
        self
    }

    /// Enable strict race checking on the backing buffer (tests).
    pub fn set_racecheck_strict(&mut self) {
        self.buf.set_racecheck_strict();
    }

    /// Device-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.buf.size_bytes()
    }

    /// Timestep `t` resolved against this lattice's shift and capacity.
    #[inline]
    pub fn at(&self, t: u64) -> TimeSlot {
        let off = ((t as u128 * self.shift as u128) % self.cap as u128) as usize;
        TimeSlot { t, off }
    }

    /// Storage slot of node `idx` at timestep `t`.
    #[inline(always)]
    pub fn slot(&self, idx: usize, t: u64) -> usize {
        self.slot_at(idx, self.at(t))
    }

    /// [`MomentLattice::slot`] at an already resolved timestep.
    #[inline(always)]
    fn slot_at(&self, idx: usize, at: TimeSlot) -> usize {
        debug_assert!(idx < self.n);
        let s = idx + self.cap - at.off;
        if s >= self.cap {
            s - self.cap
        } else {
            s
        }
    }

    /// Kernel read of moment `m` of node `idx` at time `t`.
    #[inline(always)]
    pub fn read(&self, ctx: &mut BlockCtx, t: u64, idx: usize, m: usize) -> f64 {
        ctx.read(&self.buf, self.plane(t, m) * self.cap + self.slot(idx, t))
    }

    /// Kernel write of a node's full moment state at time `t`.
    #[inline(always)]
    pub fn write_moments<L: Lattice>(&self, ctx: &mut BlockCtx, t: u64, idx: usize, mom: &Moments) {
        debug_assert_eq!(self.m, L::M);
        let mut flat = [0.0f64; MAX_M];
        mom.pack::<L>(&mut flat[..self.m]);
        let s = self.slot(idx, t);
        for m in 0..self.m {
            ctx.write(&self.buf, self.plane(t, m) * self.cap + s, flat[m]);
        }
    }

    /// Bulk kernel read of the full moment state of `count` consecutive
    /// nodes `idx0..idx0+count` at time `at` into block scratch, plane-major
    /// with plane stride `stride ≥ count`: `scratch[off + m·stride + j]` is
    /// moment `m` of node `idx0 + j`. A walker row stages each run at its
    /// row position with the row's stride; a packed run passes `count`.
    ///
    /// **Envelope.** Consecutive node indices occupy consecutive slots
    /// modulo `cap`, and the `M` physical planes are `cap` apart, so the
    /// row is one strided family of `M` spans — two at the circular wrap,
    /// split there — moved by [`BlockCtx::read_window_to_scratch`] in one
    /// accounting envelope each. A parity-twisted lattice at odd `t` holds
    /// moment `m` in plane `M−1−m`: the same family, landing in scratch in
    /// reverse plane order. Tallies and race checks are byte-identical to
    /// `count · M` element-wise [`MomentLattice::read`] calls — to those of
    /// the nodes `sel` selects (bit `j` for node `idx0 + j`) if given: then
    /// each piece is a counted window, whose unselected nodes are copied to
    /// scratch uncounted, so no other block may write their slots at time
    /// `at` in this phase (the window contract).
    pub fn read_row_to_scratch(
        &self,
        ctx: &mut BlockCtx,
        at: TimeSlot,
        (idx0, count): (usize, usize),
        sel: Option<Selection<'_>>,
        (off, stride): (usize, usize),
    ) {
        let (rev, cap, m) = (self.reversed(at.t), self.cap, self.m);
        for (s, j, len) in self.row_pieces(at, idx0, count) {
            let sel = sel.map(|sel| sel.skip(j));
            ctx.read_window_to_scratch(&self.buf, (s, cap, m, len), sel, (off + j, stride), rev);
        }
    }

    /// Bulk kernel write mirroring [`MomentLattice::read_row_to_scratch`]:
    /// the plane-major staged moments of `count` consecutive nodes (plane
    /// stride `stride`) are written to time `at` in the same envelopes —
    /// only the selected nodes' if `sel` is given; the others' slots are
    /// not touched.
    pub fn write_row_from_scratch(
        &self,
        ctx: &mut BlockCtx,
        at: TimeSlot,
        (idx0, count): (usize, usize),
        sel: Option<Selection<'_>>,
        (off, stride): (usize, usize),
    ) {
        let (rev, cap, m) = (self.reversed(at.t), self.cap, self.m);
        for (s, j, len) in self.row_pieces(at, idx0, count) {
            let sel = sel.map(|sel| sel.skip(j));
            ctx.write_window_from_scratch(&self.buf, (s, cap, m, len), sel, (off + j, stride), rev);
        }
    }

    /// The contiguous pieces of plane 0 that nodes `idx0..idx0+count` occupy
    /// at `at`, as `(slot, first node j, length)`: one, or two split at the
    /// circular wrap (`slot(idx0 + j, t) = (slot(idx0, t) + j) mod cap`).
    fn row_pieces(
        &self,
        at: TimeSlot,
        idx0: usize,
        count: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> {
        debug_assert!(idx0 + count <= self.n);
        let s0 = self.slot_at(idx0, at);
        let first = count.min(self.cap - s0);
        [(s0, 0, first), (0, first, count - first)]
            .into_iter()
            .filter(|p| p.2 > 0)
    }

    /// Host read of a node's moments at time `at` (between launches).
    pub fn get_moments<L: Lattice>(&self, at: TimeSlot, idx: usize) -> Moments {
        let mut flat = [0.0f64; MAX_M];
        let s = self.slot_at(idx, at);
        for m in 0..self.m {
            flat[m] = self.buf.get(self.plane(at.t, m) * self.cap + s);
        }
        Moments::unpack::<L>(&flat[..self.m])
    }

    /// Host write of a node's moments at time `at` (between launches).
    pub fn set_moments<L: Lattice>(&self, at: TimeSlot, idx: usize, mom: &Moments) {
        let mut flat = [0.0f64; MAX_M];
        mom.pack::<L>(&mut flat[..self.m]);
        let s = self.slot_at(idx, at);
        for m in 0..self.m {
            self.buf.set(self.plane(at.t, m) * self.cap + s, flat[m]);
        }
    }

    /// Host write (between launches) of the packed moments of consecutive
    /// nodes from `idx0` at time `at`, plane-major: `rows[m·count + j]` is
    /// moment `m` of node `idx0 + j`, `count = rows.len() / M`. One span per
    /// plane, split at the circular wrap.
    pub fn set_row(&self, at: TimeSlot, idx0: usize, rows: &[f64]) {
        let count = rows.len() / self.m;
        for (s, j, len) in self.row_pieces(at, idx0, count) {
            for m in 0..self.m {
                let plane = self.plane(at.t, m) * self.cap;
                self.buf.set_span(plane + s, &rows[m * count + j..][..len]);
            }
        }
    }

    /// This lattice's time-0 state in an unshifted, unpadded lattice of the
    /// same buffer: at `t = 0` node `idx` sits in slot `idx` of every plane,
    /// so each plane moves down from `m·cap` to `m·n` — a copy, in place —
    /// and the padding is freed. What the storage switches of
    /// [`crate::MrSim`] start from, so a switch builds no second lattice.
    pub fn into_unshifted(mut self) -> Self {
        let (n, cap) = (self.n, self.cap);
        let mut staged = vec![0.0; n.min(1 << 14)];
        for m in 1..self.m {
            // Ascending through a staging row: a destination never lies
            // beyond the source it is copied from.
            for lo in (0..n).step_by(staged.len()) {
                let row = &mut staged[..(n - lo).min(1 << 14)];
                self.buf.get_span(m * cap + lo, row);
                self.buf.set_span(m * n + lo, row);
            }
        }
        self.buf.truncate(self.m * n);
        // At `t = 0` a twisted lattice's planes are in order too.
        (self.cap, self.shift, self.twist) = (n, 0, false);
        self
    }

    /// Total raw slots in the backing store (`m · cap`), the length of a
    /// [`MomentLattice::host_snapshot`].
    pub fn raw_len(&self) -> usize {
        self.m * self.cap
    }

    /// Host copy of the raw backing store (all `m · cap` slots, untranslated).
    ///
    /// Checkpoints snapshot the buffer verbatim rather than per-node moments:
    /// restoring the same bytes with the same `t` reproduces the exact slot
    /// layout, so a resumed run is bitwise-identical to an uninterrupted one.
    pub fn host_snapshot(&self) -> Vec<f64> {
        self.buf.snapshot()
    }

    /// Host restore of a raw backing store taken by
    /// [`MomentLattice::host_snapshot`] on an identically-shaped lattice.
    pub fn host_restore(&self, data: &[f64]) {
        assert_eq!(
            data.len(),
            self.m * self.cap,
            "snapshot shape mismatch: {} slots vs {} in lattice",
            data.len(),
            self.m * self.cap
        );
        self.buf.set_span(0, data);
    }

    /// Attach a fault plan to the backing buffer (kernel writes become
    /// corruptible at the plan's trigger points).
    pub fn set_fault_plan(&mut self, plan: std::sync::Arc<gpu_sim::FaultPlan>) {
        self.buf.set_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_lattice::D2Q9;

    #[test]
    fn slots_shift_downward_and_stay_unique() {
        let ml = MomentLattice::new(100, 6, 10, 20);
        for t in 0..25u64 {
            let mut seen = [false; 120];
            for idx in 0..100 {
                let s = ml.slot(idx, t);
                assert!(s < 120);
                assert!(!seen[s], "slot collision at t={t}");
                seen[s] = true;
            }
        }
        // One step moves node idx to the slot node idx−shift held.
        assert_eq!(ml.slot(10, 1), ml.slot(0, 0));
        assert_eq!(ml.slot(0, 1), 110);
    }

    #[test]
    fn host_moment_roundtrip_across_times() {
        let ml = MomentLattice::new(50, 6, 5, 10);
        let m = Moments {
            rho: 1.1,
            u: [0.01, -0.02, 0.0],
            pi: [0.4, 0.1, 0.0, 0.3, 0.0, 0.0],
        };
        for t in [0u64, 1, 7, 123] {
            ml.set_moments::<D2Q9>(ml.at(t), 17, &m);
            let back = ml.get_moments::<D2Q9>(ml.at(t), 17);
            assert!((back.rho - m.rho).abs() < 1e-15);
            assert_eq!(back.u, m.u);
        }
    }

    #[test]
    fn footprint_is_single_lattice() {
        let ml = MomentLattice::new(1000, 10, 32, 64);
        assert_eq!(ml.size_bytes(), 10 * (1000 + 64) * 8);
        // Strictly smaller than the double-buffered 2·M layout.
        assert!(ml.size_bytes() < 2 * 10 * 1000 * 8);
    }

    #[test]
    #[should_panic(expected = "padding must cover")]
    fn insufficient_padding_rejected() {
        let _ = MomentLattice::new(100, 6, 10, 5);
    }

    /// One row through the span path against the element path: read the
    /// `count` nodes from `idx0` at `t`, add ½ to every moment, write them
    /// at `t + 1`. The span path stages the row at scratch offset `off`
    /// with plane stride `stride` and checks what landed there against the
    /// host's view of the lattice before writing it back. With a
    /// selection (bit `j` for node `idx0 + j`) the span path moves the row
    /// as windows and the element path reads and writes the selected nodes
    /// only. Returns both runs' tallies and the moments they left at
    /// `t + 1`.
    fn row_round_trip(
        mk: impl Fn() -> MomentLattice,
        t: u64,
        (idx0, count): (usize, usize),
        (off, stride): (usize, usize),
        sel: Option<&[u64]>,
    ) -> [(gpu_sim::memory::Tally, Vec<Moments>); 2] {
        use gpu_sim::exec::{Kernel, Launch};
        use gpu_sim::{DeviceSpec, Gpu};
        struct RowProbe<'a> {
            ml: &'a MomentLattice,
            spans: bool,
            t: u64,
            row: (usize, usize),
            at: (usize, usize),
            sel: Option<&'a [u64]>,
            /// Moment `m` of node `idx0 + j` at `t`, packed: `expect[m·count + j]`.
            expect: Vec<f64>,
        }
        impl Kernel for RowProbe<'_> {
            fn name(&self) -> &str {
                "row-probe"
            }
            fn run_block(&self, ctx: &mut BlockCtx) {
                let ((idx0, count), (off, stride), t) = (self.row, self.at, self.t);
                if !self.spans {
                    // A node's six moments are all read before any is
                    // written: a twisted lattice writes `t + 1` into the
                    // planes that hold `t` in reverse.
                    let on = |j: usize| self.sel.is_none_or(|b| (b[j / 64] >> (j % 64)) & 1 != 0);
                    for j in (0..count).filter(|&j| on(j)) {
                        let v: [f64; 6] =
                            std::array::from_fn(|m| self.ml.read(ctx, t, idx0 + j, m));
                        for (m, v) in v.into_iter().enumerate() {
                            let (ml, at) = (self.ml, self.ml.slot(idx0 + j, t + 1));
                            ctx.write(&ml.buf, ml.plane(t + 1, m) * ml.cap + at, v + 0.5);
                        }
                    }
                    return;
                }
                let (ml, sel) = (self.ml, self.sel.map(|bits| Selection { bits, at: 0 }));
                ml.read_row_to_scratch(ctx, ml.at(t), (idx0, count), sel, (off, stride));
                for m in 0..6 {
                    let plane = &mut ctx.scratch()[off + m * stride..][..count];
                    assert_eq!(plane, &self.expect[m * count..][..count], "plane {m}");
                    plane.iter_mut().for_each(|v| *v += 0.5);
                }
                ml.write_row_from_scratch(ctx, ml.at(t + 1), (idx0, count), sel, (off, stride));
            }
        }
        [true, false].map(|spans| {
            let ml = mk().with_touch_tracking();
            let mut expect = vec![0.0; 6 * count];
            for idx in 0..40 {
                let m = Moments {
                    rho: 1.0 + idx as f64 * 0.01,
                    u: [0.001 * idx as f64, -0.002 - 0.0001 * idx as f64, 0.0],
                    pi: [0.3, 0.05 * idx as f64, 0.0, 0.31, 0.0, 0.0],
                };
                ml.set_moments::<D2Q9>(ml.at(t), idx, &m);
                if (idx0..idx0 + count).contains(&idx) {
                    let mut flat = [0.0; 6];
                    m.pack::<D2Q9>(&mut flat);
                    for (k, v) in flat.into_iter().enumerate() {
                        expect[k * count + idx - idx0] = v;
                    }
                }
            }
            let gpu = Gpu::new(DeviceSpec::v100()).with_cpu_threads(1);
            let cfg = Launch {
                blocks: 1,
                threads_per_block: 32,
                shared_doubles: 0,
                scratch_doubles: off + 5 * stride + count,
            };
            let probe = RowProbe {
                ml: &ml,
                spans,
                t,
                row: (idx0, count),
                at: (off, stride),
                sel,
                expect,
            };
            let stats = gpu.launch(&cfg, &probe);
            let out = (idx0..idx0 + count)
                .map(|idx| ml.get_moments::<D2Q9>(ml.at(t + 1), idx))
                .collect();
            (stats.tally, out)
        })
    }

    /// The span and element paths agree: same tally (six words), same
    /// moments left behind, each of the `6·selected` cells read and
    /// written once.
    fn assert_same_round_trip(
        what: &str,
        [(ts, vs), (te, ve)]: [(gpu_sim::memory::Tally, Vec<Moments>); 2],
        selected: usize,
    ) {
        assert_eq!(
            ts, te,
            "{what}: row-span tallies diverged from element tallies"
        );
        assert_eq!(ts.reads, (selected * 6) as u64, "{what}");
        assert_eq!(ts.writes, (selected * 6) as u64, "{what}");
        for (a, b) in vs.iter().zip(&ve) {
            assert_eq!((a.rho, a.u, a.pi), (b.rho, b.u, b.pi), "{what}");
        }
    }

    /// Row (span) reads/writes produce bitwise-identical values and
    /// byte-identical tallies to element-wise moment access, including when
    /// the row straddles the circular wrap of the slot space.
    #[test]
    fn row_ops_match_element_ops_across_wrap() {
        // n=40, cap=50, shift=8: at t=1 node idx sits in slot (idx+42)%50,
        // so the row idx0=5, count=10 occupies slots 47..50 ∪ 0..7 — a wrap.
        let shifted = || MomentLattice::new(40, 6, 8, 10);
        let runs = row_round_trip(shifted, 1, (5, 10), (0, 10), None);
        assert!((runs[0].1[0].rho - (1.0 + 0.05 + 0.5)).abs() < 1e-15);
        assert_same_round_trip("packed, across the wrap", runs, 10);
        // The same wrap staged at a row position with a wider plane stride.
        let runs = row_round_trip(shifted, 1, (5, 10), (3, 17), None);
        assert_same_round_trip("strided, across the wrap", runs, 10);
        // A window split by the wrap into 3 + 7 nodes, runs on both sides
        // of it and rock (unselected nodes) at both of its ends.
        let sel = [0b01_1011_0110];
        let runs = row_round_trip(shifted, 1, (5, 10), (3, 17), Some(&sel));
        assert_same_round_trip("window across the wrap", runs, 6);
    }

    /// The twisted lattice's row envelope: at odd `t` the planes are stored
    /// in reverse order, so one side of every step moves them reversed —
    /// reading at odd `t` and writing at even `t + 1`, then the other way
    /// round — staged packed and at a non-packed plane stride. Values and
    /// tallies must match element-wise access through `plane(t, m)`.
    #[test]
    fn row_ops_match_element_ops_twisted_and_strided() {
        let twisted = || MomentLattice::new(40, 6, 0, 0).with_parity_twist();
        for t in [1, 2] {
            for (off, stride) in [(0, 9), (2, 9), (5, 13)] {
                let what = format!("twist t = {t}, scratch {off} + m·{stride}");
                let runs = row_round_trip(twisted, t, (30, 9), (off, stride), None);
                assert_same_round_trip(&what, runs, 9);
                let runs =
                    row_round_trip(twisted, t, (30, 9), (off, stride), Some(&[0b1_0110_1101]));
                assert_same_round_trip(&format!("{what}, window"), runs, 6);
            }
        }
    }
}

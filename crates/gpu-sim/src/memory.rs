//! Global device memory with byte-exact traffic accounting.
//!
//! [`GlobalBuffer`] is the substrate's model of GPU global memory: a shared
//! array that kernels read and write through a per-block [`Tally`], so that
//! every launch knows exactly how many bytes it moved. This is the quantity
//! the paper's whole performance analysis rests on (B/F, Table 2), so it is
//! *measured*, never assumed.
//!
//! An optional [`crate::racecheck::RaceChecker`] validates the concurrency
//! discipline of the kernels (used by the tests for Algorithm 2's circular
//! array shifting).

use crate::fault::FaultPlan;
use crate::racecheck::{Epoch, RaceChecker};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Per-block access counters, aggregated into
/// [`crate::exec::LaunchStats`] when a launch completes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Bytes read from DRAM under the launch-scoped L2 model: the first
    /// read of a cell in a launch is a DRAM transaction, repeats (e.g.
    /// halo cells shared between adjacent columns) are L2 hits. Equal to
    /// `bytes_read` on buffers without touch tracking.
    pub dram_bytes_read: u64,
    /// Reads served by the modeled L2 (repeat touches within one launch).
    pub l2_read_hits: u64,
}

impl Tally {
    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.dram_bytes_read += other.dram_bytes_read;
        self.l2_read_hits += other.l2_read_hits;
    }

    /// Total bytes requested in either direction (including L2 hits).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Bytes that reach DRAM: unique reads plus all writes. This is the
    /// quantity the paper's B/F model (Table 2) describes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes_read + self.bytes_written
    }

    /// L2 hit rate over reads.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.l2_read_hits as f64 / self.reads as f64
        }
    }
}

/// A global-memory array shared by all blocks of a launch.
///
/// # Concurrency contract
/// Kernels may access a `GlobalBuffer` from many blocks concurrently; the
/// *algorithm* must guarantee that no cell is written by two blocks in one
/// launch, and that no block reads a cell another block writes in the same
/// lockstep phase. Enable the race checker (in tests) to verify this
/// dynamically; release-path accesses are unchecked for speed, exactly like
/// real global memory. Host-path accesses ([`GlobalBuffer::get`],
/// [`GlobalBuffer::set`], [`GlobalBuffer::snapshot`]) happen between
/// launches only.
///
/// Every access to a cell's value goes through one of four private
/// primitives (`load`, `store`, `load_span`, `store_span`), which hold the
/// module's only `unsafe` blocks besides the two marker impls below.
pub struct GlobalBuffer<T = f64> {
    cells: Box<[UnsafeCell<T>]>,
    race: Option<RaceChecker>,
    /// Launch id of the last read per cell, for the launch-scoped L2 model.
    touch: Option<Box<[AtomicU32]>>,
    /// Injected-fault script consulted on counted writes (tests/resilience).
    faults: Option<Arc<FaultPlan>>,
}

// SAFETY: the buffer never hands out a reference into `cells`, only copies
// of `T` in and out through the four primitives, so sharing it between
// threads is sound exactly when no cell is written by one thread while
// another reads or writes it. That is the concurrency contract above: the
// kernels' algorithms guarantee it, and the race checker (when attached)
// verifies it cell by cell. The copies cross threads, hence `T: Send`. The
// other fields — `race`, `touch`, `faults` — are `Sync` on their own
// (atomics and an `Arc` of atomics; checked below).
unsafe impl<T: Send> Sync for GlobalBuffer<T> {}
// SAFETY: the buffer owns its cells; sending it sends `T`s, which are
// `Send`, and the other fields are `Send` on their own (checked below).
unsafe impl<T: Send> Send for GlobalBuffer<T> {}

// The compile-time twin of both SAFETY comments: every field but `cells`
// is `Send + Sync` without the impls above.
const _: fn() = || {
    fn shared<F: Send + Sync>() {}
    shared::<Option<RaceChecker>>();
    shared::<Option<Box<[AtomicU32]>>>();
    shared::<Option<Arc<FaultPlan>>>();
};

/// Whether `len` values of `T` at `a` and at `b` share no byte — the
/// precondition of `copy_nonoverlapping`, debug-checked at both span
/// primitives.
fn disjoint<T>(a: *const T, b: *const T, len: usize) -> bool {
    let (a, b, bytes) = (a as usize, b as usize, len * std::mem::size_of::<T>());
    a + bytes <= b || b + bytes <= a
}

impl<T: Copy + Default> GlobalBuffer<T> {
    /// Allocate a zero/default-initialized buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        Self::from_vec(vec![T::default(); len])
    }
}

impl<T: Copy> GlobalBuffer<T> {
    /// The value of cell `i`.
    #[inline(always)]
    fn load(&self, i: usize) -> T {
        let cell = &self.cells[i];
        // SAFETY: `cell` is in bounds (indexed above), so the pointer is
        // valid and aligned for a `T`. No thread writes cell `i` while it is
        // read (the concurrency contract; the race checker's job in tests).
        unsafe { *cell.get() }
    }

    /// Set cell `i` to `v`.
    #[inline(always)]
    fn store(&self, i: usize, v: T) {
        let cell = &self.cells[i];
        // SAFETY: as in `load`; additionally no thread reads cell `i` while
        // it is written.
        unsafe { *cell.get() = v }
    }

    /// Copy cells `start .. start + out.len()` into `out`.
    #[inline(always)]
    fn load_span(&self, start: usize, out: &mut [T]) {
        const { assert!(std::mem::size_of::<UnsafeCell<T>>() == std::mem::size_of::<T>()) };
        let cells = &self.cells[start..start + out.len()];
        let src = cells.as_ptr().cast::<T>();
        debug_assert!(disjoint(src, out.as_ptr(), out.len()));
        // SAFETY: `cells` is in bounds (sliced above) and, `UnsafeCell<T>`
        // being layout-identical to `T` (asserted above), one contiguous
        // run of `out.len()` values whose pointer carries the whole slice's
        // provenance. `out` is an exclusive borrow of other memory, so the
        // ranges do not overlap (debug-checked). No thread writes these
        // cells meanwhile (the concurrency contract).
        unsafe { std::ptr::copy_nonoverlapping(src, out.as_mut_ptr(), out.len()) }
    }

    /// Copy `src` into cells `start .. start + src.len()`.
    #[inline(always)]
    fn store_span(&self, start: usize, src: &[T]) {
        const { assert!(std::mem::size_of::<UnsafeCell<T>>() == std::mem::size_of::<T>()) };
        let cells = &self.cells[start..start + src.len()];
        let dst = UnsafeCell::raw_get(cells.as_ptr());
        debug_assert!(disjoint(src.as_ptr(), dst, src.len()));
        // SAFETY: as in `load_span`, with the roles swapped: `UnsafeCell`
        // permits writing through the shared slice, and no thread reads or
        // writes these cells meanwhile.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) }
    }

    /// Take ownership of host data.
    pub fn from_vec(v: Vec<T>) -> Self {
        GlobalBuffer {
            cells: v.into_iter().map(UnsafeCell::new).collect(),
            race: None,
            touch: None,
            faults: None,
        }
    }

    /// Attach a fault-injection plan: counted kernel writes consult it and
    /// may have their value corrupted in place. Accounting is unchanged —
    /// a corrupted write still moved its bytes.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Builder-style [`GlobalBuffer::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Enable the launch-scoped L2 model: within one launch, only the first
    /// read of each cell counts as DRAM traffic; repeats are L2 hits. The
    /// L2 is assumed cold at each launch boundary (conservative — matches
    /// the paper's per-step traffic model for problems much larger than L2).
    pub fn with_touch_tracking(mut self) -> Self {
        self.touch = Some((0..self.cells.len()).map(|_| AtomicU32::new(0)).collect());
        self
    }

    /// Attach a race checker covering every cell (test configurations).
    pub fn with_racecheck(mut self) -> Self {
        self.race = Some(RaceChecker::new(self.cells.len()));
        self
    }

    /// Attach a *strict* race checker: additionally forbids cross-block
    /// reads of cells written in an earlier phase of the same launch. Use
    /// for in-place buffers protected by circular array shifting, where such
    /// a read means the shift failed to protect old data.
    pub fn with_racecheck_strict(mut self) -> Self {
        self.set_racecheck_strict();
        self
    }

    /// In-place [`GlobalBuffer::with_racecheck_strict`].
    pub fn set_racecheck_strict(&mut self) {
        self.race = Some(RaceChecker::with_mode(self.cells.len(), true));
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Size of the allocation in bytes (the device-memory footprint).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<T>()
    }

    /// One step of the launch-scoped L2 touch model: `true` iff this access
    /// is the cell's first touch of the launch (a DRAM transaction).
    ///
    /// The cheap relaxed load in front of the swap is a fast path for repeat
    /// touches (the common case: 8 of 9 gathers of a D2Q9 pull re-touch a
    /// cell) — a plain load instead of a locked RMW. It cannot change the
    /// accounting: `launch` is only ever stored during this launch, so a
    /// load observing it proves some participant already won the swap and
    /// counted the DRAM byte. When the load sees anything else we fall
    /// through to the swap, whose return value stays authoritative — exactly
    /// one participant per (cell, launch) observes a foreign value, so the
    /// merged totals are schedule-invariant either way.
    ///
    /// When the epoch is [`Epoch::exclusive`] (inline dispatch: every block
    /// of the launch runs on the submitting thread), no other participant
    /// can touch the cell concurrently, so a plain store replaces the locked
    /// swap — same state machine, same counts, no bus lock.
    #[inline(always)]
    fn touch_is_dram(cell: &AtomicU32, ep: Epoch) -> bool {
        if cell.load(Ordering::Relaxed) == ep.launch {
            return false;
        }
        if ep.exclusive {
            cell.store(ep.launch, Ordering::Relaxed);
            return true;
        }
        cell.swap(ep.launch, Ordering::Relaxed) != ep.launch
    }

    /// Kernel-path read: counted and race-checked. Bounds are validated
    /// *before* anything is tallied, so an out-of-bounds access panics with
    /// clean counters (`touch` always covers the whole buffer, so the
    /// single check suffices for both paths).
    #[inline(always)]
    pub fn read(&self, tally: &mut Tally, epoch: Epoch, i: usize) -> T {
        assert!(i < self.cells.len(), "global read out of bounds: {i}");
        if let Some(rc) = &self.race {
            rc.on_read(epoch, i);
        }
        tally.reads += 1;
        let sz = std::mem::size_of::<T>() as u64;
        tally.bytes_read += sz;
        match &self.touch {
            Some(touch) => {
                if Self::touch_is_dram(&touch[i], epoch) {
                    tally.dram_bytes_read += sz;
                } else {
                    tally.l2_read_hits += 1;
                }
            }
            None => tally.dram_bytes_read += sz,
        }
        self.load(i)
    }

    /// Kernel-path write: counted and race-checked. Bounds validated before
    /// counting, like [`GlobalBuffer::read`].
    #[inline(always)]
    pub fn write(&self, tally: &mut Tally, epoch: Epoch, i: usize, value: T) {
        assert!(i < self.cells.len(), "global write out of bounds: {i}");
        if let Some(rc) = &self.race {
            rc.on_write(epoch, i);
        }
        tally.writes += 1;
        tally.bytes_written += std::mem::size_of::<T>() as u64;
        let mut value = value;
        if let Some(p) = &self.faults {
            p.corrupt(i, &mut value);
        }
        self.store(i, value);
    }

    /// Bulk-counted read of `out.len()` consecutive cells starting at
    /// `start`.
    ///
    /// Byte-identical accounting to `out.len()` element-wise [`read`]s:
    /// bounds are validated once for the whole span, `reads`/`bytes_read`
    /// are bumped in one addition, race checks and L2 touch swaps still
    /// happen per element (they are per-cell state machines), and the data
    /// moves with one `copy_nonoverlapping` over the contiguous cell slab.
    ///
    /// [`read`]: GlobalBuffer::read
    pub fn read_span(&self, tally: &mut Tally, epoch: Epoch, start: usize, out: &mut [T]) {
        let len = out.len();
        if len == 0 {
            return;
        }
        assert!(
            len <= self.cells.len() && start <= self.cells.len() - len,
            "global read span out of bounds: {start}..{}",
            start + len
        );
        if let Some(rc) = &self.race {
            for i in start..start + len {
                rc.on_read(epoch, i);
            }
        }
        let dram = self.first_touches(epoch, start, len);
        Self::count_reads(tally, len as u64, dram);
        self.load_span(start, out);
    }

    /// Bulk-counted write of `src.len()` consecutive cells starting at
    /// `start`. Accounting mirror of [`GlobalBuffer::read_span`].
    pub fn write_span(&self, tally: &mut Tally, epoch: Epoch, start: usize, src: &[T]) {
        let len = src.len();
        if len == 0 {
            return;
        }
        assert!(
            len <= self.cells.len() && start <= self.cells.len() - len,
            "global write span out of bounds: {start}..{}",
            start + len
        );
        if let Some(rc) = &self.race {
            for i in start..start + len {
                rc.on_write(epoch, i);
            }
        }
        tally.writes += len as u64;
        tally.bytes_written += std::mem::size_of::<T>() as u64 * len as u64;
        self.store_row(start, src);
    }

    /// Cells of `start..start + len` whose read is this launch's first touch
    /// (DRAM reads under the L2 model; all of them without touch tracking).
    #[inline(always)]
    fn first_touches(&self, epoch: Epoch, start: usize, len: usize) -> u64 {
        match &self.touch {
            Some(touch) => touch[start..start + len]
                .iter()
                .filter(|t| Self::touch_is_dram(t, epoch))
                .count() as u64,
            None => len as u64,
        }
    }

    /// Tally `n` counted reads, `dram` of them from DRAM, the rest L2 hits.
    #[inline(always)]
    fn count_reads(tally: &mut Tally, n: u64, dram: u64) {
        let sz = std::mem::size_of::<T>() as u64;
        tally.reads += n;
        tally.bytes_read += sz * n;
        tally.dram_bytes_read += sz * dram;
        tally.l2_read_hits += n - dram;
    }

    /// Store `row` into cells `s..`: element by element through the fault
    /// plan when one is attached, so each cell can corrupt independently
    /// (the caller tallies the same either way), else in one span copy.
    #[inline(always)]
    fn store_row(&self, s: usize, row: &[T]) {
        match &self.faults {
            Some(p) => {
                for (k, &v) in row.iter().enumerate() {
                    let mut v = v;
                    p.corrupt(s + k, &mut v);
                    self.store(s + k, v);
                }
            }
            None => self.store_span(s, row),
        }
    }

    /// Bulk-counted read of `rows` equal-length spans at a fixed stride:
    /// span `r` covers cells `start + r·stride .. + len` and lands at
    /// `out[r·len..]`. Accounting is byte-identical to `rows` separate
    /// [`GlobalBuffer::read_span`] calls, but the per-call envelope — race
    /// dispatch, touch-table dispatch, tally field updates — is paid once.
    /// Short strided rows (an SoA moment lattice reads `M` of them per
    /// lattice row) are dominated by that envelope, not by the bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn read_spans(
        &self,
        tally: &mut Tally,
        epoch: Epoch,
        start: usize,
        stride: usize,
        rows: usize,
        len: usize,
        out: &mut [T],
    ) {
        debug_assert_eq!(out.len(), rows * len);
        self.read_spans_into(tally, epoch, start, stride, rows, len, out, len, false);
    }

    /// [`GlobalBuffer::read_spans`] into rows of `out` that are `out_stride`
    /// apart (`≥ len`) and, when `reversed`, in reverse order: span `r`
    /// lands at `out[d·out_stride..][..len]` with `d = rows − 1 − r`. One
    /// envelope for the family either way; a moment lattice whose parity
    /// twist has reversed its plane order reads its `M` planes with it.
    #[allow(clippy::too_many_arguments)]
    pub fn read_spans_into(
        &self,
        tally: &mut Tally,
        epoch: Epoch,
        start: usize,
        stride: usize,
        rows: usize,
        len: usize,
        out: &mut [T],
        out_stride: usize,
        reversed: bool,
    ) {
        if rows == 0 || len == 0 {
            return;
        }
        self.check_family("read", start, stride, rows, len, out.len(), out_stride);
        if let Some(rc) = &self.race {
            for r in 0..rows {
                let s = start + r * stride;
                for i in s..s + len {
                    rc.on_read(epoch, i);
                }
            }
        }
        let dram = (0..rows).map(|r| self.first_touches(epoch, start + r * stride, len));
        Self::count_reads(tally, (rows * len) as u64, dram.sum());
        for r in 0..rows {
            let d = if reversed { rows - 1 - r } else { r } * out_stride;
            self.load_span(start + r * stride, &mut out[d..d + len]);
        }
    }

    /// Write mirror of [`GlobalBuffer::read_spans_into`]: span `r` of the
    /// cells takes `src[d·src_stride..][..len]`, `d` as there. Accounting is
    /// byte-identical to `rows` separate [`GlobalBuffer::write_span`] calls.
    #[allow(clippy::too_many_arguments)]
    pub fn write_spans_from(
        &self,
        tally: &mut Tally,
        epoch: Epoch,
        start: usize,
        stride: usize,
        rows: usize,
        len: usize,
        src: &[T],
        src_stride: usize,
        reversed: bool,
    ) {
        if rows == 0 || len == 0 {
            return;
        }
        self.check_family("write", start, stride, rows, len, src.len(), src_stride);
        if let Some(rc) = &self.race {
            for r in 0..rows {
                let s = start + r * stride;
                for i in s..s + len {
                    rc.on_write(epoch, i);
                }
            }
        }
        let total = (rows * len) as u64;
        tally.writes += total;
        tally.bytes_written += std::mem::size_of::<T>() as u64 * total;
        for r in 0..rows {
            let d = if reversed { rows - 1 - r } else { r } * src_stride;
            self.store_row(start + r * stride, &src[d..d + len]);
        }
    }

    /// Bounds of a strided family against the cells and against the host
    /// slice of `host_len` values it moves to or from, validated before
    /// anything is tallied: monotone row starts, so the first and the last
    /// row cover the rest.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn check_family(
        &self,
        what: &str,
        start: usize,
        stride: usize,
        rows: usize,
        len: usize,
        host_len: usize,
        host_stride: usize,
    ) {
        let n = self.cells.len();
        let last = start + (rows - 1) * stride;
        assert!(
            len <= n && start <= n - len && last <= n - len,
            "global {what} out of bounds: {rows} rows of {start}..+{len} by {stride}"
        );
        assert!(
            host_stride >= len && (rows - 1) * host_stride + len <= host_len,
            "{rows} host rows of {len} by {host_stride} overrun {host_len} values"
        );
    }

    /// Host-path read (uncounted). Only sound between launches.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.load(i)
    }

    /// Host-path write (uncounted). Only sound between launches.
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        self.store(i, value)
    }

    /// Copy the whole buffer to host memory. Only sound between launches.
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.cells.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(block: u32) -> Epoch {
        Epoch {
            launch: 1,
            phase: 0,
            block,
            exclusive: false,
        }
    }

    #[test]
    fn tally_counts_bytes_exactly() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(16);
        let mut t = Tally::default();
        for i in 0..10 {
            b.write(&mut t, ep(0), i, i as f64);
        }
        for i in 0..4 {
            let _ = b.read(&mut t, ep(0), i);
        }
        assert_eq!(t.writes, 10);
        assert_eq!(t.reads, 4);
        assert_eq!(t.bytes_written, 80);
        assert_eq!(t.bytes_read, 32);
        assert_eq!(t.total_bytes(), 112);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Tally {
            reads: 1,
            writes: 2,
            bytes_read: 8,
            bytes_written: 16,
            dram_bytes_read: 8,
            l2_read_hits: 0,
        };
        a.merge(&Tally {
            reads: 10,
            writes: 20,
            bytes_read: 80,
            bytes_written: 160,
            dram_bytes_read: 80,
            l2_read_hits: 0,
        });
        assert_eq!(a.reads, 11);
        assert_eq!(a.bytes_written, 176);
    }

    #[test]
    fn roundtrip_values() {
        let b: GlobalBuffer<f64> = GlobalBuffer::from_vec(vec![1.5, 2.5, 3.5]);
        let mut t = Tally::default();
        assert_eq!(b.read(&mut t, ep(0), 1), 2.5);
        b.write(&mut t, ep(0), 1, -7.0);
        assert_eq!(b.get(1), -7.0);
        assert_eq!(b.snapshot(), vec![1.5, -7.0, 3.5]);
        assert_eq!(b.size_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(4);
        let mut t = Tally::default();
        let _ = b.read(&mut t, ep(0), 4);
    }

    #[test]
    fn touch_tracking_models_l2() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(8).with_touch_tracking();
        let mut t = Tally::default();
        // First reads: DRAM. Repeats within the same launch: L2 — even from
        // another block (halo sharing between columns).
        for i in 0..4 {
            let _ = b.read(&mut t, ep(0), i);
        }
        for i in 0..4 {
            let _ = b.read(&mut t, ep(1), i);
        }
        assert_eq!(t.reads, 8);
        assert_eq!(t.dram_bytes_read, 32);
        assert_eq!(t.l2_read_hits, 4);
        assert!((t.l2_hit_rate() - 0.5).abs() < 1e-12);
        // A new launch starts with a cold L2.
        let mut t2 = Tally::default();
        let _ = b.read(
            &mut t2,
            Epoch {
                launch: 2,
                phase: 0,
                block: 0,
                exclusive: false,
            },
            0,
        );
        assert_eq!(t2.dram_bytes_read, 8);
        assert_eq!(t2.l2_read_hits, 0);
    }

    #[test]
    fn dram_bytes_without_tracking_equals_all_reads() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(4);
        let mut t = Tally::default();
        let _ = b.read(&mut t, ep(0), 1);
        let _ = b.read(&mut t, ep(0), 1);
        b.write(&mut t, ep(0), 2, 1.0);
        assert_eq!(t.dram_bytes_read, 16);
        assert_eq!(t.dram_bytes(), 24);
    }

    /// The satellite fix: an OOB access panics with *clean* counters — the
    /// panic path must not inflate reads/bytes.
    #[test]
    fn oob_access_does_not_count() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let b: GlobalBuffer<f64> = GlobalBuffer::new(4).with_touch_tracking();
        let mut t = Tally::default();
        assert!(catch_unwind(AssertUnwindSafe(|| b.read(&mut t, ep(0), 4))).is_err());
        assert_eq!(t, Tally::default(), "OOB read inflated the tally");
        assert!(catch_unwind(AssertUnwindSafe(|| b.write(&mut t, ep(0), 9, 1.0))).is_err());
        assert_eq!(t, Tally::default(), "OOB write inflated the tally");
        let mut out = [0.0; 3];
        assert!(
            catch_unwind(AssertUnwindSafe(|| b.read_span(&mut t, ep(0), 2, &mut out))).is_err()
        );
        assert_eq!(t, Tally::default(), "OOB read span inflated the tally");
        assert!(
            catch_unwind(AssertUnwindSafe(|| b.write_span(&mut t, ep(0), 3, &out))).is_err(),
            "write span 3..6 of len-4 buffer must panic"
        );
        assert_eq!(t, Tally::default(), "OOB write span inflated the tally");
    }

    /// Span ops produce byte-identical tallies to element-wise loops — the
    /// equivalence argument the kernel ports rest on — including the L2
    /// touch model under repeated reads.
    #[test]
    fn span_tally_matches_element_tally() {
        let run = |spans: bool| {
            let b: GlobalBuffer<f64> =
                GlobalBuffer::from_vec((0..32).map(|i| i as f64).collect()).with_touch_tracking();
            let mut t = Tally::default();
            let mut buf = [0.0; 12];
            if spans {
                b.read_span(&mut t, ep(0), 4, &mut buf);
                b.read_span(&mut t, ep(1), 8, &mut buf[..8]); // overlaps: 8..16 repeat
                let vals: Vec<f64> = (0..6).map(|i| -(i as f64)).collect();
                b.write_span(&mut t, ep(0), 20, &vals);
            } else {
                for (k, v) in buf.iter_mut().enumerate() {
                    *v = b.read(&mut t, ep(0), 4 + k);
                }
                for k in 0..8 {
                    let _ = b.read(&mut t, ep(1), 8 + k);
                }
                for i in 0..6 {
                    b.write(&mut t, ep(0), 20 + i, -(i as f64));
                }
            }
            (t, b.snapshot())
        };
        let (ts, fs) = run(true);
        let (te, fe) = run(false);
        assert_eq!(ts, te, "span vs element tallies diverged");
        assert_eq!(fs, fe, "span vs element values diverged");
        assert_eq!(ts.reads, 20);
        assert_eq!(ts.l2_read_hits, 8, "cells 8..16 re-read within the launch");
        assert_eq!(ts.dram_bytes_read, 12 * 8);
        assert_eq!(ts.writes, 6);
    }

    /// A strided family moved into rows `out_stride` apart, in reverse row
    /// order, and written back the same way, tallies and lands exactly like
    /// the element-wise loop it stands for — including a repeat read of
    /// the family (L2 hits) and a fault on one cell of the write.
    #[test]
    fn strided_reversed_family_matches_element_ops() {
        use crate::fault::FaultPlan;
        // Three rows of two cells at stride 5 from cell 3; host rows 4 apart
        // from offset 1, reversed.
        let (start, stride, rows, len, out_stride) = (3, 5, 3, 2, 4);
        let host = |r: usize, k: usize| 1 + (rows - 1 - r) * out_stride + k;
        let run = |spans: bool| {
            let mut plan = FaultPlan::new();
            plan.inject_bitflip(start + stride + 1, 63, 0);
            let b: GlobalBuffer<f64> = GlobalBuffer::from_vec((0..16).map(|i| i as f64).collect())
                .with_touch_tracking()
                .with_fault_plan(Arc::new(plan));
            let (mut t, mut out) = (Tally::default(), [0.0; 12]);
            if spans {
                for _ in 0..2 {
                    b.read_spans_into(
                        &mut t,
                        ep(0),
                        start,
                        stride,
                        rows,
                        len,
                        &mut out[1..],
                        out_stride,
                        true,
                    );
                }
                out.iter_mut().for_each(|v| *v *= 10.0);
                b.write_spans_from(
                    &mut t,
                    ep(0),
                    start,
                    stride,
                    rows,
                    len,
                    &out[1..],
                    out_stride,
                    true,
                );
            } else {
                for _ in 0..2 {
                    for r in 0..rows {
                        for k in 0..len {
                            out[host(r, k)] = b.read(&mut t, ep(0), start + r * stride + k);
                        }
                    }
                }
                out.iter_mut().for_each(|v| *v *= 10.0);
                for r in 0..rows {
                    for k in 0..len {
                        b.write(&mut t, ep(0), start + r * stride + k, out[host(r, k)]);
                    }
                }
            }
            (t, out, b.snapshot())
        };
        let (ts, os, fs) = run(true);
        let (te, oe, fe) = run(false);
        assert_eq!(
            ts, te,
            "strided family tallies diverged from element tallies"
        );
        assert_eq!((os, &fs), (oe, &fe), "strided family values diverged");
        assert_eq!((ts.reads, ts.l2_read_hits, ts.writes), (12, 6, 6));
        // Row 0 (cells 3, 4) lands in the last host row, reversed order.
        assert_eq!(os[host(0, 0)], 30.0);
        assert_eq!(
            fs[start + stride + 1],
            -90.0,
            "the fault hit cell 9's write"
        );
    }

    /// Span ops feed the same per-cell race checker as element ops: a
    /// same-phase cross-block write/read overlap inside a span is caught.
    #[test]
    #[should_panic(expected = "race")]
    fn span_ops_are_race_checked() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(16).with_racecheck();
        let mut t = Tally::default();
        let vals = [1.0; 8];
        b.write_span(&mut t, ep(0), 0, &vals);
        let mut out = [0.0; 4];
        b.read_span(&mut t, ep(1), 6, &mut out); // overlaps block 0's write
    }

    #[test]
    fn span_roundtrip_values() {
        let b: GlobalBuffer<f64> = GlobalBuffer::from_vec(vec![0.0; 10]);
        let mut t = Tally::default();
        let vals = [3.0, 1.0, 4.0, 1.0, 5.0];
        b.write_span(&mut t, ep(0), 2, &vals);
        let mut out = [0.0; 5];
        b.read_span(&mut t, ep(0), 2, &mut out);
        assert_eq!(out, vals);
        assert_eq!(b.get(0), 0.0);
        assert_eq!(b.get(7), 0.0);
        // Zero-length spans are free.
        b.read_span(&mut t, ep(0), 10, &mut []);
        b.write_span(&mut t, ep(0), 10, &[]);
        assert_eq!(t.reads, 5);
        assert_eq!(t.writes, 5);
    }

    /// Fault injection corrupts values on both the element and span write
    /// paths but never the accounting: tallies with a plan attached are
    /// byte-identical to tallies without one.
    #[test]
    fn fault_injection_is_accounting_neutral() {
        use crate::fault::FaultPlan;
        let run = |plan: Option<Arc<FaultPlan>>| {
            let mut b: GlobalBuffer<f64> = GlobalBuffer::new(16).with_touch_tracking();
            if let Some(p) = plan {
                b.set_fault_plan(p);
            }
            let mut t = Tally::default();
            b.write(&mut t, ep(0), 3, 1.5);
            let vals = [2.0, 3.0, 4.0, 5.0];
            b.write_span(&mut t, ep(0), 6, &vals);
            let mut out = [0.0; 4];
            b.read_span(&mut t, ep(0), 6, &mut out);
            (t, b.snapshot())
        };

        let mut plan = FaultPlan::new();
        plan.inject_nan(3, 0); // element path
        plan.inject_bitflip(7, 63, 0); // span path: sign flip of cell 7
        let plan = Arc::new(plan);
        let (tf, ff) = run(Some(plan.clone()));
        let (tc, fc) = run(None);

        assert_eq!(tf, tc, "fault plan changed the tally");
        assert!(ff[3].is_nan(), "element-path NaN fault did not land");
        assert_eq!(ff[7], -fc[7], "span-path bitflip did not land");
        let untouched: Vec<usize> = (0..16).filter(|&i| i != 3 && i != 7).collect();
        for i in untouched {
            assert_eq!(ff[i], fc[i], "cell {i} corrupted unexpectedly");
        }
        assert_eq!(plan.mem_faults_fired(), 2);
    }

    #[test]
    fn generic_element_sizes() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(8);
        let mut t = Tally::default();
        b.write(&mut t, ep(0), 0, 42);
        assert_eq!(t.bytes_written, 4);
        assert_eq!(b.size_bytes(), 32);
    }
}

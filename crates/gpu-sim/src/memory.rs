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

use crate::fault::{Element, FaultPlan};
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
/// module's only `unsafe` blocks besides the two marker impls below and the
/// plain view of the stamps an exclusive launch's packed passes take
/// (`exclusive_stamps`).
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

/// Whether `len` values of `T` at `a` and at `b` share no byte — what the
/// slice views of both span primitives take for granted, debug-checked at
/// each.
fn disjoint<T>(a: *const T, b: *const T, len: usize) -> bool {
    let (a, b, bytes) = (a as usize, b as usize, len * std::mem::size_of::<T>());
    a + bytes <= b || b + bytes <= a
}

/// The longest span [`copy_short`] moves in fixed-width chunks; longer
/// ones are one `memcpy`. It covers every row the walkers move (a D3Q19
/// MR row is 10 planes of 16 nodes, a sparse tile run 1–10 nodes).
pub const SHORT_SPAN: usize = 64;

/// Chunk width of [`copy_short`], in elements.
const CHUNK: usize = 8;

/// `dst.copy_from_slice(src)` without a `memcpy` call for a span of at
/// most [`SHORT_SPAN`] elements: fixed-width loads and stores, inline. From
/// one chunk of 8 up, whole chunks from the front and one last chunk that
/// ends at the span's end, overlapping the one before it; below, two
/// overlapping halves, quarters or pairs. Every chunk lies inside the
/// span, so nothing beyond either end is read or written. A run-time-length
/// copy is an out-of-line library call whose entry costs more than moving
/// a short row; this is the cost per span the counted span reads and
/// writes would otherwise pay.
///
/// # Panics
/// If the lengths differ, like `copy_from_slice`.
#[inline(always)]
pub fn copy_short<T: Copy>(dst: &mut [T], src: &[T]) {
    let n = src.len();
    assert_eq!(
        dst.len(),
        n,
        "copy_short: destination and source lengths differ"
    );
    if n > SHORT_SPAN {
        dst.copy_from_slice(src)
    } else if n >= CHUNK {
        let mut k = 0;
        while k + CHUNK < n {
            copy_chunk::<T, CHUNK>(dst, src, k);
            k += CHUNK;
        }
        copy_chunk::<T, CHUNK>(dst, src, n - CHUNK);
    } else if n >= 4 {
        copy_ends::<T, 4>(dst, src)
    } else if n >= 2 {
        copy_ends::<T, 2>(dst, src)
    } else if n == 1 {
        dst[0] = src[0]
    }
}

/// The first and the last `W` elements of a span of `W ..= 2W`, which
/// together cover it.
#[inline(always)]
fn copy_ends<T: Copy, const W: usize>(dst: &mut [T], src: &[T]) {
    let n = src.len();
    let head: [T; W] = src[..W].try_into().expect("W ≤ n");
    let tail: [T; W] = src[n - W..].try_into().expect("W ≤ n");
    dst[..W].copy_from_slice(&head);
    dst[n - W..].copy_from_slice(&tail);
}

/// Elements `at .. at + W`, as one fixed-width move.
#[inline(always)]
fn copy_chunk<T: Copy, const W: usize>(dst: &mut [T], src: &[T], at: usize) {
    let c: [T; W] = src[at..at + W].try_into().expect("chunk in the span");
    dst[at..at + W].copy_from_slice(&c);
}

/// Count the `lanes` that are not yet `launch`, then set them all to it:
/// one packed compare and one packed store of a fixed width.
#[inline(always)]
fn stamp_lanes<const W: usize>(lanes: &mut [u32; W], launch: u32) -> u64 {
    let fresh = lanes.iter().filter(|&&s| s != launch).count();
    *lanes = [launch; W];
    fresh as u64
}

/// Count the `stamps` that are not yet `launch` and set them all to it:
/// whole 8-lane chunks, then the rest as at most one 4, one 2 and one 1 —
/// fixed-width passes, none overlapping another (a chunk that re-read
/// lanes just stored would stall on store forwarding).
#[inline(always)]
fn stamp_all(stamps: &mut [u32], launch: u32) -> u64 {
    let (eights, rest) = stamps.as_chunks_mut::<8>();
    let (fours, rest) = rest.as_chunks_mut::<4>();
    let (twos, ones) = rest.as_chunks_mut::<2>();
    let l = launch;
    eights.iter_mut().map(|c| stamp_lanes(c, l)).sum::<u64>()
        + fours.iter_mut().map(|c| stamp_lanes(c, l)).sum::<u64>()
        + twos.iter_mut().map(|c| stamp_lanes(c, l)).sum::<u64>()
        + ones
            .iter_mut()
            .map(|s| stamp_lanes(std::array::from_mut(s), l))
            .sum::<u64>()
}

/// [`stamp_lanes`] on the lanes whose bit of `mask` is set (bit `l` for
/// lane `l`); the others keep their stamps and count nothing. Bitwise
/// selects, not branches, so the pass is packed compares and blends with
/// no branch per lane to mispredict on a ragged selection.
#[inline(always)]
fn stamp_lanes_masked<const W: usize>(lanes: &mut [u32; W], launch: u32, mask: u64) -> u64 {
    let mut fresh = 0;
    for (l, s) in lanes.iter_mut().enumerate() {
        let on = ((mask >> l) as u32 & 1).wrapping_neg();
        fresh += on & u32::from(*s != launch);
        *s = launch & on | *s & !on;
    }
    u64::from(fresh)
}

/// The set bits of `m`, lowest first.
#[inline(always)]
fn set_bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = m.trailing_zeros() as usize;
        m &= m.wrapping_sub(1);
        (l < 64).then_some(l)
    })
}

/// Which cells of each span a counted family
/// ([`GlobalBuffer::read_window_into`], [`GlobalBuffer::write_window_from`])
/// uses, when not all of them: span cell `k` is selected iff bit `at + k`
/// of `bits` is set, bit `j` being bit `j % 64` of word `j / 64`. Bits past
/// the end of `bits` read as unselected. A walker keeps one bit string per
/// footprint row, a set bit per fluid position, and windows it from the
/// row position where the family's spans start.
#[derive(Copy, Clone, Debug)]
pub struct Selection<'a> {
    pub bits: &'a [u64],
    pub at: usize,
}

impl<'a> Selection<'a> {
    /// The same bits, `k` cells further on.
    #[inline(always)]
    pub fn skip(self, k: usize) -> Self {
        Selection {
            bits: self.bits,
            at: self.at + k,
        }
    }

    /// A window of `len` cells in segments of up to 64: `(first cell,
    /// length, selection bits)`, bits past the segment cleared.
    #[inline(always)]
    fn segments(self, len: usize) -> impl Iterator<Item = (usize, usize, u64)> + 'a {
        (0..len).step_by(64).map(move |k| {
            let (w, s) = ((self.at + k) / 64, (self.at + k) % 64);
            let word = |w: usize| self.bits.get(w).copied().unwrap_or(0);
            let bits = match s {
                0 => word(w),
                s => word(w) >> s | word(w + 1) << (64 - s),
            };
            let n = (len - k).min(64);
            (k, n, bits & (u64::MAX >> (64 - n)))
        })
    }

    /// Selected cells among the first `len` of the window.
    #[inline(always)]
    fn count(self, len: usize) -> u64 {
        self.segments(len)
            .map(|(.., m)| m.count_ones() as u64)
            .sum()
    }

    /// `f` on each selected cell among the first `len` of the window, in
    /// order: two plain loops, which stay inline where a flattened
    /// iterator's fold compiled to an out-of-line call.
    #[inline(always)]
    fn each_cell(self, len: usize, mut f: impl FnMut(usize)) {
        for (k, _, m) in self.segments(len) {
            for l in set_bits(m) {
                f(k + l)
            }
        }
    }
}

/// Cells of a `len`-cell span that a family with selection `sel` uses: all
/// of them with none.
#[inline(always)]
fn used(sel: Option<Selection<'_>>, len: usize) -> u64 {
    sel.map_or(len as u64, |sel| sel.count(len))
}

/// The touch model's exclusive pass over the selected stamps of a window:
/// 8-lane masked passes, then lane by lane. Returns the first touches.
#[inline(always)]
fn stamp_selected(stamps: &mut [u32], launch: u32, sel: Selection<'_>) -> u64 {
    let mut fresh = 0;
    for (k, n, mut m) in sel.segments(stamps.len()) {
        let (eights, rest) = stamps[k..k + n].as_chunks_mut::<8>();
        for c in eights {
            fresh += stamp_lanes_masked(c, launch, m);
            m >>= 8;
        }
        for s in rest {
            fresh += stamp_lanes_masked(std::array::from_mut(s), launch, m);
            m >>= 1;
        }
    }
    fresh
}

impl<T: Element + Default> GlobalBuffer<T> {
    /// Allocate a zero/default-initialized buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        Self::from_vec(vec![T::default(); len])
    }
}

impl<T: Element> GlobalBuffer<T> {
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
        // view does not alias it (debug-checked). No thread writes these
        // cells while the view lives (the concurrency contract).
        copy_short(out, unsafe { std::slice::from_raw_parts(src, out.len()) })
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
        // writes these cells while the exclusive view lives.
        copy_short(
            unsafe { std::slice::from_raw_parts_mut(dst, src.len()) },
            src,
        )
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

    /// Whether a race checker or a fault plan is attached: the test and
    /// resilience configurations, whose counted accesses call into them cell
    /// by cell. Without either, a counted span is straight-line code.
    #[inline]
    pub fn is_instrumented(&self) -> bool {
        self.race.is_some() || self.faults.is_some()
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

    /// One step of the launch-scoped L2 touch model under a pooled launch:
    /// `true` iff this access is the cell's first touch of the launch (a
    /// DRAM transaction).
    ///
    /// The cheap relaxed load in front of the swap is a fast path for repeat
    /// touches (the common case: 8 of 9 gathers of a D2Q9 pull re-touch a
    /// cell) — a plain load instead of a locked RMW. It cannot change the
    /// accounting: `launch` is only ever stored during this launch, so a
    /// load observing it proves some participant already won the swap and
    /// counted the DRAM byte. When the load sees anything else we fall
    /// through to the swap, whose return value stays authoritative — exactly
    /// one participant per (cell, launch) observes a foreign value, so the
    /// merged totals are schedule-invariant either way. An exclusive launch
    /// takes [`GlobalBuffer::stamp_exclusive`] instead.
    #[inline(always)]
    fn touch_is_dram(cell: &AtomicU32, ep: Epoch) -> bool {
        if cell.load(Ordering::Relaxed) == ep.launch {
            return false;
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
            // Branch-free: a halo cell is a first touch or a repeat about as
            // often as not.
            Some(touch) if epoch.exclusive => {
                let dram = Self::stamp_exclusive(std::slice::from_ref(&touch[i]), epoch);
                tally.dram_bytes_read += sz * dram;
                tally.l2_read_hits += 1 - dram;
            }
            Some(touch) if Self::touch_is_dram(&touch[i], epoch) => tally.dram_bytes_read += sz,
            Some(_) => tally.l2_read_hits += 1,
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
        self.commit(i, value);
    }

    /// Store `v` into cell `i` through the fault plan, if one is attached:
    /// a counted write of one cell.
    #[inline(always)]
    fn commit(&self, i: usize, mut v: T) {
        if let Some(p) = &self.faults {
            p.corrupt(i, &mut v);
        }
        self.store(i, v);
    }

    /// Bulk-counted read of `out.len()` consecutive cells starting at
    /// `start`: the one-span family of [`GlobalBuffer::read_window_into`]
    /// with every cell used, so its accounting is byte-identical to
    /// `out.len()` element-wise [`GlobalBuffer::read`]s.
    #[inline(always)]
    pub fn read_span(&self, tally: &mut Tally, epoch: Epoch, start: usize, out: &mut [T]) {
        let len = out.len();
        self.read_window_into(tally, epoch, (start, len, 1, len), None, out, len, false)
    }

    /// Bulk-counted write of `src.len()` consecutive cells starting at
    /// `start`: the one-span family of [`GlobalBuffer::write_window_from`].
    #[inline(always)]
    pub fn write_span(&self, tally: &mut Tally, epoch: Epoch, start: usize, src: &[T]) {
        let len = src.len();
        self.write_window_from(tally, epoch, (start, len, 1, len), None, src, len, false)
    }

    /// Bulk-counted read of `rows` equal-length spans at a fixed stride,
    /// packed back to back into `out`: the family of
    /// [`GlobalBuffer::read_window_into`] with every cell used.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
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
        let family = (start, stride, rows, len);
        self.read_window_into(tally, epoch, family, None, out, len, false)
    }

    /// Cells of `start..start + len` — of those `sel` selects, if given —
    /// whose read is this launch's first touch (DRAM reads under the L2
    /// model; all of them without touch tracking). The one place the touch
    /// model meets a span: an exclusive epoch stamps it in one packed pass,
    /// masked under a selection; a pooled one swaps cell by cell, because
    /// another block may stamp the same cells.
    #[inline(always)]
    fn first_touches(
        &self,
        epoch: Epoch,
        start: usize,
        len: usize,
        sel: Option<Selection<'_>>,
    ) -> u64 {
        let Some(touch) = &self.touch else {
            return used(sel, len);
        };
        let stamps = &touch[start..start + len];
        match sel {
            None if epoch.exclusive => Self::stamp_exclusive(stamps, epoch),
            None => stamps
                .iter()
                .filter(|t| Self::touch_is_dram(t, epoch))
                .count() as u64,
            Some(sel) if epoch.exclusive => Self::exclusive_stamps(stamps, epoch, |stamps| {
                stamp_selected(stamps, epoch.launch, sel)
            }),
            Some(sel) => {
                let mut dram = 0;
                sel.each_cell(len, |k| {
                    dram += u64::from(Self::touch_is_dram(&stamps[k], epoch))
                });
                dram
            }
        }
    }

    /// The touch model over a span under an [`Epoch::exclusive`] epoch,
    /// where no other participant can stamp a cell concurrently, so a plain
    /// store replaces the locked swap: one branch-free packed pass counts
    /// the stamps that are not yet `launch`, then sets them all to it. The
    /// same count and the same stamps as the cell-by-cell state machine,
    /// with no branch to mispredict, on a span or on the one cell of an
    /// element read.
    #[inline(always)]
    fn stamp_exclusive(stamps: &[AtomicU32], ep: Epoch) -> u64 {
        Self::exclusive_stamps(stamps, ep, |stamps| stamp_all(stamps, ep.launch))
    }

    /// `pass` over a plain `u32` view of `stamps` under an
    /// [`Epoch::exclusive`] epoch — the view both packed stamp passes
    /// (a span's and a selection's) take.
    #[inline(always)]
    fn exclusive_stamps<R>(
        stamps: &[AtomicU32],
        ep: Epoch,
        pass: impl FnOnce(&mut [u32]) -> R,
    ) -> R {
        debug_assert!(ep.exclusive, "a packed stamp pass under a pooled launch");
        // SAFETY: `AtomicU32` has the size, alignment and bit validity of
        // `u32` and, holding an `UnsafeCell`, permits mutation through a
        // shared borrow; the pointer carries the whole slice's provenance.
        // Stamps are only touched by counted reads, which run inside a
        // launch of the device that owns the buffer, and an exclusive epoch
        // means every participant of that launch runs on this thread, so no
        // other thread reads or writes these stamps while the view lives.
        pass(unsafe {
            std::slice::from_raw_parts_mut(stamps.as_ptr().cast::<u32>().cast_mut(), stamps.len())
        })
    }

    /// The race checker's per-cell record of a counted family of `rows`
    /// spans of `len` cells, `stride` apart from `start` — of the cells
    /// `sel` selects in each, if given. A checker is a test configuration,
    /// so this stays out of line: the span paths it would otherwise bloat
    /// are inlined into every kernel.
    #[cold]
    #[inline(never)]
    fn race_check(
        rc: &RaceChecker,
        epoch: Epoch,
        write: bool,
        (start, stride, rows, len): (usize, usize, usize, usize),
        sel: Option<Selection<'_>>,
    ) {
        for s in (0..rows).map(|r| start + r * stride) {
            let record = |k: usize| match write {
                true => rc.on_write(epoch, s + k),
                false => rc.on_read(epoch, s + k),
            };
            match sel {
                Some(sel) => sel.each_cell(len, record),
                None => (0..len).for_each(record),
            }
        }
    }

    /// The counted family read: `family = (start, stride, rows, len)` is
    /// `rows` spans of `len` cells, span `r` covering cells
    /// `start + r·stride ..`, and span `r` lands at `out[d·out_stride..]`
    /// with `d = r`, or `d = rows − 1 − r` when `reversed` (a moment
    /// lattice whose parity twist has reversed its plane order reads its
    /// `M` planes so). Bounds are validated once and nothing is tallied
    /// before; then one accounting envelope — race dispatch, touch-table
    /// dispatch, tally updates — for the whole family, and the data moves
    /// with [`copy_short`] per span. Short strided rows (an SoA lattice
    /// moves `M` or `Q` of them per row) are dominated by that envelope,
    /// not by the bytes.
    ///
    /// `sel` says which cells the kernel uses: every cell with `None`, else
    /// the cells of each span that `sel` selects, the others being a GPU
    /// row's predicated-off lanes. Every cell of every span is copied to
    /// `out`, but only the used ones are counted in the tally and stamped
    /// by the touch model (`first_touches`), so tallies and stamps are
    /// byte-identical to element-wise [`GlobalBuffer::read`]s of the used
    /// cells alone.
    ///
    /// **Window contract (the caller's obligation).** The unselected cells
    /// are physically read too (the copy in `load_span`): no other block
    /// may write any cell of the family in this phase. The race checker
    /// records a read of every cell of the family, so a strict checker
    /// proves the contract.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn read_window_into(
        &self,
        tally: &mut Tally,
        epoch: Epoch,
        (start, stride, rows, len): (usize, usize, usize, usize),
        sel: Option<Selection<'_>>,
        out: &mut [T],
        out_stride: usize,
        reversed: bool,
    ) {
        if rows == 0 || len == 0 {
            return;
        }
        self.check_family("read", start, stride, rows, len, out.len(), out_stride);
        if let Some(rc) = &self.race {
            Self::race_check(rc, epoch, false, (start, stride, rows, len), None);
        }
        let mut dram = 0;
        for r in 0..rows {
            dram += self.first_touches(epoch, start + r * stride, len, sel);
        }
        let (sz, n) = (
            std::mem::size_of::<T>() as u64,
            rows as u64 * used(sel, len),
        );
        tally.reads += n;
        tally.bytes_read += sz * n;
        tally.dram_bytes_read += sz * dram;
        tally.l2_read_hits += n - dram;
        for r in 0..rows {
            let d = if reversed { rows - 1 - r } else { r } * out_stride;
            self.load_span(start + r * stride, &mut out[d..d + len]);
        }
    }

    /// The counted family write, mirror of
    /// [`GlobalBuffer::read_window_into`]: the used cells of span `r` take
    /// their values from `src[d·src_stride..]`, `d` as there. With `None`,
    /// each span is one copy, or a store per cell through the fault plan
    /// when one is attached, so each cell can corrupt independently. With a
    /// selection, one store per set bit (through the fault plan, if any),
    /// and the unselected cells are not touched and keep their bytes. Tally,
    /// race checks and faults are those of element-wise
    /// [`GlobalBuffer::write`]s of the used cells alone. A packed
    /// read-blend-write of a whole window measured slower than the stores
    /// per set bit: the blend compiled to a branch per lane.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn write_window_from(
        &self,
        tally: &mut Tally,
        epoch: Epoch,
        (start, stride, rows, len): (usize, usize, usize, usize),
        sel: Option<Selection<'_>>,
        src: &[T],
        src_stride: usize,
        reversed: bool,
    ) {
        if rows == 0 || len == 0 {
            return;
        }
        self.check_family("write", start, stride, rows, len, src.len(), src_stride);
        if let Some(rc) = &self.race {
            Self::race_check(rc, epoch, true, (start, stride, rows, len), sel);
        }
        let n = rows as u64 * used(sel, len);
        tally.writes += n;
        tally.bytes_written += std::mem::size_of::<T>() as u64 * n;
        for r in 0..rows {
            let (s, d) = (
                start + r * stride,
                if reversed { rows - 1 - r } else { r } * src_stride,
            );
            let row = &src[d..d + len];
            match sel {
                None if self.faults.is_none() => self.store_span(s, row),
                None => {
                    for (k, &v) in row.iter().enumerate() {
                        self.commit(s + k, v)
                    }
                }
                Some(sel) => sel.each_cell(len, |k| self.commit(s + k, row[k])),
            }
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
    use std::ops::Range;

    fn ep(block: u32) -> Epoch {
        Epoch {
            launch: 1,
            phase: 0,
            block,
            exclusive: false,
        }
    }

    /// The pseudo-random bit pattern of cell or host slot `i`.
    fn val<T: Element>(i: usize) -> T {
        T::from_bits((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - T::BITS))
    }

    /// A buffer of `n` distinct cells, touch-tracked or not.
    fn cells<T: Element>(n: usize, touch: bool) -> GlobalBuffer<T> {
        let b = GlobalBuffer::from_vec((0..n).map(val).collect());
        if touch {
            b.with_touch_tracking()
        } else {
            b
        }
    }

    /// What a run of counted accesses leaves behind: the tally, the host
    /// values (as bits), the cells (as bits) and the touch stamps.
    type Trace = (Tally, Vec<u64>, Vec<u64>, Option<Vec<u32>>);

    fn trace<T: Element>(b: &GlobalBuffer<T>, t: Tally, host: &[T]) -> Trace {
        let bits = |v: &[T]| v.iter().map(|x| x.to_bits()).collect();
        let stamps = b.touch.as_ref();
        let stamps = stamps.map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect());
        (t, bits(host), bits(&b.snapshot()), stamps)
    }

    /// Every span shape the sweeps cover: lengths 0..=130 (below one chunk,
    /// exact multiples of it, up to `SHORT_SPAN` and past it, where the copy
    /// is a `memcpy`) at start offsets 0..8, touch tracking off and on.
    fn shapes() -> impl Iterator<Item = (usize, usize, bool)> {
        (0..=130).flat_map(|len| (0..8).flat_map(move |off| [(len, off, false), (len, off, true)]))
    }

    /// Launch 1 read every third cell of `span` and launch 2 every fifth,
    /// element by element, so a launch-2 span meets stale, current and
    /// never-set stamps side by side.
    fn mix_stamps<T: Element>(b: &GlobalBuffer<T>, t: &mut Tally, span: Range<usize>, excl: bool) {
        for (launch, step) in [(1, 3), (2, 5)] {
            for i in span.clone().step_by(step) {
                let _ = b.read(
                    t,
                    Epoch {
                        launch,
                        phase: 0,
                        block: 0,
                        exclusive: excl,
                    },
                    i,
                );
            }
        }
    }

    /// `read_span` twice (the second pass over the back half: all L2 hits)
    /// and `write_span`, against element-wise reads and writes, under a
    /// pooled and an exclusive epoch: values, tallies and stamps agree,
    /// and the host and cell sentinels on either side of every span keep
    /// their values.
    fn sweep_spans<T: Element>() {
        for (len, off, touch) in shapes() {
            let (start, back) = (8 + off, len / 2);
            let run = |spans: bool, exclusive: bool| {
                let b = cells::<T>(start + len + 8, touch);
                let ep = Epoch {
                    launch: 2,
                    phase: 0,
                    block: 0,
                    exclusive,
                };
                let mut t = Tally::default();
                mix_stamps(&b, &mut t, start..start + len, exclusive);
                // Host rows of `len` and `len - back` between sentinels.
                let mut host: Vec<T> = (0..2 * len - back + 3).map(|i| val(1 << 20 | i)).collect();
                let src: Vec<T> = (0..len).map(|k| val(1 << 21 | k)).collect();
                if spans {
                    b.read_span(&mut t, ep, start, &mut host[1..=len]);
                    b.read_span(
                        &mut t,
                        ep,
                        start + back,
                        &mut host[len + 2..2 * len - back + 2],
                    );
                    b.write_span(&mut t, ep, start, &src);
                } else {
                    for k in 0..len {
                        host[1 + k] = b.read(&mut t, ep, start + k);
                    }
                    for k in back..len {
                        host[len + 2 + k - back] = b.read(&mut t, ep, start + k);
                    }
                    for (k, &v) in src.iter().enumerate() {
                        b.write(&mut t, ep, start + k, v);
                    }
                }
                trace(&b, t, &host)
            };
            let oracle = run(false, false);
            for (spans, exclusive) in [(false, true), (true, false), (true, true)] {
                let what = if spans { "span" } else { "element" };
                assert_eq!(
                    run(spans, exclusive),
                    oracle,
                    "{what} ops diverged: {} len {len} at {start}, touch {touch}, exclusive {exclusive}",
                    std::any::type_name::<T>()
                );
            }
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
        sweep_spans::<f64>();
        sweep_spans::<u32>();
    }

    /// A strided family moved into rows `out_stride` apart, in reverse row
    /// order, and written back the same way, tallies and lands exactly like
    /// the element-wise loop it stands for — including a repeat read of
    /// the family (L2 hits) and a fault on one cell of the write. Swept over
    /// every shape, with no selection among the others, in
    /// [`sweep_windows`].
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
                let family = (start, stride, rows, len);
                for _ in 0..2 {
                    b.read_window_into(
                        &mut t,
                        ep(0),
                        family,
                        None,
                        &mut out[1..],
                        out_stride,
                        true,
                    );
                }
                out.iter_mut().for_each(|v| *v *= 10.0);
                b.write_window_from(&mut t, ep(0), family, None, &out[1..], out_stride, true);
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

    /// The selections the family sweep covers, as bit strings long enough
    /// for any span of [`shapes`] at a bit offset below 8: no selection
    /// (every cell used), then an empty, a full and an alternating one, and
    /// eight seeded random ones.
    fn selections() -> Vec<Option<Vec<u64>>> {
        let words = 3;
        let mut sels = vec![
            None,
            Some(vec![0; words]),
            Some(vec![!0; words]),
            Some(vec![0x5555_5555_5555_5555; words]),
        ];
        for seed in 1..=8u64 {
            let word = |w: u64| {
                (seed << 8 | w)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(29)
            };
            sels.push(Some((0..words as u64).map(word).collect()));
        }
        sels
    }

    /// Family reads and writes against the element-wise oracle over the
    /// used cells: three rows `len + 3` apart (sentinel cells between them),
    /// host rows `len + 2` apart from slot 1 (sentinel slots around them),
    /// in order and reversed, for every shape of [`shapes`] and every
    /// selection of [`selections`] (its bit offset the start offset), read
    /// twice and written back from other host rows, under a pooled and an
    /// exclusive epoch. The oracle reads and writes only the used cells and
    /// copies the unselected ones uncounted (`get`): so the tally, the
    /// stamps, the host rows and every cell — unselected cells and the
    /// sentinels around the family included — must come out the same.
    fn sweep_windows<T: Element>() {
        let sels = selections();
        for (len, off, touch) in shapes() {
            let (start, stride, rows, hs) = (8 + off, len + 3, 3, len + 2);
            let family = start..start + (rows - 1) * stride + len;
            for (bits, reversed) in sels.iter().flat_map(|b| [(b, false), (b, true)]) {
                let sel = bits.as_deref().map(|bits| Selection { bits, at: off });
                let on = |k: usize| {
                    bits.as_ref()
                        .is_none_or(|bits| (bits[(off + k) / 64] >> ((off + k) % 64)) & 1 != 0)
                };
                let host = |r: usize, k: usize| 1 + [r, rows - 1 - r][reversed as usize] * hs + k;
                let run = |window: bool, exclusive: bool| {
                    let b = cells::<T>(family.end + 8, touch);
                    let ep = Epoch {
                        launch: 2,
                        phase: 0,
                        block: 0,
                        exclusive,
                    };
                    let mut t = Tally::default();
                    mix_stamps(&b, &mut t, family.clone(), exclusive);
                    let n = rows * hs + 2;
                    let mut out: Vec<T> = (0..n).map(|i| val(1 << 20 | i)).collect();
                    let src: Vec<T> = (0..n).map(|i| val(1 << 21 | i)).collect();
                    let shape = (start, stride, rows, len);
                    if window {
                        for _ in 0..2 {
                            b.read_window_into(&mut t, ep, shape, sel, &mut out[1..], hs, reversed);
                        }
                        b.write_window_from(&mut t, ep, shape, sel, &src[1..], hs, reversed);
                    } else {
                        for _ in 0..2 {
                            for (r, k) in (0..rows).flat_map(|r| (0..len).map(move |k| (r, k))) {
                                let i = start + r * stride + k;
                                out[host(r, k)] = if on(k) {
                                    b.read(&mut t, ep, i)
                                } else {
                                    b.get(i)
                                };
                            }
                        }
                        for (r, k) in (0..rows).flat_map(|r| (0..len).map(move |k| (r, k))) {
                            if on(k) {
                                b.write(&mut t, ep, start + r * stride + k, src[host(r, k)]);
                            }
                        }
                    }
                    trace(&b, t, &out)
                };
                let oracle = run(false, false);
                assert_eq!(oracle.0.writes, rows as u64 * used(sel, len));
                for exclusive in [false, true] {
                    assert_eq!(
                        run(true, exclusive),
                        oracle,
                        "family ops diverged: {} {rows} rows of {len} at {start}, selection \
                         {:x?} at bit {off}, reversed {reversed}, touch {touch}, exclusive \
                         {exclusive}",
                        std::any::type_name::<T>(),
                        bits.as_ref().map(|b| b[0])
                    );
                }
            }
        }
    }

    /// A window's selection decides what is counted, stamped, written and
    /// corrupted: swept over every shape and selection ([`sweep_windows`]),
    /// and here by hand — a fault scripted on an unselected cell never
    /// fires, one on a selected cell does, and neither moves the tally.
    #[test]
    fn window_ops_match_element_ops_on_the_selected_cells() {
        use crate::fault::FaultPlan;
        // Cells 2..7, cells 2, 4 and 5 selected (bits 1, 3, 4).
        let bits = [0b1_1010u64];
        let sel = Selection { bits: &bits, at: 1 };
        assert_eq!(sel.count(5), 3);
        assert_eq!(sel.skip(2).count(3), 2);
        let mut plan = FaultPlan::new();
        plan.inject_bitflip(3, 63, 0); // unselected: never written
        plan.inject_bitflip(4, 63, 0);
        let plan = Arc::new(plan);
        let b: GlobalBuffer<f64> = GlobalBuffer::from_vec((0..10).map(|i| i as f64).collect())
            .with_touch_tracking()
            .with_fault_plan(plan.clone());
        let (mut t, mut out) = (Tally::default(), [0.0; 5]);
        b.read_window_into(&mut t, ep(0), (2, 0, 1, 5), Some(sel), &mut out, 5, false);
        assert_eq!(out, [2.0, 3.0, 4.0, 5.0, 6.0], "every cell is copied");
        out.iter_mut().for_each(|v| *v *= 10.0);
        b.write_window_from(&mut t, ep(0), (2, 0, 1, 5), Some(sel), &out, 5, false);
        assert_eq!(b.snapshot(), [0., 1., 20., 3., -40., 50., 6., 7., 8., 9.]);
        assert_eq!((t.reads, t.dram_bytes_read, t.writes), (3, 24, 3));
        assert_eq!(plan.mem_faults_fired(), 1);
        sweep_windows::<f64>();
        sweep_windows::<u32>();
    }

    /// A window read records every cell it copies, selected or not: a cell
    /// another block writes in the same phase is a race even when the
    /// window does not select it. A window write records only the cells it
    /// stores.
    #[test]
    #[should_panic(expected = "race: cell 3 read by block 0")]
    fn window_reads_race_check_unselected_cells() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(16).with_racecheck();
        let mut t = Tally::default();
        let (cell0, cell3, mut out) = ([0b1u64], [0b1000u64], [0.0; 4]);
        let sel = |bits| Some(Selection { bits, at: 0 });
        // Block 1's window over cells 0..4 writes cell 3 alone, so block
        // 0's window over the same cells, selecting cell 0, races on 3.
        b.write_window_from(
            &mut t,
            ep(1),
            (0, 0, 1, 4),
            sel(&cell3),
            &[1.0; 4],
            4,
            false,
        );
        b.read_window_into(&mut t, ep(0), (0, 0, 1, 4), sel(&cell0), &mut out, 4, false);
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

//! Deterministic fault injection for the software GPU substrate.
//!
//! A [`FaultPlan`] is a fixed script of hardware-style failures — corrupted
//! global-memory writes, aborted kernel launches, dead interconnect links —
//! shared (via `Arc`) between the host test driver and the substrate hooks
//! in `memory.rs`, `exec.rs`, and `interconnect.rs`.
//!
//! Determinism is the design constraint: the recovery machinery built on
//! top of these faults must replay a rolled-back trajectory bitwise, so a
//! fault may not depend on thread scheduling. Each trigger therefore counts
//! events that are *sequentially ordered by construction*:
//!
//! * a memory fault fires on the k-th **write to its target cell index** —
//!   within a launch exactly one thread writes a given cell (the race
//!   checker enforces this), and launches are sequential, so the per-cell
//!   write sequence is deterministic even under pooled execution;
//! * a launch abort fires on the k-th **launch** — launches are issued from
//!   the host thread in program order;
//! * a link fault fails `n` **transfers in one direction**, after letting a
//!   given number through — transfers are issued from the host thread in
//!   program order.
//!
//! All hooks are *accounting-neutral*: a corrupted write is tallied exactly
//! like a clean one (the bytes did move — they just carried the wrong
//! pattern), an aborted launch reports a zero tally (nothing moved), and a
//! failed transfer records no link bytes (nothing arrived).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What a memory fault writes over the victim value.
#[derive(Clone, Copy, Debug)]
pub enum MemFaultKind {
    /// Replace the value with a quiet NaN (all-ones for non-8-byte cells).
    Nan,
    /// Flip one bit of the stored value (modulo the cell width).
    BitFlip(u32),
    /// Panic mid-store — the deterministic stand-in for a crashed kernel.
    /// Fires deep inside the launch (spans open, buffers mid-update), the
    /// exact shape the scheduler's `catch_unwind` isolation must survive.
    Panic,
}

struct MemFault {
    index: usize,
    kind: MemFaultKind,
    /// Writes to `index` still to be let through before firing.
    skips: AtomicU64,
    fired: AtomicBool,
}

struct AbortFault {
    /// Launches still to be let through before firing.
    skips: AtomicU64,
    fired: AtomicBool,
}

struct LinkFault {
    from: usize,
    to: usize,
    /// Transfers in this direction still to be let through before failing.
    skips: AtomicU64,
    /// Transfers left to fail; `u64::MAX` means the link is down for good.
    remaining: AtomicU64,
}

const PERMANENT: u64 = u64::MAX;

/// A deterministic script of injected faults. Build it mutably, wrap it in
/// an `Arc`, and attach it to buffers / devices / interconnects; the
/// substrate consults it through the immutable hook methods.
#[derive(Default)]
pub struct FaultPlan {
    mem: Vec<MemFault>,
    aborts: Vec<AbortFault>,
    links: Vec<LinkFault>,
    mem_fired: AtomicU64,
    aborts_fired: AtomicU64,
    link_fired: AtomicU64,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Corrupt the value of the `(skip_writes + 1)`-th write to cell
    /// `index` (of every buffer the plan is attached to) into a NaN.
    pub fn inject_nan(&mut self, index: usize, skip_writes: u64) -> &mut Self {
        self.mem.push(MemFault {
            index,
            kind: MemFaultKind::Nan,
            skips: AtomicU64::new(skip_writes),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Flip bit `bit` of the `(skip_writes + 1)`-th write to cell `index`.
    pub fn inject_bitflip(&mut self, index: usize, bit: u32, skip_writes: u64) -> &mut Self {
        self.mem.push(MemFault {
            index,
            kind: MemFaultKind::BitFlip(bit),
            skips: AtomicU64::new(skip_writes),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Panic on the `(skip_writes + 1)`-th write to cell `index` — a
    /// deterministic in-kernel crash for exercising panic-isolation
    /// boundaries (the serve scheduler's `catch_unwind`).
    pub fn inject_panic(&mut self, index: usize, skip_writes: u64) -> &mut Self {
        self.mem.push(MemFault {
            index,
            kind: MemFaultKind::Panic,
            skips: AtomicU64::new(skip_writes),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Abort the `(skip_launches + 1)`-th kernel launch on any device the
    /// plan is attached to (the launch returns a zero tally — the kernel
    /// never ran).
    pub fn abort_launch(&mut self, skip_launches: u64) -> &mut Self {
        self.aborts.push(AbortFault {
            skips: AtomicU64::new(skip_launches),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Fail the next `times` transfers in the `from → to` direction
    /// (transient: the link comes back afterwards).
    pub fn fail_link(&mut self, from: usize, to: usize, times: u64) -> &mut Self {
        self.fail_link_after(from, to, 0, times)
    }

    /// Let `skip_transfers` transfers in the `from → to` direction through,
    /// then fail the next `times` (transient) — the link twin of
    /// `inject_nan`'s `skip_writes`, for faults that must land on a later
    /// exchange of a step than the link's first.
    pub fn fail_link_after(
        &mut self,
        from: usize,
        to: usize,
        skip_transfers: u64,
        times: u64,
    ) -> &mut Self {
        assert!(times != PERMANENT, "use fail_link_permanently");
        self.links.push(LinkFault {
            from,
            to,
            skips: AtomicU64::new(skip_transfers),
            remaining: AtomicU64::new(times),
        });
        self
    }

    /// Take the `from → to` direction down for the rest of the run.
    pub fn fail_link_permanently(&mut self, from: usize, to: usize) -> &mut Self {
        self.links.push(LinkFault {
            from,
            to,
            skips: AtomicU64::new(0),
            remaining: AtomicU64::new(PERMANENT),
        });
        self
    }

    /// Hook for counted global-memory writes: possibly corrupt `value`
    /// in place before it is stored to cell `index`. Accounting-neutral —
    /// the caller tallies the write either way.
    pub fn corrupt<T: Copy>(&self, index: usize, value: &mut T) {
        for f in &self.mem {
            if f.index != index || f.fired.load(Ordering::Relaxed) {
                continue;
            }
            // Writes to one cell are sequentially ordered (one writer per
            // cell per launch, launches sequential), so the skip counter
            // sees an exact, deterministic write sequence.
            let skipped = f
                .skips
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
                .is_ok();
            if skipped {
                continue;
            }
            f.fired.store(true, Ordering::Relaxed);
            self.mem_fired.fetch_add(1, Ordering::Relaxed);
            apply(f.kind, value);
        }
    }

    /// Hook for kernel launches: `true` means this launch must be aborted.
    /// Each pending abort's skip counter is advanced once per launch.
    pub fn should_abort(&self) -> bool {
        let mut abort = false;
        for f in &self.aborts {
            if f.fired.load(Ordering::Relaxed) {
                continue;
            }
            let skipped = f
                .skips
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
                .is_ok();
            if skipped {
                continue;
            }
            f.fired.store(true, Ordering::Relaxed);
            self.aborts_fired.fetch_add(1, Ordering::Relaxed);
            abort = true;
        }
        abort
    }

    /// Hook for interconnect transfers: `Some(permanent)` means the
    /// `from → to` transfer must fail, with `permanent` telling the caller
    /// whether a retry can ever succeed.
    pub fn link_should_fail(&self, from: usize, to: usize) -> Option<bool> {
        let mut verdict = None;
        for f in &self.links {
            if f.from != from || f.to != to {
                continue;
            }
            let skipped = f
                .skips
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
                .is_ok();
            if skipped {
                continue;
            }
            if f.remaining.load(Ordering::Relaxed) == PERMANENT {
                self.link_fired.fetch_add(1, Ordering::Relaxed);
                return Some(true);
            }
            let pending = f
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok();
            if pending {
                self.link_fired.fetch_add(1, Ordering::Relaxed);
                verdict = Some(false);
            }
        }
        verdict
    }

    /// Memory faults that have fired so far.
    pub fn mem_faults_fired(&self) -> u64 {
        self.mem_fired.load(Ordering::Relaxed)
    }

    /// Launch aborts that have fired so far.
    pub fn aborts_fired(&self) -> u64 {
        self.aborts_fired.load(Ordering::Relaxed)
    }

    /// Link transfer failures inflicted so far (each failed attempt counts).
    pub fn link_faults_fired(&self) -> u64 {
        self.link_fired.load(Ordering::Relaxed)
    }

    /// Total faults inflicted so far, of every kind.
    pub fn total_fired(&self) -> u64 {
        self.mem_faults_fired() + self.aborts_fired() + self.link_faults_fired()
    }
}

/// Overwrite `value`'s bytes according to `kind`. Width-generic so the
/// same plan can corrupt `f64` lattices and `u32` link tables.
fn apply<T: Copy>(kind: MemFaultKind, value: &mut T) {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return;
    }
    // Sound for the plain-old-data cell types the substrate stores: we only
    // ever reinterpret the value's own bytes in place.
    let bytes = unsafe { std::slice::from_raw_parts_mut(value as *mut T as *mut u8, size) };
    match kind {
        MemFaultKind::Nan => {
            if size == 8 {
                bytes.copy_from_slice(&f64::NAN.to_le_bytes());
            } else {
                bytes.fill(0xFF);
            }
        }
        MemFaultKind::BitFlip(bit) => {
            let bit = bit as usize % (8 * size);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        MemFaultKind::Panic => panic!("injected kernel panic"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_fires_on_the_kth_write_only() {
        let mut plan = FaultPlan::new();
        plan.inject_nan(3, 2); // skip two writes, corrupt the third
        for round in 0..4 {
            let mut v = 1.5f64;
            plan.corrupt(3, &mut v);
            if round == 2 {
                assert!(v.is_nan(), "third write must be corrupted");
            } else {
                assert_eq!(v, 1.5, "write {round} must pass through");
            }
            // Writes to other cells never advance the counter.
            let mut w = 2.5f64;
            plan.corrupt(4, &mut w);
            assert_eq!(w, 2.5);
        }
        assert_eq!(plan.mem_faults_fired(), 1);
    }

    #[test]
    fn bitflip_is_width_aware() {
        let mut plan = FaultPlan::new();
        plan.inject_bitflip(0, 0, 0);
        let mut v = 0u32;
        plan.corrupt(0, &mut v);
        assert_eq!(v, 1);

        let mut plan = FaultPlan::new();
        plan.inject_bitflip(0, 63, 0); // sign bit of an f64
        let mut x = 1.0f64;
        plan.corrupt(0, &mut x);
        assert_eq!(x, -1.0);

        // Bit index wraps modulo the cell width.
        let mut plan = FaultPlan::new();
        plan.inject_bitflip(0, 32, 0);
        let mut y = 0u32;
        plan.corrupt(0, &mut y);
        assert_eq!(y, 1);
    }

    #[test]
    fn injected_panic_fires_on_the_kth_write_only() {
        let mut plan = FaultPlan::new();
        plan.inject_panic(1, 1);
        let mut v = 0.5f64;
        plan.corrupt(1, &mut v); // skipped write passes through
        assert_eq!(v, 0.5);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut v = 0.5f64;
            plan.corrupt(1, &mut v);
        }));
        assert!(r.is_err(), "second write must panic");
        assert_eq!(plan.mem_faults_fired(), 1);
        // One-shot: later writes pass through again.
        let mut v = 2.5f64;
        plan.corrupt(1, &mut v);
        assert_eq!(v, 2.5);
    }

    #[test]
    fn abort_counts_launches() {
        let mut plan = FaultPlan::new();
        plan.abort_launch(1);
        assert!(!plan.should_abort());
        assert!(plan.should_abort());
        assert!(!plan.should_abort(), "abort is one-shot");
        assert_eq!(plan.aborts_fired(), 1);
    }

    #[test]
    fn transient_link_fault_exhausts() {
        let mut plan = FaultPlan::new();
        plan.fail_link(0, 1, 2);
        assert_eq!(plan.link_should_fail(1, 0), None, "direction matters");
        assert_eq!(plan.link_should_fail(0, 1), Some(false));
        assert_eq!(plan.link_should_fail(0, 1), Some(false));
        assert_eq!(plan.link_should_fail(0, 1), None, "fault exhausted");
        assert_eq!(plan.link_faults_fired(), 2);
    }

    #[test]
    fn link_fault_after_a_skip_spares_the_first_transfers() {
        let mut plan = FaultPlan::new();
        plan.fail_link_after(0, 1, 2, 1);
        assert_eq!(plan.link_should_fail(0, 1), None);
        assert_eq!(plan.link_should_fail(1, 0), None, "direction matters");
        assert_eq!(plan.link_should_fail(0, 1), None);
        assert_eq!(plan.link_should_fail(0, 1), Some(false));
        assert_eq!(plan.link_should_fail(0, 1), None, "fault exhausted");
        assert_eq!(plan.link_faults_fired(), 1);
    }

    #[test]
    fn permanent_link_fault_never_recovers() {
        let mut plan = FaultPlan::new();
        plan.fail_link_permanently(2, 3);
        for _ in 0..5 {
            assert_eq!(plan.link_should_fail(2, 3), Some(true));
        }
        assert_eq!(plan.link_should_fail(3, 2), None);
    }
}

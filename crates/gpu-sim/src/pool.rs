//! Persistent worker pool backing the software GPU's block scheduler.
//!
//! The seed executor spawned fresh OS threads for every lockstep phase via
//! `std::thread::scope` and carved the block range into static chunks. That
//! costs O(phases × workers) thread spawns per timestep and load-imbalances
//! ragged grids (`blocks % workers != 0` gave the last worker a zero- or
//! double-width chunk). This pool replaces both mechanisms:
//!
//! - **Long-lived threads**: spawned once per [`WorkerPool`], woken through a
//!   condvar guarded by a monotonically increasing job epoch, parked again
//!   when the block range is drained.
//! - **Dynamic load balancing**: a shared `AtomicUsize` next-block cursor.
//!   Every participant — the pool threads *and* the submitting thread —
//!   claims blocks with `fetch_add(1)` until the cursor passes `blocks`, so
//!   no block assignment is decided up front and stragglers are absorbed.
//! - **Ticketed wakeup**: a job with fewer blocks than pool threads invites
//!   only `blocks − 1` helpers (the submitter is the remaining participant).
//!   Invitations are tickets claimed under the state lock; a worker that
//!   wakes without finding a ticket skips the job and parks again, and the
//!   submitter revokes unclaimed tickets once the cursor drains, so a
//!   2-block phase never pays for waking the whole pool.
//!
//! Each block index is handed to exactly one participant, which preserves
//! the substrate's accounting contract: per-block tallies stay private to
//! whichever thread runs the block and are merged in block order afterwards.
//!
//! A panic inside a block (kernel assert, race-checker trip) is caught on
//! the worker, stashed, and re-raised on the submitting thread after every
//! participant has quiesced — the same observable behavior as the scoped
//! spawns it replaces, and required so `#[should_panic]` race-checker tests
//! keep passing under pooled execution.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job currently published to the pool: a block task and the exclusive
/// upper bound of the block range. The task reference's lifetime is erased
/// to `'static` for storage; [`WorkerPool::run`] does not return until every
/// participant has finished with it, so it never dangles.
#[derive(Clone, Copy)]
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    blocks: usize,
}

struct State {
    /// Incremented once per published job; workers wake when it advances
    /// past the last value they served.
    epoch: u64,
    job: Option<Job>,
    /// Unclaimed helper invitations for the current job. A waking worker
    /// joins the steal loop only if it can claim one; the submitter revokes
    /// the leftovers before waiting, so no worker can join late and find a
    /// dangling task.
    tickets: usize,
    /// Pool threads currently inside the current job's steal loop.
    active: usize,
    shutdown: bool,
    /// First panic payload caught by a pool thread during the current job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes pool threads when a job is published (or shutdown is set).
    work_cv: Condvar,
    /// Wakes the submitter when the last active pool thread drains out.
    done_cv: Condvar,
    /// Next unclaimed block index of the current job.
    cursor: AtomicUsize,
    /// Blocks executed by pool threads (not the submitter) this job.
    stolen: AtomicU64,
}

/// A persistent pool of `workers` OS threads executing block ranges.
///
/// `run(blocks, task)` publishes the job, participates in the steal loop
/// itself, and blocks until all `blocks` indices have been executed. Only
/// one *pooled* job can be in flight at a time; concurrent submitters
/// serialize on an internal mutex. Jobs that invite no helpers — every job
/// on a zero-worker pool, and any single-block job — run inline on the
/// submitting thread without touching the mutex, so an inert pool is safe
/// (and contention-free) under arbitrarily many concurrent submitters.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes submitters: the epoch/cursor protocol supports one job at
    /// a time.
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    /// Observability hub for the busy/idle worker gauges. Read only on the
    /// pooled path (which already serializes on `submit`); the inline path
    /// stays lock-free.
    obs: Mutex<Option<Arc<obs::Obs>>>,
}

impl WorkerPool {
    /// Spawn `workers` pool threads. With `workers == 0` the pool is inert
    /// and `run` executes every block inline on the submitting thread.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                tickets: 0,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            stolen: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gpu-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            handles,
            obs: Mutex::new(None),
        }
    }

    /// Number of pool threads (excluding the submitting thread).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Attach an observability hub. Publishes a `pool_workers` gauge (total
    /// pool threads) immediately, and from then on every pooled job updates
    /// a `pool_workers_busy` gauge: set to the number of invited helpers
    /// while the job's steal loop is live, back to 0 once the pool drains.
    /// Inline (zero-helper) jobs never touch the gauges — that path is
    /// lock-free by contract.
    pub fn set_obs(&self, obs: Arc<obs::Obs>) {
        obs.metrics
            .gauge_set("pool_workers", &[], self.handles.len() as f64);
        obs.metrics.gauge_set("pool_workers_busy", &[], 0.0);
        *self.obs.lock().unwrap() = Some(obs);
    }

    /// Execute `task(b)` for every `b in 0..blocks`, each exactly once,
    /// distributing blocks dynamically over the pool threads and the
    /// calling thread. At most `blocks − 1` pool threads are woken (the
    /// submitter is the remaining participant). Returns the number of
    /// blocks executed by pool threads (the "stolen" count surfaced as an
    /// `exec_block_steal` metric). Panics raised inside `task` — on any
    /// participant — are re-raised here after the whole pool has quiesced.
    pub fn run(&self, blocks: usize, task: &(dyn Fn(usize) + Sync)) -> u64 {
        if blocks == 0 {
            return 0;
        }
        let helpers = self.handles.len().min(blocks - 1);
        if helpers == 0 {
            // Inline mode: no submit lock, no shared state. An inert pool
            // (`workers == 0`) therefore supports any number of concurrent
            // submitters — each runs its own blocks on its own thread, with
            // no cross-submitter serialization (the fleet scheduler relies
            // on this to run many single-threaded sims side by side over
            // one shared device pool).
            for b in 0..blocks {
                task(b);
            }
            return 0;
        }
        let _guard = self.submit.lock().unwrap();
        let obs = self.obs.lock().unwrap().clone();
        if let Some(o) = &obs {
            o.metrics
                .gauge_set("pool_workers_busy", &[], helpers as f64);
        }
        // SAFETY: erasing the task's lifetime for publication is sound
        // because this function waits for `active == 0` with the leftover
        // tickets revoked (no pool thread holds, or can still acquire, the
        // job) before returning on every path, including panics.
        let task_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        {
            let mut st = self.shared.state.lock().unwrap();
            self.shared.cursor.store(0, Ordering::Relaxed);
            self.shared.stolen.store(0, Ordering::Relaxed);
            st.job = Some(Job {
                task: task_static,
                blocks,
            });
            st.epoch += 1;
            st.tickets = helpers;
            if helpers == self.handles.len() {
                self.shared.work_cv.notify_all();
            } else {
                for _ in 0..helpers {
                    self.shared.work_cv.notify_one();
                }
            }
        }
        // The submitter steals blocks too. Panics must be caught here as
        // well: unwinding out while pool threads still hold the erased task
        // reference would dangle it.
        let mut local_panic: Option<Box<dyn Any + Send>> = None;
        loop {
            let b = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                break;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(b))) {
                local_panic = Some(p);
                // Drain the cursor so pool threads stop claiming blocks.
                self.shared.cursor.store(blocks, Ordering::Relaxed);
                break;
            }
        }
        let stolen;
        {
            let mut st = self.shared.state.lock().unwrap();
            // Revoke unclaimed invitations: a lost notification (no worker
            // was parked to receive it) or a worker that wakes after this
            // point must not join — the cursor is drained and the job is
            // about to be retired.
            st.tickets = 0;
            while st.active > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            if local_panic.is_none() {
                local_panic = st.panic.take();
            } else {
                st.panic = None;
            }
            stolen = self.shared.stolen.load(Ordering::Relaxed);
        }
        if let Some(o) = &obs {
            o.metrics.gauge_set("pool_workers_busy", &[], 0.0);
        }
        drop(_guard);
        if let Some(p) = local_panic {
            resume_unwind(p);
        }
        stolen
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    // Skip to the newest epoch whether or not we join it: a
                    // worker that slept through intermediate jobs must not
                    // treat the next epoch bump as several pending jobs.
                    seen = st.epoch;
                    if st.tickets > 0 {
                        st.tickets -= 1;
                        st.active += 1;
                        break st.job.expect("ticket available without a published job");
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        loop {
            let b = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= job.blocks {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| (job.task)(b))) {
                Ok(()) => {
                    shared.stolen.fetch_add(1, Ordering::Relaxed);
                }
                Err(p) => {
                    // Stop the whole job: park the payload for the
                    // submitter and drain the cursor.
                    shared.cursor.store(job.blocks, Ordering::Relaxed);
                    let mut st = shared.state.lock().unwrap();
                    if st.panic.is_none() {
                        st.panic = Some(p);
                    }
                    break;
                }
            }
        }
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every block runs exactly once, across reused submissions.
    #[test]
    fn each_block_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        for blocks in [1usize, 2, 3, 4, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(blocks, &|b| {
                hits[b].fetch_add(1, Ordering::Relaxed);
            });
            for (b, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "block {b} of {blocks}");
            }
        }
    }

    /// With enough non-trivial blocks, pool threads actually participate
    /// (steal > 0), and the count never exceeds the block total. Retried a
    /// few times: with very cheap blocks the submitter can legitimately
    /// drain the whole cursor before the workers wake.
    #[test]
    fn pool_threads_steal_work() {
        let pool = WorkerPool::new(4);
        for attempt in 0..20 {
            let stolen = pool.run(10_000, &|b| {
                let mut acc = b as f64;
                for _ in 0..200 {
                    acc = std::hint::black_box(acc * 1.0000001 + 1.0);
                }
                std::hint::black_box(acc);
            });
            assert!(stolen <= 10_000);
            if stolen > 0 {
                return;
            }
            eprintln!("attempt {attempt}: submitter won the whole grid, retrying");
        }
        panic!("pool threads never claimed a block in 20 attempts");
    }

    /// All participants make progress on a ragged grid: with blocks that
    /// block until every worker has arrived, completion proves that the
    /// pool threads and submitter are all live simultaneously.
    #[test]
    fn all_workers_progress_on_ragged_grid() {
        let workers = 3; // 4 participants incl. submitter
        let pool = WorkerPool::new(workers);
        let participants = workers + 1;
        // blocks chosen so blocks % participants != 0 (the seed executor's
        // static chunking gave degenerate chunks here).
        let blocks = participants + 1;
        let arrived = AtomicUsize::new(0);
        pool.run(blocks, &|_b| {
            arrived.fetch_add(1, Ordering::Relaxed);
            // The first `participants` blocks each wait until the whole
            // pool has claimed one — only possible if every participant
            // takes a block (dynamic cursor, no zero-width chunks).
            while arrived.load(Ordering::Relaxed) < participants {
                std::hint::spin_loop();
            }
        });
        assert_eq!(arrived.load(Ordering::Relaxed), blocks);
    }

    /// A job with fewer blocks than workers completes even though only a
    /// subset of the pool is invited, and single-block jobs never involve
    /// the pool at all. Exercises the ticket protocol's lost-notification
    /// path under rapid back-to-back submissions.
    #[test]
    fn small_jobs_complete_with_partial_wakeups() {
        let pool = WorkerPool::new(8);
        for round in 0..200 {
            let blocks = 1 + round % 4; // 1..=4 blocks vs 8 workers
            let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
            let stolen = pool.run(blocks, &|b| {
                hits[b].fetch_add(1, Ordering::Relaxed);
            });
            assert!(stolen <= blocks as u64);
            for (b, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "block {b} round {round}");
            }
        }
    }

    /// A panic on a pool thread propagates to the submitter.
    #[test]
    #[should_panic(expected = "boom in block")]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(2);
        pool.run(64, &|b| {
            if b == 13 {
                panic!("boom in block {b}");
            }
        });
    }

    /// The pool survives a panicked job and runs subsequent jobs cleanly.
    #[test]
    fn pool_is_reusable_after_panic() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|b| {
                if b == 0 {
                    panic!("first job fails");
                }
            })
        }));
        assert!(r.is_err());
        let hits = AtomicUsize::new(0);
        pool.run(16, &|_b| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    /// An inert pool (0 workers) runs everything inline.
    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        let stolen = pool.run(5, &|_b| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(stolen, 0);
    }

    /// An inert pool under many concurrent submitters: each submission's
    /// blocks run exactly once on its own thread, nothing is stolen, and
    /// the submitters genuinely overlap (no hidden serialization) — proven
    /// by a rendezvous block that waits until every submitter has arrived.
    #[test]
    fn zero_worker_pool_supports_concurrent_submitters() {
        let pool = WorkerPool::new(0);
        let submitters = 6;
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..submitters)
                .map(|_| {
                    s.spawn(|| {
                        let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
                        let stolen = pool.run(16, &|b| {
                            if b == 0 {
                                // All submitters must be inside `run` at
                                // once — impossible if inline mode took the
                                // submit lock.
                                arrived.fetch_add(1, Ordering::Relaxed);
                                while arrived.load(Ordering::Relaxed) < submitters {
                                    std::hint::spin_loop();
                                }
                            }
                            hits[b].fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(stolen, 0, "inert pool must not steal");
                        for (b, h) in hits.iter().enumerate() {
                            assert_eq!(h.load(Ordering::Relaxed), 1, "block {b}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(arrived.load(Ordering::Relaxed), submitters);
    }

    /// The busy-worker gauge tracks pooled jobs: total worker count is
    /// published at attach, the busy gauge returns to 0 after every drain,
    /// and inline jobs leave it untouched.
    #[test]
    fn busy_gauge_tracks_pooled_jobs() {
        let pool = WorkerPool::new(3);
        let obs = obs::Obs::shared();
        pool.set_obs(obs.clone());
        assert_eq!(obs.metrics.gauge("pool_workers", &[]), Some(3.0));
        assert_eq!(obs.metrics.gauge("pool_workers_busy", &[]), Some(0.0));

        // Pooled job: observe the gauge from inside a block while the job
        // is live (it is set before any block runs).
        let seen = std::sync::Mutex::new(None);
        pool.run(64, &|_b| {
            let mut s = seen.lock().unwrap();
            if s.is_none() {
                *s = obs.metrics.gauge("pool_workers_busy", &[]);
            }
        });
        assert_eq!(*seen.lock().unwrap(), Some(3.0));
        assert_eq!(obs.metrics.gauge("pool_workers_busy", &[]), Some(0.0));

        // Single-block job: inline path, gauge untouched (still 0).
        pool.run(1, &|_b| {});
        assert_eq!(obs.metrics.gauge("pool_workers_busy", &[]), Some(0.0));
    }
}

//! The fleet scheduler: executor threads multiplexing many simulations
//! over a shared device pool.
//!
//! # Batched lockstep dispatch
//!
//! Each executor pulls a *group* of up to `batch_max` compatible jobs
//! (same scheduling class) from the ready queue and drives them in
//! time-sliced round-robin: `slice_steps` timesteps of job A, then B, then
//! C, then back to A, until each member finishes or leaves the group
//! (canceled, failed, evicted or handed to an idle executor). Because every
//! solver in the workspace is bitwise-deterministic and slicing only
//! changes *when* steps run — never their arithmetic — a job's final field
//! checksum is identical to a solo run of the same spec, no matter how it
//! was grouped, sliced, handed off or preempted.
//!
//! # Checkpoint-backed preemption
//!
//! When an interactive-priority job is waiting and no executor is idle, an
//! executor running an evictable batch group checkpoints its unfinished
//! members (LBCK codec), drops the solvers, and requeues the jobs with
//! their snapshot attached; the interactive work runs next. On
//! re-dispatch the spec is rebuilt and the snapshot restored — an exact
//! continuation, not an approximation.
//!
//! # Work conservation
//!
//! No executor stays parked while the ready queue is empty and another
//! executor's group holds two or more unfinished members. The rule acts at
//! every slice boundary, under the state lock the executor already takes
//! there to check for cancellation: if an executor is idle, the queue is
//! empty, the one-slot hand-off in the state is free and the group has at
//! least two members, the member due to run next moves to the slot and
//! `work_cv` wakes one parked executor. That executor takes the slot before
//! it would park again (and before it honours shutdown, so a member in the
//! slot is never dropped) and runs the member as a new one-member group
//! under a fresh group id. The member keeps its built solver, its steps and
//! its slice count: nothing is rebuilt, checkpointed or requeued, and its
//! checksum is the solo one because the hand-off, like slicing, only moves
//! *when* steps run. A cancel that lands on a member in the slot or just
//! adopted takes effect at its next slice boundary, as for any running job.
//!
//! Eviction keeps its `idle > 0` guard: it frees a device for waiting
//! interactive work only when no executor is idle, and the hand-off acts
//! only when one is idle and nothing waits, so the two never compete for
//! the same boundary.
//!
//! # Priority, aging, and the starvation bound
//!
//! Interactive jobs start at `interactive_base` effective priority, batch
//! jobs at 0. Every dispatch round that passes a queued job over adds
//! `aging` credit. Two consequences:
//!
//! * the queue drains highest-effective-priority first, so batch work
//!   climbs toward the front after at most `interactive_base / aging`
//!   passed-over rounds;
//! * a group is evictable only while every member's effective priority is
//!   *below* `interactive_base` — once a batch job has aged to the
//!   interactive level it can no longer be preempted, which bounds both
//!   its waiting time and the number of evictions any job can suffer.
//!
//! # Quotas
//!
//! Admission is checked synchronously against per-tenant limits
//! ([`crate::quota`]) — in-flight jobs and resident lattice nodes — and
//! released when a job reaches a terminal state.

use crate::job::{JobId, JobResult, JobState, JobStatus, SubmitError};
use crate::quota::{QuotaLedger, TenantQuota, TenantUsage};
use crate::slo::{SloController, SloPolicy};
use crate::spec::{JobSpec, Priority};
use lbm_core::Simulation;
use lbm_multi::recovery::{run_with_recovery, RecoveryConfig};
use obs::{EventKind, Obs};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Latency histogram bucket upper bounds, in **milliseconds** — the unit
/// `finalize` computes (`Instant::elapsed` seconds × 1e3) and the
/// `serve_job_latency_ms` metric name advertises. The bounds must be
/// finite, positive, and strictly ascending; the observation site in
/// `finalize` debug-asserts both properties so a unit mix-up (seconds or
/// microseconds fed into a millisecond histogram) fails loudly in tests
/// instead of silently piling everything into one bucket.
pub const LATENCY_BOUNDS_MS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

/// Scheduler configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Executor threads (each drives one lockstep group at a time).
    pub executors: usize,
    /// Max jobs per lockstep group.
    pub batch_max: usize,
    /// Timesteps per round-robin slice.
    pub slice_steps: u64,
    /// Effective priority an interactive job starts with (batch starts
    /// at 0). Also the eviction-immunity threshold.
    pub interactive_base: u64,
    /// Priority credit per passed-over dispatch round.
    pub aging: u64,
    /// CPU threads each solver may use. The default of 1 keeps every sim
    /// inline on its executor thread (the substrate's zero-worker pool
    /// mode), so `executors` is the true parallelism. It is also what
    /// keeps a traced job's driver, halo and kernel spans on the executor
    /// thread, nested under the `serve` span that names the job: with more
    /// than one thread, a job initializes and steps on its devices' pools
    /// (a multi-device job on a team of helper threads), and the kernel
    /// spans a helper opens sit on no job span's stack.
    pub cpu_threads_per_job: usize,
    /// Per-tenant admission limits (absent tenants are unlimited).
    pub quotas: HashMap<String, TenantQuota>,
    /// Observability hub: scheduler decisions become spans and typed
    /// events, queue/running state becomes gauges, outcomes become
    /// counters and latency histograms. The hub is attached to every
    /// solver the fleet builds, so its driver, halo and kernel spans nest
    /// under the `serve` span of the slice that ran them — the one span
    /// that carries the job's `job`/`tenant`/`group`/`slice` args. Purely
    /// observational: field checksums are bitwise-identical with or
    /// without a hub.
    pub obs: Option<Arc<Obs>>,
    /// SLO feedback policy: when set, every completion latency feeds a
    /// [`SloController`] that retunes the live `slice_steps`/`batch_max`
    /// within the policy's bounds.
    pub slo: Option<SloPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            executors: 2,
            batch_max: 4,
            slice_steps: 8,
            interactive_base: 8,
            aging: 1,
            cpu_threads_per_job: 1,
            quotas: HashMap::new(),
            obs: None,
            slo: None,
        }
    }
}

struct JobRec {
    spec: JobSpec,
    state: JobState,
    eff_prio: u64,
    steps_done: u64,
    /// LBCK snapshot carried while evicted (freed on resume).
    snapshot: Option<Vec<u8>>,
    evictions: u64,
    rollbacks: u64,
    cancel: bool,
    submitted_at: Instant,
    result: Option<JobResult>,
    /// Resident bytes currently charged to the tenant's quota for this
    /// job: the spec estimate at admission, trued up to the driver's
    /// actual allocation once the solver is built.
    charged_bytes: usize,
    /// Slices the job ran before its last eviction: a resumed member
    /// counts on from here.
    slices: u64,
}

struct State {
    /// Ready queue (FIFO among equal effective priorities): job IDs in
    /// `Queued` or `Evicted` state.
    queue: Vec<JobId>,
    jobs: HashMap<JobId, JobRec>,
    ledger: QuotaLedger,
    /// Executors parked on `work_cv`.
    idle: usize,
    /// One-slot hand-off: a built member a busy group gave up at a slice
    /// boundary, with the fresh group id it will run under. The fleet
    /// still owns it: an executor empties the slot before it parks or
    /// exits.
    handoff: Option<(u64, Active)>,
    /// Jobs not yet in a terminal state.
    in_flight: usize,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes executors when work arrives (or shutdown).
    work_cv: Condvar,
    /// Wakes `wait`/`drain` when any job reaches a terminal state.
    done_cv: Condvar,
    cfg: ServeConfig,
    /// Live round-robin slice length: starts at `cfg.slice_steps`, moved
    /// only by SLO controller decisions (bounds-clamped).
    slice_steps: AtomicU64,
    /// Live group width: starts at `cfg.batch_max`, moved likewise.
    batch_max: AtomicUsize,
    /// The feedback controller, when `cfg.slo` is set. Locked only from
    /// `finalize` (under the state lock) and the summary accessor.
    slo: Option<Mutex<SloController>>,
    /// Monotonic lockstep-group IDs (the `group` arg of a job's spans).
    group_seq: AtomicU64,
}

impl Inner {
    fn obs(&self) -> Option<&Arc<Obs>> {
        self.cfg.obs.as_ref()
    }

    /// Append one typed event to the hub's scheduler event log (no-op
    /// without a hub).
    fn record_event(
        &self,
        kind: EventKind,
        job: Option<JobId>,
        tenant: &str,
        args: &[(&str, String)],
    ) {
        if let Some(o) = self.obs() {
            o.events.record(kind, job.map(|j| j.0), tenant, args);
        }
    }

    fn set_queue_gauges(&self, st: &State) {
        if let Some(o) = self.obs() {
            o.metrics
                .gauge_set("serve_queue_depth", &[], st.queue.len() as f64);
            o.metrics
                .gauge_set("serve_in_flight", &[], st.in_flight as f64);
            o.metrics
                .gauge_set("serve_idle_executors", &[], st.idle as f64);
        }
    }
}

/// One member of a running lockstep group.
struct Active {
    id: JobId,
    sim: Box<dyn Simulation + Send>,
    target: u64,
    done: u64,
    resilient: bool,
    fault_plan: Option<Arc<gpu_sim::FaultPlan>>,
    tenant: String,
    /// Slices run so far, across evictions: the 1-based index of the
    /// latest one.
    slices: u64,
}

/// The multi-tenant simulation service. Submit [`JobSpec`]s, poll
/// [`JobStatus`], await [`JobResult`]s; executor threads and all in-flight
/// solvers are owned by this handle and joined on drop.
pub struct Serve {
    inner: Arc<Inner>,
    executors: Vec<JoinHandle<()>>,
}

impl Serve {
    /// Start the service with `cfg.executors` executor threads.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.executors >= 1, "need at least one executor");
        assert!(cfg.batch_max >= 1, "need at least one job per group");
        assert!(cfg.slice_steps >= 1, "slices must advance time");
        let slo = cfg
            .slo
            .clone()
            .map(|p| Mutex::new(SloController::new(p, cfg.slice_steps, cfg.batch_max)));
        let (slice0, batch0) = slo.as_ref().map_or((cfg.slice_steps, cfg.batch_max), |c| {
            c.lock().unwrap().tuned()
        });
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: Vec::new(),
                jobs: HashMap::new(),
                ledger: QuotaLedger::new(cfg.quotas.clone()),
                idle: 0,
                handoff: None,
                in_flight: 0,
                next_id: 1,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            slice_steps: AtomicU64::new(slice0),
            batch_max: AtomicUsize::new(batch0),
            slo,
            group_seq: AtomicU64::new(0),
            cfg,
        });
        let executors = (0..inner.cfg.executors)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("lbm-serve-exec-{i}"))
                    .spawn(move || executor_loop(&inner))
                    .expect("spawn executor")
            })
            .collect();
        Serve { inner, executors }
    }

    /// Validate, admit against quota, and enqueue a job.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        spec.validate()?;
        let mut st = self.inner.state.lock().unwrap();
        if st.shutdown {
            return Err(SubmitError::Shutdown);
        }
        let est_bytes = spec.estimated_resident_bytes();
        st.ledger.try_charge(&spec.tenant, est_bytes)?;
        let id = JobId(st.next_id);
        st.next_id += 1;
        let eff_prio = match spec.priority {
            Priority::Interactive => self.inner.cfg.interactive_base,
            Priority::Batch => 0,
        };
        if let Some(o) = self.inner.obs() {
            o.metrics.counter_add(
                "serve_jobs_submitted",
                &[("tenant", &spec.tenant), ("class", spec.priority.label())],
                1,
            );
        }
        self.inner.record_event(
            EventKind::Admit,
            Some(id),
            &spec.tenant,
            &[
                ("class", spec.priority.label().to_string()),
                ("steps", spec.steps.to_string()),
                ("nodes", spec.scenario.nodes().to_string()),
                ("resident_bytes", est_bytes.to_string()),
                ("devices", spec.devices.to_string()),
            ],
        );
        st.jobs.insert(
            id,
            JobRec {
                spec,
                state: JobState::Queued,
                eff_prio,
                steps_done: 0,
                snapshot: None,
                evictions: 0,
                rollbacks: 0,
                cancel: false,
                submitted_at: Instant::now(),
                result: None,
                charged_bytes: est_bytes,
                slices: 0,
            },
        );
        st.queue.push(id);
        st.in_flight += 1;
        self.inner.set_queue_gauges(&st);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Point-in-time status, or `None` for an unknown ID.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|rec| JobStatus {
            id,
            tenant: rec.spec.tenant.clone(),
            priority: rec.spec.priority,
            state: rec.state,
            steps_done: rec.steps_done,
            steps_target: rec.spec.steps,
            evictions: rec.evictions,
            effective_priority: rec.eff_prio,
        })
    }

    /// The completed job's result, if it has one (`None` while in flight
    /// or for canceled/failed/unknown jobs).
    pub fn result(&self, id: JobId) -> Option<JobResult> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).and_then(|rec| rec.result.clone())
    }

    /// Cancel a job. Queued and evicted jobs are canceled synchronously;
    /// a running job is flagged and canceled at its next slice boundary.
    /// Returns `false` if the job is unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(rec) = st.jobs.get_mut(&id) else {
            return false;
        };
        match rec.state {
            JobState::Queued | JobState::Evicted => {
                rec.cancel = true;
                st.queue.retain(|&q| q != id);
                finalize(&self.inner, &mut st, id, JobState::Canceled, None);
                true
            }
            JobState::Running => {
                rec.cancel = true;
                true
            }
            _ => false,
        }
    }

    /// Block until the job is terminal. `Ok` carries the result of a
    /// completed job; `Err` carries the terminal state of a canceled or
    /// failed one. Panics on an unknown ID.
    pub fn wait(&self, id: JobId) -> Result<JobResult, JobState> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let rec = st.jobs.get(&id).expect("wait on unknown job");
            if rec.state.is_terminal() {
                return match rec.state {
                    JobState::Completed => {
                        Ok(rec.result.clone().expect("completed without result"))
                    }
                    s => Err(s),
                };
            }
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Block until every submitted job is terminal.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while st.in_flight > 0 {
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Jobs currently in the ready queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Jobs not yet terminal (queued + running + evicted).
    pub fn in_flight(&self) -> usize {
        self.inner.state.lock().unwrap().in_flight
    }

    /// Current usage the quota ledger holds for `tenant`.
    pub fn tenant_usage(&self, tenant: &str) -> TenantUsage {
        self.inner.state.lock().unwrap().ledger.usage(tenant)
    }

    /// Live tunables `(slice_steps, batch_max)` — the static config until
    /// the SLO controller moves them.
    pub fn tuned(&self) -> (u64, usize) {
        (
            self.inner.slice_steps.load(Ordering::Relaxed),
            self.inner.batch_max.load(Ordering::Relaxed),
        )
    }

    /// SLO summary — per-class latency quantiles, burn rates, and the
    /// controller's tuning state — when a policy is configured.
    pub fn slo_summary(&self) -> Option<obs::json::Value> {
        self.inner.slo.as_ref().map(|c| c.lock().unwrap().summary())
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Move a job into a terminal state: record the result (for completions),
/// release its quota charge, bump outcome counters, wake waiters. Caller
/// must have already detached the job from queue/group ownership.
fn finalize(
    inner: &Inner,
    st: &mut MutexGuard<'_, State>,
    id: JobId,
    terminal: JobState,
    result: Option<JobResult>,
) {
    debug_assert!(terminal.is_terminal());
    let rec = st.jobs.get_mut(&id).expect("finalize unknown job");
    debug_assert!(!rec.state.is_terminal(), "double finalize");
    rec.state = terminal;
    rec.snapshot = None;
    rec.result = result;
    let tenant = rec.spec.tenant.clone();
    let priority = rec.spec.priority;
    let class = priority.label();
    let charged = rec.charged_bytes;
    let evictions = rec.evictions;
    let latency_ms = rec.submitted_at.elapsed().as_secs_f64() * 1e3;
    st.ledger.release(&tenant, charged);
    st.in_flight -= 1;
    if let Some(o) = inner.obs() {
        let outcome = match terminal {
            JobState::Completed => "serve_jobs_completed",
            JobState::Canceled => "serve_jobs_canceled",
            _ => "serve_jobs_failed",
        };
        o.metrics
            .counter_add(outcome, &[("tenant", &tenant), ("class", class)], 1);
        if terminal == JobState::Completed {
            // Both the bounds and the observation are milliseconds — see
            // the `LATENCY_BOUNDS_MS` doc comment.
            debug_assert!(
                LATENCY_BOUNDS_MS[0] > 0.0
                    && LATENCY_BOUNDS_MS
                        .windows(2)
                        .all(|w| w[0] < w[1] && w[1].is_finite()),
                "LATENCY_BOUNDS_MS must be finite, positive, strictly ascending"
            );
            debug_assert!(
                latency_ms.is_finite() && latency_ms >= 0.0,
                "latency observation must be a finite non-negative millisecond value"
            );
            o.metrics.histogram_observe(
                "serve_job_latency_ms",
                &[("class", class)],
                &LATENCY_BOUNDS_MS,
                latency_ms,
            );
        }
    }
    let kind = match terminal {
        JobState::Completed => EventKind::Complete,
        JobState::Canceled => EventKind::Cancel,
        _ => EventKind::Fail,
    };
    inner.record_event(
        kind,
        Some(id),
        &tenant,
        &[
            ("latency_ms", format!("{latency_ms:.3}")),
            ("evictions", evictions.to_string()),
        ],
    );
    if terminal == JobState::Completed {
        if let Some(slo) = &inner.slo {
            let decision = slo.lock().unwrap().observe(priority, latency_ms);
            if let Some(d) = decision {
                inner.slice_steps.store(d.slice_steps, Ordering::Relaxed);
                inner.batch_max.store(d.batch_max, Ordering::Relaxed);
                if let Some(o) = inner.obs() {
                    o.metrics
                        .counter_add("serve_slo_tunes", &[("reason", d.reason)], 1);
                    o.metrics
                        .gauge_set("serve_tuned_slice_steps", &[], d.slice_steps as f64);
                    o.metrics
                        .gauge_set("serve_tuned_batch_max", &[], d.batch_max as f64);
                }
                inner.record_event(
                    EventKind::Tune,
                    None,
                    "",
                    &[
                        ("slice_steps", d.slice_steps.to_string()),
                        ("batch_max", d.batch_max.to_string()),
                        ("reason", d.reason.to_string()),
                    ],
                );
            }
        }
    }
    inner.set_queue_gauges(st);
    inner.done_cv.notify_all();
}

/// Pick the next lockstep group off the ready queue, or `None` if the
/// queue is empty. Leader = highest effective priority (FIFO among ties);
/// the rest of the group is filled with queue-order jobs of the same
/// class, up to the *live* (possibly SLO-tuned) group width. Passed-over
/// jobs gain `aging` credit. Returns the group's monotonic ID with its
/// members.
fn select_group(inner: &Inner, st: &mut MutexGuard<'_, State>) -> Option<(u64, Vec<JobId>)> {
    if st.queue.is_empty() {
        return None;
    }
    let leader_pos = st
        .queue
        .iter()
        .enumerate()
        .max_by_key(|&(pos, id)| (st.jobs[id].eff_prio, std::cmp::Reverse(pos)))
        .map(|(pos, _)| pos)
        .expect("non-empty queue");
    let leader = st.queue[leader_pos];
    let class = st.jobs[&leader].spec.priority;
    let batch_max = inner.batch_max.load(Ordering::Relaxed);
    let mut group = vec![leader];
    for &id in st.queue.iter() {
        if group.len() >= batch_max {
            break;
        }
        if id != leader && st.jobs[&id].spec.priority == class {
            group.push(id);
        }
    }
    st.queue.retain(|id| !group.contains(id));
    let State { queue, jobs, .. } = &mut **st;
    for id in queue.iter() {
        jobs.get_mut(id).expect("queued job exists").eff_prio += inner.cfg.aging;
    }
    for &id in &group {
        st.jobs.get_mut(&id).expect("grouped job exists").state = JobState::Running;
    }
    let gid = inner.group_seq.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(o) = inner.obs() {
        o.tracer.instant(
            "serve",
            "dispatch",
            &[
                ("group", gid.to_string()),
                ("size", group.len().to_string()),
                ("class", class.label().to_string()),
                ("queued", st.queue.len().to_string()),
            ],
        );
        o.metrics
            .counter_add("serve_dispatch_groups", &[("class", class.label())], 1);
    }
    let members = group
        .iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(",");
    inner.record_event(
        EventKind::GroupForm,
        None,
        "",
        &[
            ("group", gid.to_string()),
            ("class", class.label().to_string()),
            ("members", members),
        ],
    );
    inner.set_queue_gauges(st);
    Some((gid, group))
}

/// Should the executor running `group` hand its device back? Only when
/// interactive-level work is waiting, nobody is idle to take it, and every
/// group member is still below the eviction-immunity threshold.
fn should_evict(inner: &Inner, st: &State, group: &[Active]) -> bool {
    if st.idle > 0 || group.is_empty() {
        return false;
    }
    let interactive_waiting = st
        .queue
        .iter()
        .any(|id| st.jobs[id].eff_prio >= inner.cfg.interactive_base);
    interactive_waiting
        && group
            .iter()
            .all(|a| st.jobs[&a.id].eff_prio < inner.cfg.interactive_base)
}

/// Should the group about to run its next slice give a member to an idle
/// executor? Only when one is parked, the ready queue is empty (so that
/// executor has nothing else to do), the slot is free, and the group
/// keeps a member of its own.
fn should_hand_off(st: &State, width: usize) -> bool {
    st.idle > 0 && st.queue.is_empty() && st.handoff.is_none() && width >= 2
}

/// Put `a` in the hand-off slot as a one-member group with a fresh id and
/// wake a parked executor to adopt it. The solver, its steps and its
/// slice count move with it; only its group id changes.
fn hand_off(inner: &Inner, st: &mut State, from: u64, a: Active) {
    let to = inner.group_seq.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(o) = inner.obs() {
        let class = st.jobs[&a.id].spec.priority.label();
        o.metrics
            .counter_add("serve_handoffs", &[("class", class)], 1);
    }
    inner.record_event(
        EventKind::Handoff,
        Some(a.id),
        &a.tenant,
        &[
            ("from_group", from.to_string()),
            ("to_group", to.to_string()),
        ],
    );
    st.handoff = Some((to, a));
    inner.work_cv.notify_one();
}

/// What an executor leaves the state lock with.
enum Work {
    /// Jobs `select_group` took off the ready queue, still to be built.
    Formed(Vec<JobId>),
    /// A built member taken from the hand-off slot.
    Adopted(Active),
}

fn executor_loop(inner: &Arc<Inner>) {
    loop {
        let (gid, work) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                // The slot comes before the shutdown check: its member is
                // still the fleet's and must reach a terminal state.
                if let Some((gid, a)) = st.handoff.take() {
                    break (gid, Work::Adopted(a));
                }
                if st.shutdown {
                    return;
                }
                if let Some((gid, ids)) = select_group(inner, &mut st) {
                    break (gid, Work::Formed(ids));
                }
                st.idle += 1;
                inner.set_queue_gauges(&st);
                st = inner.work_cv.wait(st).unwrap();
                st.idle -= 1;
            }
        };
        run_group(inner, gid, work);
    }
}

/// A `serve` span of one job, if a hub is attached: the one place the
/// job's identity — `job`, `tenant`, `group` and `slice`, the index of its
/// latest slice — is stated. The driver, halo and kernel spans the job runs
/// inside it nest under it on the executor's span stack and carry none of
/// these args.
fn job_span<'a>(
    inner: &'a Inner,
    name: &str,
    (id, tenant, group, slice): (JobId, &str, u64, u64),
    (key, value): (&'static str, u64),
) -> Option<obs::Span<'a>> {
    inner.obs().map(|o| {
        o.tracer.span_args(
            "serve",
            name,
            &[
                ("job", id.to_string()),
                ("tenant", tenant.to_string()),
                ("group", group.to_string()),
                ("slice", slice.to_string()),
                (key, value.to_string()),
            ],
        )
    })
}

/// Build (or restore) every member of a formed group, or take an adopted
/// member as it is, then drive them in round-robin slices until each one
/// completes, fails, is canceled, evicted or handed to an idle executor.
fn run_group(inner: &Arc<Inner>, gid: u64, work: Work) {
    let (group_ids, mut group) = match work {
        Work::Formed(ids) => {
            let n = ids.len();
            (ids, Vec::with_capacity(n))
        }
        Work::Adopted(a) => (Vec::new(), vec![a]),
    };
    for id in group_ids {
        let (spec, snapshot, done, slices) = {
            let st = inner.state.lock().unwrap();
            let rec = &st.jobs[&id];
            (
                rec.spec.clone(),
                rec.snapshot.clone(),
                rec.steps_done,
                rec.slices,
            )
        };
        let resume_span = snapshot.as_ref().and_then(|_| {
            job_span(
                inner,
                "resume",
                (id, &spec.tenant, gid, slices),
                ("from_step", done),
            )
        });
        let built = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = spec.build(inner.cfg.cpu_threads_per_job);
            if let Some(bytes) = &snapshot {
                sim.restore(bytes)?;
            }
            Ok::<_, lbm_core::io::CheckpointError>(sim)
        }));
        drop(resume_span);
        match built {
            Ok(Ok(mut sim)) => {
                if let Some(o) = inner.obs() {
                    sim.set_obs(o.clone());
                }
                {
                    let mut st = inner.state.lock().unwrap();
                    let rec = st.jobs.get_mut(&id).expect("group job exists");
                    rec.snapshot = None;
                    // True the admission-time estimate up to the driver's
                    // actual lattice allocation (multi-device builds carry
                    // ghost columns the spec-side estimate cannot see). A
                    // true-up can land the tenant over its resident-byte
                    // limit; the job keeps running (its bytes are already
                    // resident) but the breach is counted and logged so
                    // the quota is never silently bypassed.
                    let actual = sim.resident_bytes();
                    let old = rec.charged_bytes;
                    if actual != old {
                        rec.charged_bytes = actual;
                        if let Some(breach) = st.ledger.recharge(&spec.tenant, old, actual) {
                            if let Some(o) = inner.obs() {
                                o.metrics.counter_add(
                                    "serve_quota_breaches",
                                    &[("tenant", &spec.tenant)],
                                    1,
                                );
                            }
                            inner.record_event(
                                EventKind::QuotaBreach,
                                Some(id),
                                &spec.tenant,
                                &[
                                    ("resident_bytes", breach.resident_bytes.to_string()),
                                    ("max_resident_bytes", breach.max_resident_bytes.to_string()),
                                ],
                            );
                        }
                    }
                    let rec = st.jobs.get_mut(&id).expect("group job exists");
                    if snapshot.is_some() {
                        if let Some(o) = inner.obs() {
                            o.metrics.counter_add(
                                "serve_resumes",
                                &[("class", rec.spec.priority.label())],
                                1,
                            );
                        }
                        inner.record_event(
                            EventKind::Resume,
                            Some(id),
                            &spec.tenant,
                            &[("from_step", done.to_string()), ("group", gid.to_string())],
                        );
                    }
                }
                group.push(Active {
                    id,
                    sim,
                    target: spec.steps,
                    done,
                    resilient: spec.resilient,
                    fault_plan: spec.fault_plan.clone(),
                    tenant: spec.tenant.clone(),
                    slices,
                });
            }
            Ok(Err(_)) | Err(_) => {
                let mut st = inner.state.lock().unwrap();
                finalize(inner, &mut st, id, JobState::Failed, None);
            }
        }
    }

    while !group.is_empty() {
        // One round-robin pass: a slice for every member still running.
        let mut i = 0;
        while i < group.len() {
            // Slice boundary: the cancel check holds the state lock, and
            // under it the member due next may go to an idle executor.
            let canceled = {
                let mut st = inner.state.lock().unwrap();
                let canceled = st.jobs[&group[i].id].cancel;
                if !canceled && should_hand_off(&st, group.len()) {
                    hand_off(inner, &mut st, gid, group.remove(i));
                    continue;
                }
                canceled
            };
            if canceled {
                let a = group.remove(i);
                let mut st = inner.state.lock().unwrap();
                finalize(inner, &mut st, a.id, JobState::Canceled, None);
                continue;
            }
            let a = &mut group[i];
            let slice_steps = inner.slice_steps.load(Ordering::Relaxed);
            let slice = slice_steps.min(a.target - a.done);
            a.slices += 1;
            inner.record_event(
                EventKind::Slice,
                Some(a.id),
                &a.tenant,
                &[
                    ("steps", slice.to_string()),
                    ("from_step", a.done.to_string()),
                    ("group", gid.to_string()),
                ],
            );
            let _slice_span = job_span(
                inner,
                "slice",
                (a.id, &a.tenant, gid, a.slices),
                ("steps", slice),
            );
            // A panic escaping the solver unwinds past every open driver /
            // kernel span guard; the balance guard force-closes whatever
            // leaked so the per-thread span stack stays balanced (the
            // regression test asserts exact B/E parity after an induced
            // panic).
            let mut balance = inner.obs().map(|o| o.tracer.balance_guard());
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                if a.resilient {
                    let rcfg = RecoveryConfig {
                        checkpoint_every: slice_steps,
                        max_rollbacks: 16,
                        fault_watch: a.fault_plan.clone(),
                        obs: inner.cfg.obs.clone(),
                        ctx: Some((a.id.0, a.tenant.clone())),
                    };
                    run_with_recovery(&mut *a.sim, a.done + slice, &rcfg)
                        .map(|stats| stats.rollbacks)
                        .map_err(|e| e.to_string())
                } else {
                    for _ in 0..slice {
                        a.sim.step();
                    }
                    Ok(0)
                }
            }));
            if let Some(g) = balance.as_mut() {
                let repaired = g.repair();
                if repaired > 0 {
                    if let Some(o) = inner.obs() {
                        o.metrics
                            .counter_add("serve_span_repairs", &[], repaired as u64);
                    }
                }
            }
            drop(balance);
            drop(_slice_span);
            match stepped {
                Ok(Ok(rollbacks)) => {
                    a.done += slice;
                    let finished = a.done >= a.target;
                    if finished {
                        let mut a = group.remove(i);
                        a.sim.finish_monitor();
                        let checksum = a.sim.field_checksum();
                        let steps = a.sim.steps();
                        let mut st = inner.state.lock().unwrap();
                        {
                            let rec = st.jobs.get_mut(&a.id).expect("group job exists");
                            rec.steps_done = a.done;
                            rec.rollbacks += rollbacks;
                        }
                        let rec = &st.jobs[&a.id];
                        let result = JobResult {
                            id: a.id,
                            checksum,
                            steps,
                            latency_ms: rec.submitted_at.elapsed().as_secs_f64() * 1e3,
                            evictions: rec.evictions,
                            rollbacks: rec.rollbacks,
                        };
                        finalize(inner, &mut st, a.id, JobState::Completed, Some(result));
                    } else {
                        let mut st = inner.state.lock().unwrap();
                        let rec = st.jobs.get_mut(&a.id).expect("group job exists");
                        rec.steps_done = a.done;
                        rec.rollbacks += rollbacks;
                        i += 1;
                    }
                }
                Ok(Err(_)) | Err(_) => {
                    let a = group.remove(i);
                    let mut st = inner.state.lock().unwrap();
                    finalize(inner, &mut st, a.id, JobState::Failed, None);
                }
            }
        }

        // Preemption point: between rounds, hand the device back if
        // interactive work is starving.
        let evict_now = {
            let st = inner.state.lock().unwrap();
            should_evict(inner, &st, &group)
        };
        if evict_now {
            for mut a in group.drain(..) {
                let _evict_span = job_span(
                    inner,
                    "evict",
                    (a.id, &a.tenant, gid, a.slices),
                    ("at_step", a.done),
                );
                // Flush the physics monitor's final sample before the job
                // goes cold: an eviction may be the last time this solver
                // instance exists (a cancel can land while it waits), and
                // the monitor is observational, so flushing cannot perturb
                // the checkpointed trajectory.
                a.sim.finish_monitor();
                let snapshot = a.sim.checkpoint();
                let mut st = inner.state.lock().unwrap();
                // A cancel that raced the eviction wins: the job is
                // terminal-bound either way, and canceling here avoids
                // requeueing work nobody wants.
                if st.jobs[&a.id].cancel {
                    finalize(inner, &mut st, a.id, JobState::Canceled, None);
                    continue;
                }
                let rec = st.jobs.get_mut(&a.id).expect("group job exists");
                rec.snapshot = Some(snapshot);
                rec.state = JobState::Evicted;
                rec.evictions += 1;
                rec.slices = a.slices;
                let class = rec.spec.priority.label();
                st.queue.push(a.id);
                if let Some(o) = inner.obs() {
                    o.metrics
                        .counter_add("serve_evictions", &[("class", class)], 1);
                }
                inner.record_event(
                    EventKind::Evict,
                    Some(a.id),
                    &a.tenant,
                    &[("at_step", a.done.to_string()), ("group", gid.to_string())],
                );
                inner.set_queue_gauges(&st);
                inner.work_cv.notify_one();
            }
        }
    }
}

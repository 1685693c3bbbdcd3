//! The `serve` workload: a closed loop of tenants over `lbm-serve`.
//!
//! One generator thread keeps [`WINDOW`] jobs in flight — it submits until
//! that many are outstanding, then waits on the oldest — which is how a
//! tenant running a parameter sweep behaves: the next request goes out when
//! a reply comes back. A slow system therefore receives less load instead
//! of an ever-growing queue, and one VM stall delays the jobs in flight,
//! not every job after them (the open-loop variant's p99 swung 30× on
//! identical code for exactly that reason). The benchmark owns the
//! generator; the program sees only the specs.
//!
//! After the fleet run every job is run again, alone, by the benchmark: the
//! checksum of that solo run is the oracle for the served result, and its
//! duration is the job's service demand.
//!
//! A fleet's latencies are spread by design — job sizes, queueing,
//! evictions — so the quiet set of `crate::stats` cannot be the fastest
//! *jobs*, and the calibration kernel cannot run beside a fleet that keeps
//! every core busy. The job list is a sequence of blocks that all ask for
//! the same work in another order (`gen::job_mix`); the loop serves them
//! [`EPOCH_BLOCKS`] at a time — an *epoch* — lets the fleet drain, and
//! runs the calibration kernel before the next ([`with_beats`]). Every
//! statistic is taken over the jobs of one epoch, at the speed the kernel
//! showed on either side of it, and reduced over the epochs by the midmean
//! like a solver workload's. The solo lap is run the same way.

use crate::calib;
use crate::drivers::hub_ledger;
use crate::gen::{self, BLOCK_JOBS};
use crate::metrics::{set, Values};
use crate::probes::Machine;
use crate::spans::{close, open, SpanId, Spans};
use crate::stats::{median, midmean, percentile, pick_tail, sorted};
use crate::Ops;
use gpu_sim::{roofline, DeviceSpec};
use lbm_serve::{JobResult, JobSpec, Pattern, Priority, Serve, ServeConfig};
use obs::{EventKind, Obs};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Jobs the generator keeps in flight.
pub const WINDOW: usize = 8;
/// One job shape in `LEDGER_EVERY` carries a hub on its solo run, to read
/// its byte ledger; those runs are left out of the service-demand timings.
const LEDGER_EVERY: u64 = 4;
const SETUP_REPEATS: usize = 9;
/// Blocks the fleet serves between two calibrations: one epoch. Two give
/// an epoch's p90 of the interactive latencies its ten jobs beyond.
const EPOCH_BLOCKS: usize = 2;

/// Blocks of a run of `seconds`, whole epochs of them: one block of
/// [`BLOCK_JOBS`] jobs takes about a second on the 2-core reference box.
pub fn blocks_for(seconds: f64) -> usize {
    (seconds.round() as usize)
        .max(EPOCH_BLOCKS)
        .next_multiple_of(EPOCH_BLOCKS)
}

/// Run `work` on every epoch of a list of `n` jobs, with the calibration
/// kernel run [`calib::BEATS`] times before the first and after each (and
/// a pair of triad sweeps, so that they spread over the run). Returns, per
/// epoch, its jobs, what `work` returned, and the machine's speed from the
/// runs on either side of it.
fn with_beats<T>(
    n: usize,
    machine: &mut Machine,
    mut work: impl FnMut(Range<usize>) -> T,
) -> Vec<(Range<usize>, T, f64)> {
    let epoch = EPOCH_BLOCKS * BLOCK_JOBS;
    let mut before = machine.calib.runs(calib::BEATS);
    let mut out = Vec::new();
    for start in (0..n).step_by(epoch) {
        let jobs = start..(start + epoch).min(n);
        let done = work(jobs.clone());
        machine.triad.sweep();
        let after = machine.calib.runs(calib::BEATS);
        before.extend(&after);
        out.push((jobs, done, calib::speed(&before)));
        before = after;
    }
    out
}

/// Whether the solo run of `spec` carries a hub. A property of the job's
/// shape, so the same jobs carry one whatever order a seed puts them in.
fn carries_ledger(spec: &JobSpec) -> bool {
    use std::hash::{Hash, Hasher};
    // `DefaultHasher::new()` is keyed with zeros: the same in every run.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    spec.physics_key().hash(&mut h);
    h.finish().is_multiple_of(LEDGER_EVERY)
}

/// Keep `window` requests outstanding until all of `jobs` have completed:
/// submit while fewer are in flight, then wait on the oldest. Returns the
/// replies in submission order.
pub fn closed_loop<T, R>(
    jobs: Range<usize>,
    window: usize,
    mut submit: impl FnMut(usize) -> T,
    mut wait: impl FnMut(usize, T) -> R,
) -> Vec<R> {
    let mut pending = VecDeque::with_capacity(window);
    let mut replies = Vec::with_capacity(jobs.len());
    let mut next = jobs.start;
    while replies.len() < jobs.len() {
        while next < jobs.end && pending.len() < window {
            pending.push_back((next, submit(next)));
            next += 1;
        }
        let (i, ticket) = pending.pop_front().expect("a request is in flight");
        replies.push(wait(i, ticket));
    }
    replies
}

/// A served job, as the tenant saw it.
pub struct Served {
    pub result: Result<JobResult, String>,
    pub submit_us: f64,
}

/// One epoch of a fleet run.
pub struct Epoch {
    pub jobs: Range<usize>,
    /// First submission to last reply, seconds at nominal machine speed.
    pub wall_s: f64,
    /// Factor from a time measured in this epoch to nominal machine speed.
    pub speed: f64,
}

/// One pass of the fleet.
pub struct FleetRun {
    pub served: Vec<Served>,
    pub epochs: Vec<Epoch>,
    /// Sum of the epochs' wall-clock, as measured.
    pub wall_s: f64,
    /// Set-up times, seconds at nominal machine speed.
    pub setup_s: Vec<f64>,
    pub spans: Option<Spans>,
    pub hub: Option<Arc<Obs>>,
    pub hub_spans: usize,
}

impl FleetRun {
    /// Factor from a time job `i` measured to nominal machine speed.
    fn speed_of(&self, i: usize) -> f64 {
        self.epochs[i / (EPOCH_BLOCKS * BLOCK_JOBS)].speed
    }

    /// Submit → complete of job `i`, milliseconds at nominal machine speed.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        let done = self.served[i].result.as_ref().ok()?;
        Some(done.latency_ms * self.speed_of(i))
    }

    /// What the calibration kernel took around the epochs, seconds.
    pub fn quiet_calib_s(&self) -> f64 {
        midmean(&(self.epochs.iter().map(|e| calib::NOMINAL_S / e.speed)).collect::<Vec<_>>())
    }
}

fn config(threads: usize, hub: Option<Arc<Obs>>) -> ServeConfig {
    ServeConfig {
        executors: threads,
        cpu_threads_per_job: 1,
        obs: hub,
        ..ServeConfig::default()
    }
}

/// Set the fleet up (job list, admission checks, executors), then drive
/// the closed loop over it, an epoch at a time.
pub fn run_fleet(
    seed: u64,
    threads: usize,
    blocks: usize,
    traced: bool,
    machine: &mut Machine,
    ops: &mut Ops,
) -> FleetRun {
    let n = blocks * BLOCK_JOBS;
    let mut spans = traced.then(Spans::new);
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut beats = machine.calib.runs(calib::BEATS);
    for rep in 0..SETUP_REPEATS {
        drop(ready.take());
        let span = open(&mut spans, "setup", None, rep as u64);
        let born = spans.as_ref().map(|s| s.now_ns());
        let t0 = Instant::now();
        let specs = gen::job_mix(seed, blocks);
        let admissible = specs.iter().all(|s| s.validate().is_ok());
        let hub = traced.then(Obs::shared);
        let serve = Serve::start(config(threads, hub.clone()));
        setup_s.push(t0.elapsed().as_secs_f64());
        close(&mut spans, span);
        ops.check(admissible, || {
            "serve: generator emitted an invalid spec".into()
        });
        ready = Some((specs, serve, hub, born));
    }
    let (specs, serve, hub, born) = ready.expect("set-up ran");
    beats.extend(machine.calib.runs(calib::BEATS));
    for s in &mut setup_s {
        *s *= calib::speed(&beats);
    }

    let mut queue: VecDeque<JobSpec> = specs.into();
    // Our span of job `i`, and the program's id for it once known.
    let mut job_spans: Vec<Option<SpanId>> = vec![None; n];
    let mut job_ids: BTreeMap<u64, usize> = BTreeMap::new();
    let spans_cell = std::cell::RefCell::new(spans.take());
    let mut submit = |i: usize| {
        let spec = queue.pop_front().expect("one spec per job");
        let sp = &mut *spans_cell.borrow_mut();
        let job = open(sp, "job", None, i as u64 + 1);
        let sub = open(sp, "submit", job, i as u64 + 1);
        let t = Instant::now();
        let ticket = serve.submit(spec);
        let submit_us = t.elapsed().as_secs_f64() * 1e6;
        close(sp, sub);
        job_spans[i] = job;
        if let Ok(id) = &ticket {
            job_ids.insert(id.0, i);
        }
        (ticket, submit_us, job)
    };
    let mut wait = |i: usize, (ticket, submit_us, job): (Result<_, _>, f64, Option<SpanId>)| {
        let wait = open(&mut spans_cell.borrow_mut(), "wait", job, i as u64 + 1);
        let result = match ticket {
            Ok(id) => serve.wait(id).map_err(|state| format!("ended {state:?}")),
            Err(e) => Err(format!("refused: {e}")),
        };
        let sp = &mut *spans_cell.borrow_mut();
        close(sp, wait);
        close(sp, job);
        Served { result, submit_us }
    };
    let ran = with_beats(n, machine, |jobs| {
        let t0 = Instant::now();
        let served = closed_loop(jobs, WINDOW, &mut submit, &mut wait);
        (served, t0.elapsed().as_secs_f64())
    });
    drop(serve);
    let (mut served, mut epochs, mut wall_s) = (Vec::with_capacity(n), Vec::new(), 0.0);
    for (jobs, (replies, wall), speed) in ran {
        served.extend(replies);
        wall_s += wall;
        epochs.push(Epoch {
            jobs,
            wall_s: wall * speed,
            speed,
        });
    }
    let mut spans = spans_cell.into_inner();

    // The program's spans carry the job id the scheduler minted; hang each
    // under our span of that job.
    let mut hub_spans = 0;
    if let (Some(s), Some(hub), Some(born)) = (spans.as_mut(), &hub, born) {
        hub_spans = s.adopt(&hub.tracer.events(), born, |_, job| {
            job_spans[*job_ids.get(&job?)?]
        });
    }
    FleetRun {
        served,
        epochs,
        wall_s,
        setup_s,
        spans,
        hub,
        hub_spans,
    }
}

/// A job run alone by the benchmark. Times are at nominal machine speed
/// once [`solo_lap`] returns them.
#[derive(Clone, Copy, Default)]
pub struct Solo {
    pub checksum: u64,
    pub build_s: f64,
    /// Build + every step + the checksum: the work an executor must do.
    pub total_s: f64,
    pub step_s: f64,
    pub fluid: usize,
    pub resident: usize,
    /// DRAM bytes of the whole run, where a hub was attached.
    pub dram_bytes: Option<u64>,
    /// The same job on one device, for multi-device specs: `(seconds of
    /// the step loop, checksum)`.
    pub one_device: Option<(f64, u64)>,
    pub failed: bool,
}

fn run_solo(spec: &JobSpec, with_hub: bool) -> Solo {
    let t0 = Instant::now();
    let mut sim = spec.build(1);
    let build_s = t0.elapsed().as_secs_f64();
    let hub = with_hub.then(Obs::shared);
    if let Some(h) = &hub {
        sim.set_obs(h.clone());
    }
    let t1 = Instant::now();
    let mut failed = false;
    for _ in 0..spec.steps {
        failed |= sim.try_step().is_err();
    }
    let step_s = t1.elapsed().as_secs_f64();
    let checksum = sim.field_checksum();
    Solo {
        checksum,
        build_s,
        total_s: t0.elapsed().as_secs_f64(),
        step_s,
        fluid: sim.fluid_nodes(),
        resident: sim.resident_bytes(),
        dram_bytes: hub.map(|h| hub_ledger(&h).0.dram_bytes()),
        one_device: None,
        failed,
    }
}

/// Run every spec alone, `threads` at a time (the fleet's own concurrency,
/// so a solo run sees the machine a served one saw), in the fleet's epochs.
pub fn solo_lap(specs: &[JobSpec], threads: usize, machine: &mut Machine) -> Vec<Solo> {
    let out = Mutex::new(vec![Solo::default(); specs.len()]);
    let ran = with_beats(specs.len(), machine, |jobs| {
        solo_epoch(specs, jobs, threads, &out)
    });
    let mut out = out.into_inner().expect("every solo thread was joined");
    for (jobs, (), speed) in ran {
        for solo in &mut out[jobs] {
            solo.build_s *= speed;
            solo.total_s *= speed;
            solo.step_s *= speed;
            if let Some((one_s, _)) = &mut solo.one_device {
                *one_s *= speed;
            }
        }
    }
    out
}

fn solo_epoch(specs: &[JobSpec], jobs: Range<usize>, threads: usize, out: &Mutex<Vec<Solo>>) {
    let next = AtomicUsize::new(jobs.start);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.end {
                    break;
                }
                let spec = &specs[i];
                let mut solo = run_solo(spec, carries_ledger(spec));
                if spec.devices > 1 {
                    let one = JobSpec {
                        devices: 1,
                        ..spec.clone()
                    };
                    let twin = run_solo(&one, false);
                    solo.one_device = Some((twin.step_s, twin.checksum));
                    solo.failed |= twin.failed;
                }
                out.lock().expect("no solo run panics holding the lock")[i] = solo;
            });
        }
    });
}

/// Compare every served result with its solo oracle.
pub fn check(specs: &[JobSpec], fleet: &FleetRun, solos: &[Solo], ops: &mut Ops) {
    for (i, ((spec, served), solo)) in specs.iter().zip(&fleet.served).zip(solos).enumerate() {
        ops.check(!solo.failed, || {
            format!("serve: solo run of job {i} failed a step")
        });
        match &served.result {
            Ok(r) => ops.check(r.checksum == solo.checksum && r.steps == spec.steps, || {
                format!("serve: job {i} ({spec:?}) differs from its solo run")
            }),
            Err(why) => ops.check(false, || format!("serve: job {i} {why}")),
        }
        if let Some((_, twin)) = solo.one_device {
            ops.check(twin == solo.checksum, || {
                format!(
                    "serve: job {i} on {} devices differs from one device",
                    spec.devices
                )
            });
        }
    }
}

fn is_mr(p: Pattern) -> bool {
    matches!(
        p,
        Pattern::MrP | Pattern::MrR | Pattern::MrTwist | Pattern::SparseMr
    )
}

fn is_inplace(p: Pattern) -> bool {
    matches!(p, Pattern::AaSt | Pattern::MrTwist | Pattern::SparseMr)
}

/// Latencies of the completed jobs of one class among `jobs`,
/// milliseconds at nominal machine speed, ascending.
fn latencies(specs: &[JobSpec], fleet: &FleetRun, class: Priority, jobs: Range<usize>) -> Vec<f64> {
    let ms: Vec<f64> = jobs
        .filter(|i| specs[*i].priority == class)
        .filter_map(|i| fleet.latency_ms(i))
        .collect();
    sorted(&ms)
}

/// The sixteen end-to-end metrics of the serve workload.
pub fn end_to_end(specs: &[JobSpec], fleet: &FleetRun, solos: &[Solo], triad_gb_s: f64) -> Values {
    let n = specs.len();
    let updates = |i: usize| specs[i].steps as f64 * solos[i].fluid as f64;
    // Every epoch is the same work: a statistic of one, midmean over all.
    let per_epoch =
        |stat: &dyn Fn(&Epoch) -> f64| midmean(&fleet.epochs.iter().map(stat).collect::<Vec<_>>());

    // The solver metrics, as a tenant's jobs see them when run alone: node
    // updates per second of step time, by representation, over an epoch of
    // the solo lap. Runs that carried a hub are left out.
    let alone = |e: &Epoch, keep: &dyn Fn(Pattern) -> bool| -> Vec<usize> {
        (e.jobs.clone())
            .filter(|i| keep(specs[*i].pattern) && !carries_ledger(&specs[*i]))
            .collect()
    };
    let mflups = |e: &Epoch, keep: &dyn Fn(Pattern) -> bool| {
        let jobs = alone(e, keep);
        let upd: f64 = jobs.iter().copied().map(updates).sum();
        let secs: f64 = jobs.iter().map(|&i| solos[i].step_s).sum();
        upd / secs / 1e6
    };
    let is_st = |p: Pattern| !is_mr(p);
    let mflups_mr = per_epoch(&|e| mflups(e, &is_mr));
    let mr_step_ms_p90 = |e: &Epoch| {
        let ms: Vec<f64> = alone(e, &is_mr)
            .into_iter()
            .map(|i| solos[i].step_s * 1e3 / specs[i].steps as f64)
            .collect();
        percentile(&sorted(&ms), 90.0)
    };
    // Simulated figures: the mean over the MR jobs of each job's own ratio,
    // so that the few largest jobs do not decide them.
    let mr_jobs = || (0..n).filter(|i| is_mr(specs[*i].pattern));
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let sim_bpf = mean(
        mr_jobs()
            .filter_map(|i| solos[i].dram_bytes.map(|b| b as f64 / updates(i)))
            .collect(),
    );
    let resident = mean(
        mr_jobs()
            .map(|i| solos[i].resident as f64 / solos[i].fluid as f64)
            .collect(),
    );
    let shard: Vec<f64> = solos
        .iter()
        .filter_map(|o| o.one_device.map(|(one_s, _)| one_s / o.step_s))
        .collect();

    let mut v = Values::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.to_string(), x);
    };
    put("setup_s", median(&fleet.setup_s));
    put("mflups_mr", mflups_mr);
    put("mflups_st", per_epoch(&|e| mflups(e, &is_st)));
    put("mflups_inplace", per_epoch(&|e| mflups(e, &is_inplace)));
    put(
        "mr_vs_st",
        per_epoch(&|e| mflups(e, &is_mr) / mflups(e, &is_st)),
    );
    put("step_ms_p90", per_epoch(&mr_step_ms_p90));
    put("shard_eff", median(&shard));
    put("jobs_per_s", per_epoch(&|e| e.jobs.len() as f64 / e.wall_s));
    put(
        "serve_mflups",
        per_epoch(&|e| e.jobs.clone().map(updates).sum::<f64>() / e.wall_s / 1e6),
    );
    let ms =
        |class, p| per_epoch(&|e| percentile(&latencies(specs, fleet, class, e.jobs.clone()), p));
    put("job_ms_p50_interactive", ms(Priority::Interactive, 50.0));
    put("job_ms_p90_interactive", ms(Priority::Interactive, 90.0));
    put("job_ms_p50_batch", ms(Priority::Batch, 50.0));
    put("sim_bpf_mr", sim_bpf);
    put(
        "sim_mflups_mr",
        roofline::mflups_max_on(&DeviceSpec::v100(), sim_bpf),
    );
    put("resident_bytes_per_node", resident);
    put(
        "host_roofline_pct",
        mflups_mr * sim_bpf / (triad_gb_s * 1e3) * 100.0,
    );
    v
}

/// The `lbm-serve.*` rows (and, from a traced run, the event-log rows).
pub fn per_layer(
    specs: &[JobSpec],
    fleet: &FleetRun,
    solos: &[Solo],
    threads: usize,
    out: &mut Values,
) {
    let mut put = |name: &str, x: f64| set(out, name, x);
    let submit: Vec<f64> = (fleet.served.iter().enumerate())
        .map(|(i, j)| j.submit_us * fleet.speed_of(i))
        .collect();
    put("lbm-serve.submit_us_p50", median(&submit));
    for (class, label) in [
        (Priority::Interactive, "interactive"),
        (Priority::Batch, "batch"),
    ] {
        let (mut build, mut solo, mut wait, mut slow) = (vec![], vec![], vec![], vec![]);
        for (i, (s, o)) in specs.iter().zip(solos).enumerate() {
            if s.priority != class || carries_ledger(s) {
                continue;
            }
            build.push(o.build_s * 1e3);
            solo.push(o.total_s * 1e3);
            if let Some(latency_ms) = fleet.latency_ms(i) {
                wait.push(latency_ms - o.total_s * 1e3);
                slow.push(latency_ms / (o.total_s * 1e3));
            }
        }
        put(&format!("lbm-serve.build_ms_p50.{label}"), median(&build));
        put(&format!("lbm-serve.solo_ms_p50.{label}"), median(&solo));
        put(
            &format!("lbm-serve.queue_wait_ms_p50.{label}"),
            median(&wait),
        );
        if class == Priority::Interactive {
            put("lbm-serve.slowdown_p50.interactive", median(&slow));
        }
    }
    let demand: f64 = solos.iter().map(|o| o.total_s).sum();
    let wall: f64 = fleet.epochs.iter().map(|e| e.wall_s).sum();
    put(
        "lbm-serve.executor_busy_share",
        demand / (threads as f64 * wall),
    );
    put("host.calib_ms", fleet.quiet_calib_s() * 1e3);
    let done: Vec<&JobResult> = fleet
        .served
        .iter()
        .filter_map(|j| j.result.as_ref().ok())
        .collect();
    let evictions: u64 = done.iter().map(|r| r.evictions).sum();
    put(
        "lbm-serve.evictions_per_job",
        evictions as f64 / done.len().max(1) as f64,
    );
    let interactive = latencies(specs, fleet, Priority::Interactive, 0..specs.len());
    put(
        "lbm-serve.job_ms_p99_interactive",
        percentile(&interactive, 99.0),
    );
}

/// The rows a traced fleet run fills: the scheduler's event log replayed,
/// the program's spans counted, and what tracing cost the tenants.
pub fn traced_rows(first: &[JobSpec], untraced: &FleetRun, traced: &FleetRun, out: &mut Values) {
    let mut put = |name: &str, x: f64| set(out, name, x);
    let p50 = |fleet: &FleetRun| {
        let ms = latencies(first, fleet, Priority::Interactive, 0..first.len());
        percentile(&ms, 50.0)
    };
    put(
        "obs.traced_overhead_pct.serve",
        (p50(traced) / p50(untraced) - 1.0) * 100.0,
    );
    let steps: u64 = first.iter().map(|s| s.steps).sum();
    put("obs.spans_per_step", traced.hub_spans as f64 / steps as f64);
    let Some(hub) = &traced.hub else { return };
    let events = hub.events.snapshot();
    put("obs.dropped_events", hub.events.dropped() as f64);
    if let Ok(replayed) = obs::events::replay(&events) {
        let slices: u64 = replayed.values().map(|j| j.slices).sum();
        put(
            "lbm-serve.slices_per_job",
            slices as f64 / replayed.len().max(1) as f64,
        );
    }
    let widths: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::GroupForm)
        .filter_map(|e| e.args.iter().find(|(k, _)| k == "members"))
        .map(|(_, members)| members.split(',').count() as f64)
        .collect();
    if !widths.is_empty() {
        put(
            "lbm-serve.mean_group_width",
            widths.iter().sum::<f64>() / widths.len() as f64,
        );
    }
    let mut evicted_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut away_ms = Vec::new();
    for e in &events {
        match (e.kind, e.job) {
            (EventKind::Evict, Some(job)) => {
                evicted_at.insert(job, e.ts_us);
            }
            (EventKind::Resume, Some(job)) => {
                if let Some(t) = evicted_at.remove(&job) {
                    away_ms.push((e.ts_us - t) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    if !away_ms.is_empty() {
        put("lbm-serve.evict_resume_ms_p50", median(&away_ms));
    }
}

/// Human-readable summary of a fleet run.
pub fn describe(specs: &[JobSpec], fleet: &FleetRun) -> String {
    let mut out = String::new();
    for (class, label) in [
        (Priority::Interactive, "interactive"),
        (Priority::Batch, "batch"),
    ] {
        let ms = latencies(specs, fleet, class, 0..specs.len());
        if ms.is_empty() {
            continue;
        }
        let tail = pick_tail(ms.len()).unwrap_or(50.0);
        out.push_str(&format!(
            "  {label:<12} {:>5} jobs  p50 {:>8.3} ms  p{tail} {:>8.3} ms\n",
            ms.len(),
            percentile(&ms, 50.0),
            percentile(&ms, tail),
        ));
    }
    out.push_str(&format!(
        "  closed loop, {WINDOW} in flight, {} jobs in {} epochs, {:.2} s as measured\n",
        fleet.served.len(),
        fleet.epochs.len(),
        fleet.wall_s
    ));
    out.push_str(&format!(
        "  latencies at nominal speed: the calibration kernel took {:.3} ms (nominal {:.3})\n",
        fleet.quiet_calib_s() * 1e3,
        calib::NOMINAL_S * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn closed_loop_never_exceeds_its_window_and_loses_no_job() {
        for (n, window) in [(100, 8), (5, 8), (8, 8), (1, 1), (0, 8), (37, 3)] {
            let in_flight = Cell::new(0usize);
            let peak = Cell::new(0usize);
            let replies = closed_loop(
                0..n,
                window,
                |i| {
                    in_flight.set(in_flight.get() + 1);
                    peak.set(peak.get().max(in_flight.get()));
                    i * 10
                },
                |i, ticket| {
                    assert_eq!(ticket, i * 10, "waited on someone else's ticket");
                    in_flight.set(in_flight.get() - 1);
                    i
                },
            );
            assert_eq!(
                replies,
                (0..n).collect::<Vec<_>>(),
                "a job was lost or reordered"
            );
            assert_eq!(in_flight.get(), 0);
            assert_eq!(peak.get(), n.min(window));
        }
    }

    #[test]
    fn a_wrong_checksum_is_counted_as_a_failed_operation() {
        let specs = gen::job_mix(7, 1);
        let mut ops = Ops::default();
        let mut machine = Machine::new(1);
        let fleet = run_fleet(7, 1, 1, false, &mut machine, &mut ops);
        let mut solos = solo_lap(&specs, 1, &mut machine);
        check(&specs, &fleet, &solos, &mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.notes);
        let attempted = ops.attempted;
        // Force a mismatch: the oracle now disagrees with one served job.
        solos[1].checksum ^= 1;
        check(&specs, &fleet, &solos, &mut ops);
        assert_eq!(ops.failed, 1);
        assert!(ops.attempted > attempted);
        assert!(ops.notes[0].contains("job 1"), "{:?}", ops.notes);
    }
}

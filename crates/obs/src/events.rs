//! Structured fleet event log: a bounded ring of typed scheduler and
//! resilience events.
//!
//! Spans answer "where did the time go"; the event log answers "what did
//! the scheduler decide, in what order". Every admission, group formation,
//! slice, eviction, resume, hand-off, rollback, halo retry, cancellation,
//! failure, completion, and controller tuning decision is recorded as one
//! [`FleetEvent`] with a globally unique, strictly increasing sequence
//! number. Causality links back to the trace: each event carries the same
//! per-thread `tid` the [`crate::Tracer`] stamps on spans, so an event can
//! be placed inside the span that was open when it fired.
//!
//! The ring is bounded (default 65 536 events): when full, the oldest
//! events are dropped and counted, never blocking the scheduler. The JSON
//! export records both the drop count and the total, so a consumer can
//! tell a complete log from a truncated one. [`replay`] reconstructs
//! per-job decision sequences from a snapshot and validates them against
//! the job lifecycle state machine — the CI check that the log is a
//! faithful record, not a best-effort approximation.

use crate::json::Value;
use crate::trace::current_tid;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity, in events.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// The typed fleet event taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Job accepted by `submit` (quota charged, queued).
    Admit,
    /// A lockstep dispatch group was formed around a leader.
    GroupForm,
    /// One round-robin slice of a running job executed.
    Slice,
    /// Checkpoint-backed eviction of a running job.
    Evict,
    /// An evicted job was rebuilt and restored from its snapshot.
    Resume,
    /// Recovery rolled a resilient job back to its last checkpoint.
    Rollback,
    /// A transient halo-link failure was retried.
    HaloRetry,
    /// Job canceled (queued or running).
    Cancel,
    /// Job failed (panic isolation or unrecoverable fault).
    Fail,
    /// Job completed with a checksum.
    Complete,
    /// The SLO feedback controller adjusted `slice_steps`/`batch_max`.
    Tune,
    /// A post-build quota true-up pushed a tenant over its resident-byte
    /// limit (the job stays admitted; the breach is surfaced, not hidden).
    QuotaBreach,
    /// A busy group gave a running member to an idle executor, which runs
    /// it on as a new one-member group (args `from_group`, `to_group`).
    Handoff,
}

impl EventKind {
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::GroupForm => "group-form",
            EventKind::Slice => "slice",
            EventKind::Evict => "evict",
            EventKind::Resume => "resume",
            EventKind::Rollback => "rollback",
            EventKind::HaloRetry => "halo-retry",
            EventKind::Cancel => "cancel",
            EventKind::Fail => "fail",
            EventKind::Complete => "complete",
            EventKind::Tune => "tune",
            EventKind::QuotaBreach => "quota-breach",
            EventKind::Handoff => "handoff",
        }
    }
}

/// One recorded fleet event.
#[derive(Clone, Debug)]
pub struct FleetEvent {
    /// Strictly increasing global sequence number (assigned under the ring
    /// lock — the authoritative scheduler decision order).
    pub seq: u64,
    /// Microseconds since the log's creation.
    pub ts_us: u64,
    /// Same per-thread id the tracer stamps on spans (span-linked
    /// causality: the event happened inside whatever span was open on
    /// `tid` at `ts_us`).
    pub tid: u64,
    pub kind: EventKind,
    /// Subject job id, if the event concerns one job.
    pub job: Option<u64>,
    /// Owning tenant (empty for fleet-wide events like `Tune`).
    pub tenant: String,
    /// Free-form key/value detail (steps, group members, snapshot bytes…).
    pub args: Vec<(String, String)>,
}

struct Inner {
    ring: VecDeque<FleetEvent>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded, thread-safe ring of [`FleetEvent`]s.
pub struct EventLog {
    start: Instant,
    cap: usize,
    inner: Mutex<Inner>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// An empty log holding at most `cap` events (oldest dropped first).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "event ring needs capacity");
        EventLog {
            start: Instant::now(),
            cap,
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Record one event. `seq` and `ts_us` are assigned under the lock, so
    /// sequence order is the true global decision order.
    pub fn record(&self, kind: EventKind, job: Option<u64>, tenant: &str, args: &[(&str, String)]) {
        let tid = current_tid();
        let mut inner = self.inner.lock().unwrap();
        let ts_us = self.start.elapsed().as_micros() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FleetEvent {
            seq,
            ts_us,
            tid,
            kind,
            job,
            tenant: tenant.to_string(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Events currently in the ring, in sequence order.
    pub fn snapshot(&self) -> Vec<FleetEvent> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Total events ever recorded (including dropped ones).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-kind counts over the current ring contents, labeled.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for e in &inner.ring {
            *counts.entry(e.kind.label()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Export as JSON: `{"events": [...], "total": n, "dropped": n}`.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let events: Vec<Value> = inner
            .ring
            .iter()
            .map(|e| {
                let mut pairs = vec![
                    ("seq", Value::int(e.seq)),
                    ("ts_us", Value::int(e.ts_us)),
                    ("tid", Value::int(e.tid)),
                    ("kind", Value::str(e.kind.label())),
                ];
                if let Some(j) = e.job {
                    pairs.push(("job", Value::int(j)));
                }
                if !e.tenant.is_empty() {
                    pairs.push(("tenant", Value::str(&e.tenant)));
                }
                if !e.args.is_empty() {
                    pairs.push((
                        "args",
                        Value::Obj(
                            e.args
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::str(v)))
                                .collect(),
                        ),
                    ));
                }
                Value::obj(pairs)
            })
            .collect();
        Value::obj(vec![
            ("events", Value::Arr(events)),
            ("total", Value::int(inner.next_seq)),
            ("dropped", Value::int(inner.dropped)),
        ])
        .to_json()
    }

    /// Write the JSON export to a file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The reconstructed life of one job, replayed from the event log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobReplay {
    pub tenant: String,
    pub slices: u64,
    pub evictions: u64,
    pub resumes: u64,
    /// Times a busy group gave the job to an idle executor.
    pub handoffs: u64,
    pub rollbacks: u64,
    /// Terminal kind (`Complete`/`Cancel`/`Fail`), once seen.
    pub terminal: Option<EventKind>,
}

/// Replay a snapshot into per-job decision sequences, validating the job
/// lifecycle state machine along the way:
///
/// * sequence numbers strictly increase;
/// * a job's first event is `Admit`, nothing precedes it and no second
///   `Admit` follows;
/// * every `Resume` is preceded by one more `Evict` than prior `Resume`s
///   (evict/resume strictly alternate per job);
/// * a `Handoff` moves a running job, so it falls between the job's admit
///   and its terminal event and never while the job is evicted;
/// * at most one terminal event (`Complete`/`Cancel`/`Fail`) per job, and
///   nothing follows it.
///
/// Returns the per-job replays keyed by job id, or a description of the
/// first inconsistency — an inconsistent log means the ring dropped events
/// or the scheduler recorded a decision it never made.
pub fn replay(events: &[FleetEvent]) -> Result<std::collections::BTreeMap<u64, JobReplay>, String> {
    let mut jobs: std::collections::BTreeMap<u64, JobReplay> = Default::default();
    let mut last_seq: Option<u64> = None;
    for e in events {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                return Err(format!("seq not strictly increasing at {}", e.seq));
            }
        }
        last_seq = Some(e.seq);
        let Some(id) = e.job else { continue };
        let known = jobs.contains_key(&id);
        let rec = jobs.entry(id).or_default();
        match e.kind {
            EventKind::Admit => {
                if known {
                    return Err(format!("job {id}: second admit at seq {}", e.seq));
                }
                rec.tenant = e.tenant.clone();
            }
            _ if !known => {
                return Err(format!(
                    "job {id}: {} before admit at seq {}",
                    e.kind.label(),
                    e.seq
                ));
            }
            _ if rec.terminal.is_some() => {
                return Err(format!(
                    "job {id}: {} after terminal at seq {}",
                    e.kind.label(),
                    e.seq
                ));
            }
            EventKind::Slice => rec.slices += 1,
            EventKind::Evict => {
                if rec.evictions != rec.resumes {
                    return Err(format!("job {id}: evict while evicted at seq {}", e.seq));
                }
                rec.evictions += 1;
            }
            EventKind::Resume => {
                if rec.evictions != rec.resumes + 1 {
                    return Err(format!("job {id}: resume without evict at seq {}", e.seq));
                }
                rec.resumes += 1;
            }
            EventKind::Handoff => {
                if rec.evictions != rec.resumes {
                    return Err(format!("job {id}: handoff while evicted at seq {}", e.seq));
                }
                rec.handoffs += 1;
            }
            EventKind::Rollback => rec.rollbacks += 1,
            EventKind::HaloRetry
            | EventKind::GroupForm
            | EventKind::Tune
            | EventKind::QuotaBreach => {}
            EventKind::Complete | EventKind::Cancel | EventKind::Fail => {
                rec.terminal = Some(e.kind);
            }
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(log: &EventLog, kind: EventKind, job: u64) {
        log.record(kind, Some(job), "acme", &[]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.record(EventKind::Slice, Some(i), "t", &[]);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 5);
        assert_eq!(log.dropped(), 2);
        let snap = log.snapshot();
        assert_eq!(snap[0].seq, 2, "oldest two dropped");
        assert_eq!(snap[2].seq, 4);
    }

    #[test]
    fn json_export_parses_and_carries_counts() {
        let log = EventLog::new(16);
        log.record(
            EventKind::Admit,
            Some(1),
            "acme",
            &[("steps", "12".to_string())],
        );
        log.record(
            EventKind::Tune,
            None,
            "",
            &[("slice_steps", "4".to_string())],
        );
        let v = json::parse(&log.to_json()).unwrap();
        let events = v.get("events").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("admit"));
        assert_eq!(events[0].get("job").unwrap().as_f64(), Some(1.0));
        assert!(
            events[1].get("job").is_none(),
            "fleet-wide event has no job"
        );
        assert_eq!(v.get("total").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("dropped").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn replay_accepts_a_lawful_life() {
        let log = EventLog::new(64);
        ev(&log, EventKind::Admit, 7);
        ev(&log, EventKind::Slice, 7);
        ev(&log, EventKind::Evict, 7);
        ev(&log, EventKind::Resume, 7);
        ev(&log, EventKind::Handoff, 7);
        ev(&log, EventKind::Slice, 7);
        ev(&log, EventKind::Complete, 7);
        let jobs = replay(&log.snapshot()).unwrap();
        let j = &jobs[&7];
        assert_eq!(j.slices, 2);
        assert_eq!(j.handoffs, 1);
        assert_eq!(j.evictions, 1);
        assert_eq!(j.resumes, 1);
        assert_eq!(j.terminal, Some(EventKind::Complete));
        assert_eq!(j.tenant, "acme");
    }

    #[test]
    fn replay_rejects_lifecycle_violations() {
        // Slice before admit.
        let log = EventLog::new(64);
        ev(&log, EventKind::Slice, 1);
        assert!(replay(&log.snapshot()).is_err());

        // Resume without a pending evict.
        let log = EventLog::new(64);
        ev(&log, EventKind::Admit, 1);
        ev(&log, EventKind::Resume, 1);
        assert!(replay(&log.snapshot()).is_err());

        // Activity after a terminal event.
        let log = EventLog::new(64);
        ev(&log, EventKind::Admit, 1);
        ev(&log, EventKind::Complete, 1);
        ev(&log, EventKind::Slice, 1);
        assert!(replay(&log.snapshot()).is_err());

        // A hand-off before admit, after the terminal event, or while the
        // job sits evicted in the queue.
        let log = EventLog::new(64);
        ev(&log, EventKind::Handoff, 1);
        assert!(replay(&log.snapshot()).is_err());
        let log = EventLog::new(64);
        ev(&log, EventKind::Admit, 1);
        ev(&log, EventKind::Cancel, 1);
        ev(&log, EventKind::Handoff, 1);
        assert!(replay(&log.snapshot()).is_err());
        let log = EventLog::new(64);
        ev(&log, EventKind::Admit, 1);
        ev(&log, EventKind::Evict, 1);
        ev(&log, EventKind::Handoff, 1);
        assert!(replay(&log.snapshot()).is_err());
    }
}

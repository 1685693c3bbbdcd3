//! Service-level objectives: rolling latency quantiles, burn-rate
//! counters, and a deterministic feedback controller over the scheduler's
//! tunables.
//!
//! The controller is AIMD over two knobs — `slice_steps` (preemption
//! granularity) and `batch_max` (group width):
//!
//! * **Multiplicative decrease** — an interactive completion over the p99
//!   target is a *breach*. If the cooldown has expired, `slice_steps`
//!   halves and `batch_max` shrinks by one (both bounds-clamped). Shorter
//!   slices reach preemption points sooner; narrower groups hold fewer
//!   batch jobs in front of waiting interactive work.
//! * **Additive increase** — after `increase_after` consecutive healthy
//!   interactive completions, `slice_steps` grows by one, recovering batch
//!   throughput when latency has headroom.
//!
//! Every decision is a pure function of the observation sequence (no
//! clocks, no randomness), so a replayed workload reproduces the exact
//! tuning history. Quantiles come from the bounded-memory
//! [`StreamingQuantile`] sketch in `obs`; burn rate is the fraction of
//! interactive completions that breached the target.

use crate::spec::Priority;
use obs::json::Value;
use obs::StreamingQuantile;

/// Bounds and targets for the feedback controller.
#[derive(Clone, Debug)]
pub struct SloPolicy {
    /// Interactive p99 latency target (milliseconds).
    pub interactive_p99_target_ms: f64,
    /// Lower clamp for `slice_steps` (must be ≥ 1).
    pub min_slice_steps: u64,
    /// Upper clamp for `slice_steps`.
    pub max_slice_steps: u64,
    /// Lower clamp for `batch_max` (must be ≥ 1).
    pub min_batch_max: usize,
    /// Upper clamp for `batch_max`.
    pub max_batch_max: usize,
    /// Interactive observations that must pass between consecutive
    /// decrease decisions (prevents one latency spike from collapsing the
    /// knobs to their floors).
    pub cooldown: u64,
    /// Consecutive healthy interactive completions before one additive
    /// increase step.
    pub increase_after: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            interactive_p99_target_ms: 25.0,
            min_slice_steps: 1,
            max_slice_steps: 64,
            min_batch_max: 1,
            max_batch_max: 8,
            cooldown: 4,
            increase_after: 32,
        }
    }
}

impl SloPolicy {
    /// Clamp a starting configuration into the policy's bounds.
    pub fn clamp(&self, slice_steps: u64, batch_max: usize) -> (u64, usize) {
        (
            slice_steps.clamp(self.min_slice_steps, self.max_slice_steps),
            batch_max.clamp(self.min_batch_max, self.max_batch_max),
        )
    }
}

/// One knob adjustment emitted by [`SloController::observe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneDecision {
    /// New round-robin slice length.
    pub slice_steps: u64,
    /// New lockstep group width.
    pub batch_max: usize,
    /// `"breach"` (multiplicative decrease) or `"headroom"` (additive
    /// increase).
    pub reason: &'static str,
}

/// Per-class latency statistics.
struct ClassStats {
    quantiles: StreamingQuantile,
    total: u64,
    breaches: u64,
}

impl ClassStats {
    fn new() -> Self {
        ClassStats {
            quantiles: StreamingQuantile::new(obs::metrics::DEFAULT_QUANTILE_CAPACITY),
            total: 0,
            breaches: 0,
        }
    }

    fn burn_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.breaches as f64 / self.total as f64
        }
    }

    fn summary(&self) -> Value {
        let q = |p: f64| Value::num(self.quantiles.quantile(p).unwrap_or(0.0));
        Value::obj(vec![
            ("count", Value::int(self.total)),
            ("breaches", Value::int(self.breaches)),
            ("burn_rate", Value::num(self.burn_rate())),
            ("p50_ms", q(0.50)),
            ("p90_ms", q(0.90)),
            ("p99_ms", q(0.99)),
            (
                "mean_ms",
                Value::num(if self.total == 0 {
                    0.0
                } else {
                    self.quantiles.mean()
                }),
            ),
            ("max_ms", Value::num(self.quantiles.max().unwrap_or(0.0))),
        ])
    }
}

/// The streaming SLO tracker + feedback controller. One per [`crate::Serve`];
/// the scheduler feeds it every completion latency under its state lock, so
/// the observation order — and therefore the whole tuning history — is the
/// scheduler's own decision order.
pub struct SloController {
    policy: SloPolicy,
    interactive: ClassStats,
    batch: ClassStats,
    slice_steps: u64,
    batch_max: usize,
    /// Interactive observations since the last decision (starts at
    /// `cooldown` so the first breach can act immediately).
    since_tune: u64,
    healthy_streak: u64,
    tunes: u64,
}

impl SloController {
    /// Start from the scheduler's static configuration (bounds-clamped).
    pub fn new(policy: SloPolicy, slice_steps: u64, batch_max: usize) -> Self {
        let (slice_steps, batch_max) = policy.clamp(slice_steps, batch_max);
        SloController {
            since_tune: policy.cooldown,
            policy,
            interactive: ClassStats::new(),
            batch: ClassStats::new(),
            slice_steps,
            batch_max,
            healthy_streak: 0,
            tunes: 0,
        }
    }

    /// Record one completion latency. Interactive observations may emit a
    /// [`TuneDecision`]; batch observations only feed the batch quantiles.
    pub fn observe(&mut self, class: Priority, latency_ms: f64) -> Option<TuneDecision> {
        let stats = match class {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        };
        stats.total += 1;
        stats.quantiles.observe(latency_ms);
        let breach = latency_ms > self.policy.interactive_p99_target_ms;
        if breach {
            stats.breaches += 1;
        }
        if class != Priority::Interactive {
            return None;
        }
        self.since_tune += 1;
        if breach {
            self.healthy_streak = 0;
            let at_floor = self.slice_steps == self.policy.min_slice_steps
                && self.batch_max == self.policy.min_batch_max;
            if self.since_tune > self.policy.cooldown && !at_floor {
                self.slice_steps = (self.slice_steps / 2).max(self.policy.min_slice_steps);
                self.batch_max = self
                    .batch_max
                    .saturating_sub(1)
                    .max(self.policy.min_batch_max);
                return Some(self.decide("breach"));
            }
        } else {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.policy.increase_after
                && self.slice_steps < self.policy.max_slice_steps
            {
                self.slice_steps += 1;
                return Some(self.decide("headroom"));
            }
        }
        None
    }

    fn decide(&mut self, reason: &'static str) -> TuneDecision {
        self.since_tune = 0;
        self.healthy_streak = 0;
        self.tunes += 1;
        TuneDecision {
            slice_steps: self.slice_steps,
            batch_max: self.batch_max,
            reason,
        }
    }

    /// Current knob settings.
    pub fn tuned(&self) -> (u64, usize) {
        (self.slice_steps, self.batch_max)
    }

    /// Decisions emitted so far.
    pub fn tunes(&self) -> u64 {
        self.tunes
    }

    /// Interactive burn rate (fraction of completions over target).
    pub fn interactive_burn_rate(&self) -> f64 {
        self.interactive.burn_rate()
    }

    /// JSON summary for bench records: per-class quantiles and burn rates
    /// plus the controller's final state.
    pub fn summary(&self) -> Value {
        Value::obj(vec![
            (
                "target_p99_ms",
                Value::num(self.policy.interactive_p99_target_ms),
            ),
            ("interactive", self.interactive.summary()),
            ("batch", self.batch.summary()),
            ("tunes", Value::int(self.tunes)),
            ("slice_steps", Value::int(self.slice_steps)),
            ("batch_max", Value::int(self.batch_max as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy {
            interactive_p99_target_ms: 10.0,
            min_slice_steps: 1,
            max_slice_steps: 64,
            min_batch_max: 1,
            max_batch_max: 8,
            cooldown: 2,
            increase_after: 4,
        }
    }

    /// The first breach past cooldown halves the slice and narrows the
    /// group; repeated breaches walk both knobs to their floors and stop.
    #[test]
    fn breaches_decrease_multiplicatively_within_bounds() {
        let mut c = SloController::new(policy(), 64, 8);
        let mut decisions = Vec::new();
        for _ in 0..40 {
            if let Some(d) = c.observe(Priority::Interactive, 50.0) {
                decisions.push(d);
            }
        }
        let slices: Vec<u64> = decisions.iter().map(|d| d.slice_steps).collect();
        assert_eq!(slices[0], 32, "first decision halves 64");
        assert!(slices.windows(2).all(|w| w[1] < w[0] || w[1] == 1));
        let (s, b) = c.tuned();
        assert_eq!((s, b), (1, 1), "floors reached");
        assert!(decisions.iter().all(|d| d.reason == "breach"));
        // At the floor the controller stops emitting decisions entirely.
        assert!(c.observe(Priority::Interactive, 50.0).is_none());
        assert!((c.interactive_burn_rate() - 1.0).abs() < 1e-12);
    }

    /// Healthy completions accumulate into additive increases, bounded
    /// above, and a single breach resets the streak.
    #[test]
    fn headroom_increases_additively_and_breach_resets_streak() {
        let mut c = SloController::new(policy(), 4, 4);
        for _ in 0..3 {
            assert!(c.observe(Priority::Interactive, 1.0).is_none());
        }
        let d = c.observe(Priority::Interactive, 1.0).expect("4th healthy");
        assert_eq!((d.slice_steps, d.reason), (5, "headroom"));
        // Streak broken at 3: the breach itself tunes down instead.
        for _ in 0..3 {
            assert!(c.observe(Priority::Interactive, 1.0).is_none());
        }
        let d = c
            .observe(Priority::Interactive, 99.0)
            .expect("breach tunes");
        assert_eq!((d.slice_steps, d.batch_max, d.reason), (2, 3, "breach"));
    }

    /// Batch observations feed quantiles but never tune, the controller's
    /// history is a pure function of the observation order, and the
    /// summary `reproduce slo` records has ordered quantiles and burn rates
    /// in [0, 1] for both classes.
    #[test]
    fn batch_never_tunes_and_replay_is_deterministic() {
        let run = |seq: &[(Priority, f64)]| {
            let mut c = SloController::new(policy(), 8, 4);
            let ds: Vec<_> = seq.iter().filter_map(|&(p, l)| c.observe(p, l)).collect();
            let summary = c.summary();
            for k in ["target_p99_ms", "tunes", "slice_steps", "batch_max"] {
                assert!(summary.get(k).and_then(|v| v.as_f64()).is_some(), "no {k}");
            }
            for class in ["interactive", "batch"] {
                let keys = [
                    "p50_ms",
                    "p90_ms",
                    "p99_ms",
                    "burn_rate",
                    "count",
                    "breaches",
                    "mean_ms",
                ];
                let [p50, p90, p99, burn, ..] = keys.map(|k| {
                    let v = summary.get(class).and_then(|c| c.get(k)?.as_f64());
                    v.unwrap_or_else(|| panic!("summary has no {class}.{k}"))
                });
                assert!(p50 <= p90 && p90 <= p99, "{class}: {p50} {p90} {p99}");
                assert!((0.0..=1.0).contains(&burn), "{class} burn rate {burn}");
            }
            (ds, c.tuned(), c.tunes())
        };
        let seq: Vec<(Priority, f64)> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    (Priority::Batch, 500.0)
                } else {
                    (Priority::Interactive, if i % 7 == 0 { 30.0 } else { 2.0 })
                }
            })
            .collect();
        let (d1, t1, n1) = run(&seq);
        let (d2, t2, n2) = run(&seq);
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
        assert_eq!(n1, n2);
        let only_batch = [(Priority::Batch, 500.0); 50];
        let (ds, tuned, _) = run(&only_batch);
        assert!(ds.is_empty(), "batch breaches must not tune");
        assert_eq!(tuned, (8, 4));
    }
}

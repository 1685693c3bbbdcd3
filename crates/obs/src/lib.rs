//! Observability for the GPU substrate and the LBM solvers.
//!
//! Three pillars, one hub:
//!
//! * [`Tracer`] — span-based tracing (step → kernel launch, one span per
//!   launch, and halo exchange) exporting Chrome `trace_event` JSON that
//!   loads in `chrome://tracing` / Perfetto;
//! * [`MetricsRegistry`] — counters, gauges, and histograms labeled by
//!   kernel/pattern/device, published by `gpu-sim`'s exec and
//!   interconnect layers and the LBM drivers;
//! * [`PhysicsMonitor`] — per-step conservation and divergence guards
//!   (total mass, total momentum, max |u|, NaN check) with a sampling
//!   cadence so hot paths stay hot.
//!
//! The fleet plane adds one more: [`EventLog`] — a bounded ring of typed
//! scheduler/resilience events with span-linked causality.
//! [`StreamingQuantile`] backs the rolling SLO latency estimators. A job's
//! identity is stated once, on the scheduler's `serve` spans; the driver,
//! halo and kernel spans a slice runs nest under that span on the
//! executor's per-thread stack and carry no job args of their own.
//!
//! [`Obs`] bundles the tracer, registry, and event log behind an `Arc` so
//! one handle threads through `Gpu`, `MultiGpu`, the solver drivers, and
//! the serve scheduler. [`BenchRecord`]
//! renders machine-readable `BENCH_<section>.json` perf records, and the
//! in-crate [`json`] module gives the std-only workspace a writer plus a
//! strict parser. The parser's callers are tests: each exporter's own
//! tests parse what it emits. `reproduce` asserts each record's facts on
//! the in-memory values before it writes the file.
//!
//! This crate is deliberately dependency-free (std only) and sits below
//! `gpu-sim` in the crate graph.

pub mod events;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod record;
pub mod trace;

pub use events::{EventKind, EventLog, FleetEvent};
pub use metrics::{Histogram, Metric, MetricKey, MetricsRegistry, StreamingQuantile};
pub use monitor::{MonitorConfig, MonitorSample, PhysicsMonitor};
pub use record::{BenchRecord, BenchRow};
pub use trace::{BalanceGuard, Span, TraceEvent, Tracer};

/// The observability hub: a tracer, a metrics registry, and the fleet
/// event log, shared via `Arc<Obs>` across devices, links, drivers, and
/// the serve scheduler.
#[derive(Default)]
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: MetricsRegistry,
    pub events: EventLog,
}

impl Obs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: a fresh hub behind an `Arc`.
    pub fn shared() -> std::sync::Arc<Obs> {
        std::sync::Arc::new(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_shares_across_threads() {
        let obs = Obs::shared();
        std::thread::scope(|s| {
            for i in 0..3 {
                let obs = obs.clone();
                s.spawn(move || {
                    let _sp = obs.tracer.span("w", "work");
                    obs.metrics.counter_add("n", &[("t", &i.to_string())], 1);
                });
            }
        });
        assert_eq!(obs.tracer.len(), 6);
        assert_eq!(obs.metrics.len(), 3);
    }
}

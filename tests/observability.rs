//! Integration checks on the observability layer: the Chrome trace export
//! must be loadable (well-formed, balanced, monotonic) even with concurrent
//! block execution underneath, the metrics registry must carry the
//! substrate's byte-exact tallies end to end, and the physics monitors must
//! catch real violations without perturbing the solvers.

use lbm_mr::obs::json;
use lbm_mr::prelude::*;

fn shear(_x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
    (1.0, [0.04 * (y as f64 * 0.37).sin(), 0.0, 0.0])
}

/// Drive a sharded run (two device threads with two launch threads each,
/// lockstep column kernels, halo exchange) with the tracer attached, and
/// return the hub.
fn traced_multi_run() -> std::sync::Arc<Obs> {
    let hub = Obs::shared();
    let geom = Geometry::walls_y_periodic_x(24, 10);
    let mut sim: MultiMrSim2D<D2Q9> =
        MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 2)
            .with_cpu_threads(4)
            .with_obs(hub.clone())
            .with_monitor(MonitorConfig {
                cadence: 1,
                ..Default::default()
            });
    sim.init_with(shear);
    sim.run(5);
    let mon = sim.monitor().unwrap();
    assert!(mon.is_ok(), "{:?}", mon.violations());
    hub
}

/// The exported trace parses as strict JSON and has the trace_event shape
/// Perfetto expects: a traceEvents array of B/E/i records.
#[test]
fn chrome_trace_is_well_formed_json() {
    let hub = traced_multi_run();
    let v = json::parse(&hub.tracer.to_chrome_json()).expect("trace must parse");
    let events = v.get("traceEvents").expect("traceEvents key").items();
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "B" | "E" | "i"), "unexpected phase {ph}");
        assert!(e.get("ts").unwrap().as_f64().is_some());
        assert!(e.get("tid").unwrap().as_f64().is_some());
        if ph != "E" {
            assert!(e.get("name").unwrap().as_str().is_some());
        }
    }
}

/// Every `E` closes a `B` on the same thread, and nothing is left open:
/// the span stack discipline survives concurrent block execution.
#[test]
fn chrome_trace_spans_are_balanced_and_nested() {
    let hub = traced_multi_run();
    let v = json::parse(&hub.tracer.to_chrome_json()).unwrap();
    let mut open: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for e in v.get("traceEvents").unwrap().items() {
        let tid = e.get("tid").unwrap().as_f64().unwrap() as u64;
        match e.get("ph").unwrap().as_str().unwrap() {
            "B" => *open.entry(tid).or_insert(0) += 1,
            "E" => {
                let n = open.get_mut(&tid).expect("E without B");
                assert!(*n > 0, "E without matching B on tid {tid}");
                *n -= 1;
            }
            _ => {}
        }
    }
    assert!(open.values().all(|&n| n == 0), "unclosed spans: {open:?}");
}

/// Timestamps are globally monotonic (taken under the tracer's lock), so
/// the exported trace never renders out of order.
#[test]
fn chrome_trace_timestamps_are_monotonic() {
    let hub = traced_multi_run();
    let events = hub.tracer.events();
    assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    // Driver-level nesting: the first step span opens before the first
    // kernel span, which closes before the step's end.
    let step_b = events
        .iter()
        .position(|e| e.ph == 'B' && e.name == "step")
        .unwrap();
    let kernel_b = events
        .iter()
        .position(|e| e.ph == 'B' && e.cat == "kernel")
        .unwrap();
    assert!(step_b < kernel_b, "step span must open before the kernel's");
}

/// Launch metrics flow from the executor through the registry with kernel
/// and device labels, and link counters carry the interconnect traffic.
#[test]
fn metrics_carry_launch_and_link_traffic() {
    let hub = traced_multi_run();
    let labels = [("kernel", "mr2d-p"), ("device", "NVIDIA V100")];
    let launches = hub.metrics.counter("launches", &labels).unwrap();
    assert!(launches > 0);
    assert!(hub.metrics.counter("bytes_read", &labels).unwrap() > 0);
    let link = [("link", "NVLink2[0->1]")];
    assert!(hub.metrics.counter("link_transfer_bytes", &link).unwrap() > 0);
    assert_eq!(
        hub.metrics.counter("link_transfer_count", &link),
        Some(5 * 2) // 5 steps × 2 cuts in each direction of the 2-shard ring
    );
    // Monitor gauges are published under the driver's pattern label.
    assert!(hub
        .metrics
        .gauge("monitor_mass", &[("pattern", "multi-mr2d")])
        .is_some());
}

/// One launch, one record: the hub's output per step does not grow with
/// the walk axis. A 128-row MR walk runs eight times the lockstep phases of
/// a 16-row one, yet both record the same tracer events per step and the
/// same metric series.
#[test]
fn hub_output_does_not_grow_with_the_walk_axis() {
    const STEPS: usize = 3;
    let record = |ny: usize| {
        let hub = Obs::shared();
        let geom = Geometry::walls_y_periodic_x(32, ny);
        let mut sim: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_obs(hub.clone());
        sim.init_with(shear);
        sim.run(STEPS);
        assert_eq!(hub.tracer.open_spans_total(), 0);
        let events = hub.tracer.len();
        assert_eq!(events % STEPS, 0, "ny = {ny}: {events} events");
        (events / STEPS, hub.metrics.snapshot().len())
    };
    let (short, long) = (record(16), record(128));
    assert_eq!(
        short, long,
        "(events per step, metric series) at ny = 16 vs ny = 128"
    );
}

/// The monitor flags NaN and mass drift, and a clean run stays clean.
#[test]
fn monitor_catches_violations() {
    let mut m = PhysicsMonitor::new(MonitorConfig {
        cadence: 1,
        ..Default::default()
    });
    m.observe(1, &[1.0, 1.0], &[[0.0; 3], [0.1, 0.0, 0.0]]);
    assert!(m.is_ok());
    m.observe(2, &[1.0, f64::NAN], &[[0.0; 3], [0.0; 3]]);
    assert!(!m.is_ok(), "NaN must be a violation");

    let mut drift = PhysicsMonitor::new(MonitorConfig {
        cadence: 1,
        ..Default::default()
    });
    drift.observe(1, &[1.0, 1.0], &[[0.0; 3]; 2]);
    drift.observe(2, &[1.0, 1.5], &[[0.0; 3]; 2]);
    assert!(!drift.is_ok(), "mass drift must be a violation");
}

/// The monitor does not perturb the solution: a monitored run's fields are
/// bitwise identical to an unmonitored one.
#[test]
fn monitor_is_nonintrusive() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut plain: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    plain.init_with(shear);
    plain.run(6);
    let mut monitored: MrSim2D<D2Q9> =
        MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8).with_monitor(
            MonitorConfig {
                cadence: 2,
                ..Default::default()
            },
        );
    monitored.init_with(shear);
    monitored.run(6);
    assert_eq!(monitored.monitor().unwrap().samples().len(), 3);
    for (a, b) in plain
        .velocity_field()
        .iter()
        .zip(&monitored.velocity_field())
    {
        for k in 0..3 {
            assert_eq!(a[k], b[k], "monitoring changed the physics");
        }
    }
}

/// Four shards stepped by a team of device threads: every kernel span
/// names its device (`dev` 0..3 — the `device` arg is the same model name
/// on all four), no thread is left with an open span, and the per-device
/// counters split the launches the shared `launches` counter sums.
#[test]
fn sharded_kernel_spans_name_their_device() {
    let hub = Obs::shared();
    let geom = Geometry::walls_y_periodic_x(24, 10);
    let mut sim: MultiMrSim2D<D2Q9> =
        MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
            .with_cpu_threads(4)
            .with_obs(hub.clone());
    sim.init_with(shear);
    sim.run(5);
    assert_eq!(hub.tracer.open_spans_total(), 0);
    let events = hub.tracer.events();
    let kernels: Vec<_> = events
        .iter()
        .filter(|e| e.ph == 'B' && e.cat == "kernel")
        .collect();
    let dev_of = |e: &&lbm_mr::obs::TraceEvent| -> usize {
        let arg = e.args.iter().find(|(k, _)| k == "dev");
        arg.expect("kernel span without a dev arg")
            .1
            .parse()
            .unwrap()
    };
    let labels = [("kernel", "mr2d-p"), ("device", "NVIDIA V100")];
    let total = hub.metrics.counter("launches", &labels).unwrap();
    assert_eq!(kernels.len() as u64, total);
    let mut split = 0;
    for dev in 0..4 {
        let spans = kernels.iter().filter(|e| dev_of(e) == dev).count() as u64;
        let d = dev.to_string();
        let dlabels = [("device", "NVIDIA V100"), ("dev", d.as_str())];
        assert_eq!(
            hub.metrics.counter("device_launches", &dlabels),
            Some(spans)
        );
        assert!(spans > 0, "device {dev} launched nothing");
        split += spans;
    }
    assert_eq!(split, total);
}

/// One monitor path: a sharded driver reports non-finite nodes through the
/// same `monitor/nonfinite` instant (step + count) as its single-device
/// twin, and flags the violation.
#[test]
fn sharded_monitor_emits_the_nonfinite_instant() {
    let poisoned = |x: usize, y: usize, _z: usize| {
        let rho = if (x, y) == (5, 4) { f64::NAN } else { 1.0 };
        (rho, [0.0; 3])
    };
    let geom = Geometry::walls_y_periodic_x(24, 10);
    let cfg = MonitorConfig {
        cadence: 1,
        ..Default::default()
    };
    let nonfinite_instants = |hub: &Obs| -> Vec<(String, String)> {
        hub.tracer
            .events()
            .iter()
            .filter(|e| e.ph == 'i' && e.cat == "monitor" && e.name == "nonfinite")
            .map(|e| {
                let arg = |k: &str| e.args.iter().find(|a| a.0 == k).unwrap().1.clone();
                (arg("step"), arg("count"))
            })
            .collect()
    };

    let sharded_hub = Obs::shared();
    let mut sharded: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
        2,
    )
    .with_cpu_threads(2)
    .with_obs(sharded_hub.clone())
    .with_monitor(cfg);
    sharded.init_with(poisoned);
    sharded.run(2);
    assert!(!sharded.monitor().unwrap().is_ok(), "NaN went unnoticed");

    let solo_hub = Obs::shared();
    let mut solo: MrSim2D<D2Q9> =
        MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
            .with_cpu_threads(2)
            .with_obs(solo_hub.clone())
            .with_monitor(cfg);
    solo.init_with(poisoned);
    solo.run(2);

    let instants = nonfinite_instants(&sharded_hub);
    assert_eq!(instants.len(), 2, "one instant per sampled step");
    assert_eq!(instants[0].0, "1");
    assert!(instants[0].1.parse::<u64>().unwrap() > 0);
    assert_eq!(instants, nonfinite_instants(&solo_hub));
}

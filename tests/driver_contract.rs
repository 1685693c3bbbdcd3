//! One contract, every driver: the behaviour the `lbm_gpu::driver` chassis
//! promises on one device and on a ring, checked by a single generic routine
//! over a table of all twelve drivers × {D2Q9, D3Q19 where defined} plus
//! the twist / double-buffer / two-row-shift storage variants.
//!
//! For each row:
//!
//! 1. stepping through `Box<dyn Simulation + Send>` ≡ the inherent `run`
//!    (FNV, `steps`, `fluid_nodes`, `footprint_bytes`);
//! 2. `measured_bpf() == 0.0` before the first step;
//! 3. checkpoint at step k → restore into a fresh sim → continue ≡ the
//!    uninterrupted run (FNV and byte ledger), and the blob's head —
//!    flavor string, guards, `t`, selector, ledger words — is where it has
//!    always been (the LBCK formats are frozen);
//! 4. `restore` is all-or-nothing and refuses surplus bytes: a valid blob
//!    re-framed with 8 payload bytes appended or removed is an `Err` that
//!    leaves `steps`, ledger, FNV and a fresh `checkpoint()` untouched;
//! 5. `run(n)` flushes an off-cadence monitor sample and publishes it under
//!    the driver's pattern label;
//! 6. `set_obs` after construction yields `driver/step` spans carrying `t`
//!    and no job args (a job's identity is on the scheduler's span), with
//!    kernel (and, when sharded, `halo-exchange`) spans nested under them.

use gpu_sim::memory::Tally;
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use lbm_core::collision::{Bgk, Projective};
use lbm_core::geometry::Geometry;
use lbm_core::io::{fnv1a, CheckpointError};
use lbm_core::{Simulation, StepError};
use lbm_gpu::multi::{
    HaloRetryPolicy, MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiSparseStSim,
    MultiStSim, OverlapStats, Ring,
};
use lbm_gpu::{
    AaStSim, DriverBody, MrScheme, MrSim2D, MrSim3D, Sim, SparseMrSim2D, SparseMrSim3D, StSim,
    StSparseSim,
};
use lbm_lattice::{D2Q9, D3Q19};
use obs::{Metric, MonitorConfig, Obs, PhysicsMonitor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the contract needs beyond [`Simulation`].
trait Host: Simulation + Send {
    fn run_n(&mut self, n: usize);
    fn label(&self) -> &'static str;
    fn physics_monitor(&self) -> Option<&PhysicsMonitor>;
    /// `Some` on single-device hosts.
    fn bpf(&self) -> Option<f64>;
    /// `Some` on sharded hosts: bytes the interconnect carried.
    fn link_bytes(&self) -> Option<u64>;
    /// The byte-exact accounting a checkpoint carries: the traffic tally of
    /// a single-device host, the overlap-timing words of a sharded one.
    fn ledger(&self) -> Vec<u64>;
}

/// The two answers only one kind of device has, read off the host.
trait Probe: Sized {
    fn bpf<B: DriverBody<Dev = Self>>(sim: &Sim<B>) -> Option<f64>;
    fn link_bytes<B: DriverBody<Dev = Self>>(sim: &Sim<B>) -> Option<u64>;
}

impl Probe for Gpu {
    fn bpf<B: DriverBody<Dev = Gpu>>(sim: &Sim<B>) -> Option<f64> {
        Some(sim.measured_bpf())
    }
    fn link_bytes<B: DriverBody<Dev = Gpu>>(_: &Sim<B>) -> Option<u64> {
        None
    }
}

impl Probe for Ring {
    fn bpf<B: DriverBody<Dev = Ring>>(_: &Sim<B>) -> Option<f64> {
        None
    }
    fn link_bytes<B: DriverBody<Dev = Ring>>(sim: &Sim<B>) -> Option<u64> {
        Some(sim.interconnect().total_link_bytes())
    }
}

impl<B: DriverBody + Send> Host for Sim<B>
where
    B::Dev: Probe,
{
    fn run_n(&mut self, n: usize) {
        self.run(n)
    }
    fn label(&self) -> &'static str {
        self.pattern_label()
    }
    fn physics_monitor(&self) -> Option<&PhysicsMonitor> {
        self.monitor()
    }
    fn bpf(&self) -> Option<f64> {
        B::Dev::bpf(self)
    }
    fn link_bytes(&self) -> Option<u64> {
        B::Dev::link_bytes(self)
    }
    fn ledger(&self) -> Vec<u64> {
        Sim::ledger(self)
    }
}

/// One table row: a driver configuration and what its trace looks like.
struct Row {
    name: &'static str,
    /// Build the driver, initial field applied, optionally monitored.
    mk: Box<dyn Fn(Option<MonitorConfig>) -> Box<dyn Host>>,
    /// `pattern` label of its monitor gauges.
    label: &'static str,
    /// Name of the bulk kernel span of its first step.
    kernel: &'static str,
    /// Lockstep kernels run more than one phase inside their one span.
    lockstep: bool,
    /// `halo-exchange` spans over [`STEPS`] steps (0 on one device).
    halo_spans: usize,
    /// LBCK flavor string of a blob cut at step [`CUT`].
    flavor: &'static str,
    /// Payload words ahead of the step counter: the configuration guards.
    guards: &'static [u64],
    /// Word between the step counter and the ledger (`mr2d` blobs only).
    selector: Option<u64>,
}

impl Row {
    /// The frozen head of this driver's blobs.
    fn blob(mut self, flavor: &'static str, guards: &'static [u64]) -> Row {
        (self.flavor, self.guards) = (flavor, guards);
        self
    }

    fn selector(mut self, word: u64) -> Row {
        self.selector = Some(word);
        self
    }
}

const STEPS: usize = 6;
/// Step the checkpoint of check 3 is cut at (odd, so parity tags show).
const CUT: usize = 3;

fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
    (
        1.0 + 0.01 * ((x + 2 * y + z) as f64 * 0.3).sin(),
        [
            0.02 * ((y + z) as f64 * 0.6).sin(),
            0.01 * (x as f64 * 0.4).cos(),
            0.0,
        ],
    )
}

fn channel() -> Geometry {
    Geometry::walls_y_periodic_x(16, 8)
}

/// Periodic-x duct with walls on the four lateral faces.
fn duct() -> Geometry {
    Geometry::duct(8, 6, 6)
}

fn host<B: DriverBody + Send + 'static>(
    name: &'static str,
    label: &'static str,
    kernel: &'static str,
    lockstep: bool,
    halo_spans: usize,
    mk: fn() -> Sim<B>,
) -> Row
where
    B::Dev: Probe,
{
    Row {
        name,
        mk: Box::new(move |mon| {
            let mut s = mk().with_cpu_threads(1);
            if let Some(cfg) = mon {
                s = s.with_monitor(cfg);
            }
            s.init_with(shear_init);
            Box::new(s)
        }),
        label,
        kernel,
        lockstep,
        halo_spans,
        flavor: "",
        guards: &[],
        selector: None,
    }
}

/// A row of a single-device driver: nothing to exchange.
fn solo<B: DriverBody<Dev = Gpu> + Send + 'static>(
    name: &'static str,
    label: &'static str,
    kernel: &'static str,
    lockstep: bool,
    mk: fn() -> Sim<B>,
) -> Row {
    host(name, label, kernel, lockstep, 0, mk)
}

fn v() -> DeviceSpec {
    DeviceSpec::v100()
}

fn p() -> MrScheme {
    MrScheme::projective()
}

fn table() -> Vec<Row> {
    // The AA pattern exchanges twice (pre + post) on stream half-steps only.
    let aa_halos = 2 * STEPS.div_ceil(2);
    vec![
        solo("st/d2q9", "st", "st-bulk", false, || {
            StSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8))
        })
        .blob("st", &[16, 8, 1, 9]),
        solo("st/d3q19", "st", "st-bulk", false, || {
            StSim::<D3Q19, _>::new(v(), duct(), Bgk::new(0.8))
        })
        .blob("st", &[8, 6, 6, 19]),
        solo("aa/d2q9", "aa-st", "aa-stream", false, || {
            AaStSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8))
        })
        .blob("aa-st+odd", &[16, 8, 1, 9]),
        solo("aa/d3q19", "aa-st", "aa-stream", false, || {
            AaStSim::<D3Q19, _>::new(v(), duct(), Projective::new(0.8))
        })
        .blob("aa-st+odd", &[8, 6, 6, 19]),
        solo("mr2d", "mr2d", "mr2d-p", true, || {
            MrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8)
        })
        .blob("mr2d", &[16, 8, 6, 0])
        .selector(0),
        solo("mr2d/recursive", "mr2d", "mr2d-r", true, || {
            MrSim2D::<D2Q9>::new(v(), channel(), MrScheme::recursive::<D2Q9>(), 0.8)
        })
        .blob("mr2d", &[16, 8, 6, 0])
        .selector(0),
        solo("mr2d/shift2", "mr2d", "mr2d-p", true, || {
            MrSim2D::<D2Q9>::with_config(v(), channel(), p(), 0.8, 0, 0, 2, 2)
        })
        .blob("mr2d", &[16, 8, 6, 0])
        .selector(0),
        solo("mr2d/twist", "mr2d-twist", "mr2d-p", true, || {
            MrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8).with_twist()
        })
        .blob("mr2d-twist+odd", &[16, 8, 6, 0])
        .selector(0),
        solo("mr2d/double-buffer", "mr2d", "mr2d-p", true, || {
            MrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8).with_double_buffer()
        })
        .blob("mr2d", &[16, 8, 6, 1])
        .selector(1),
        solo("mr3d", "mr3d", "mr3d-p", true, || {
            MrSim3D::<D3Q19>::new(v(), duct(), p(), 0.8)
        })
        .blob("mr3d", &[8, 6, 6, 10]),
        solo("mr3d/twist", "mr3d-twist", "mr3d-p", true, || {
            MrSim3D::<D3Q19>::new(v(), duct(), p(), 0.8).with_twist()
        })
        .blob("mr3d-twist+odd", &[8, 6, 6, 10]),
        solo("sparse-st/d2q9", "sparse-st", "st-sparse", false, || {
            StSparseSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8))
        })
        .blob("sparse-st", &[16, 8, 1, 9, 96]),
        solo("sparse-st/d3q19", "sparse-st", "st-sparse", false, || {
            StSparseSim::<D3Q19, _>::new(v(), duct(), Bgk::new(0.8))
        })
        .blob("sparse-st", &[8, 6, 6, 19, 128]),
        solo("sparse-mr/d2q9", "sparse-mr", "mr-sparse", true, || {
            SparseMrSim2D::new(v(), channel(), p(), 0.8)
        })
        .blob("sparse-mr", &[16, 8, 1, 6, 96]),
        solo("sparse-mr/d3q19", "sparse-mr", "mr-sparse", true, || {
            SparseMrSim3D::new(v(), duct(), p(), 0.8)
        })
        .blob("sparse-mr", &[8, 6, 6, 10, 128]),
        host(
            "multi-st/d2q9",
            "multi-st",
            "st-bulk-span",
            false,
            STEPS,
            || MultiStSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8), 2),
        )
        .blob("multi-st", &[16, 8, 1, 9, 2]),
        host(
            "multi-st/d3q19",
            "multi-st",
            "st-bulk-span",
            false,
            STEPS,
            || MultiStSim::<D3Q19, _>::new(v(), duct(), Bgk::new(0.8), 2),
        )
        .blob("multi-st", &[8, 6, 6, 19, 2]),
        host(
            "multi-aa/d2q9",
            "multi-aa-st",
            "aa-stream",
            false,
            aa_halos,
            || MultiAaStSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8), 2),
        )
        .blob("aa-st-multi+odd", &[16, 8, 1, 9, 2]),
        host(
            "multi-aa/d3q19",
            "multi-aa-st",
            "aa-stream",
            false,
            aa_halos,
            || MultiAaStSim::<D3Q19, _>::new(v(), duct(), Bgk::new(0.8), 2),
        )
        .blob("aa-st-multi+odd", &[8, 6, 6, 19, 2]),
        host("multi-mr2d", "multi-mr2d", "mr2d-p", true, STEPS, || {
            MultiMrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8, 3)
        })
        .blob("multi-mr2d", &[16, 8, 6, 3]),
        host("multi-mr3d", "multi-mr3d", "mr3d-p", true, STEPS, || {
            MultiMrSim3D::<D3Q19>::new(v(), duct(), p(), 0.8, 2)
        })
        .blob("multi-mr3d", &[8, 6, 6, 10, 2]),
        host(
            "multi-sparse-st/d2q9",
            "multi-sparse-st",
            "st-sparse",
            false,
            STEPS,
            || MultiSparseStSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8), 2),
        )
        .blob("multi-sparse-st", &[16, 8, 1, 9, 2]),
        host(
            "multi-sparse-st/d3q19",
            "multi-sparse-st",
            "st-sparse",
            false,
            STEPS,
            || MultiSparseStSim::<D3Q19, _>::new(v(), duct(), Bgk::new(0.8), 2),
        )
        .blob("multi-sparse-st", &[8, 6, 6, 19, 2]),
        host(
            "multi-sparse-mr/d2q9",
            "multi-sparse-mr",
            "mr-sparse",
            true,
            STEPS,
            || MultiSparseMrSim::<D2Q9>::new(v(), channel(), p(), 0.8, 2),
        )
        .blob("multi-sparse-mr", &[16, 8, 1, 6, 2]),
        host(
            "multi-sparse-mr/d3q19",
            "multi-sparse-mr",
            "mr-sparse",
            true,
            STEPS,
            || MultiSparseMrSim::<D3Q19>::new(v(), duct(), p(), 0.8, 2),
        )
        .blob("multi-sparse-mr", &[8, 6, 6, 10, 2]),
    ]
}

/// Re-frame a valid LBCK blob around a new payload: recompute the length
/// and FNV words so only the payload's *extent* is wrong.
fn reframe(blob: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = blob[..16].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Everything a failed `restore` must leave alone.
fn state_of(s: &dyn Host) -> (u64, Vec<u64>, u64, Vec<u8>) {
    (s.steps(), s.ledger(), s.field_checksum(), s.checkpoint())
}

fn check(row: &Row) {
    let n = row.name;

    // 1 + 2: trait-object stepping ≡ inherent run; no 0/0 before step one.
    let mut inherent = (row.mk)(None);
    if let Some(bpf) = inherent.bpf() {
        assert_eq!(bpf, 0.0, "{n}: B/F before the first step");
    }
    inherent.run_n(STEPS);
    let mut boxed: Box<dyn Simulation + Send> = (row.mk)(None);
    for _ in 0..STEPS {
        boxed.try_step().unwrap();
    }
    assert_eq!(boxed.steps(), STEPS as u64, "{n}");
    assert_eq!(boxed.field_checksum(), inherent.field_checksum(), "{n}");
    assert_eq!(boxed.fluid_nodes(), inherent.fluid_nodes(), "{n}");
    assert!(boxed.fluid_nodes() > 0, "{n}");
    assert_eq!(boxed.footprint_bytes(), inherent.footprint_bytes(), "{n}");
    assert_eq!(boxed.halo_retries(), 0, "{n}");
    assert!(boxed.is_healthy(), "{n}");
    if let Some(bpf) = inherent.bpf() {
        assert!(bpf > 0.0, "{n}: B/F after {STEPS} steps");
    }

    // 3: checkpoint at k, restore into a fresh sim, continue. The head of
    // the blob is frozen: flavor, guards, t, [selector], ledger.
    let k = CUT;
    let mut first = (row.mk)(None);
    first.run_n(k);
    let blob = first.checkpoint();
    assert_eq!(
        blob[8..16],
        fnv1a(row.flavor.as_bytes()).to_le_bytes(),
        "{n}: flavor tag is not {:?}",
        row.flavor
    );
    let words: Vec<u64> = blob[32..]
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let mut head = row.guards.to_vec();
    head.push(k as u64);
    head.extend(row.selector);
    head.extend(first.ledger());
    assert_eq!(words[..head.len()], head, "{n}: blob head moved");
    let mut resumed = (row.mk)(None);
    resumed.restore(&blob).unwrap();
    assert_eq!(resumed.steps(), k as u64, "{n}");
    assert_eq!(resumed.checkpoint(), blob, "{n}: restore → checkpoint");
    resumed.run_n(STEPS - k);
    assert_eq!(
        resumed.field_checksum(),
        inherent.field_checksum(),
        "{n}: resumed run diverged"
    );
    assert_eq!(resumed.ledger(), inherent.ledger(), "{n}: resumed ledger");

    // 4: surplus or missing payload is refused, and refused cleanly. The
    // target sits at another step than the blob, so a partial restore
    // would show.
    let mut target = (row.mk)(None);
    target.run_n(1);
    let before = state_of(&*target);
    let payload = &blob[32..];
    let mut longer = payload.to_vec();
    longer.extend_from_slice(&[0u8; 8]);
    match target.restore(&reframe(&blob, &longer)) {
        Err(CheckpointError::Mismatch(_)) => {}
        other => panic!("{n}: 8 surplus payload bytes gave {other:?}"),
    }
    assert!(
        before == state_of(&*target),
        "{n}: surplus bytes left a mark"
    );
    let shorter = &payload[..payload.len() - 8];
    match target.restore(&reframe(&blob, shorter)) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("{n}: 8 missing payload bytes gave {other:?}"),
    }
    assert!(before == state_of(&*target), "{n}: short blob left a mark");
    target.restore(&blob).unwrap();
    assert_eq!(target.steps(), k as u64, "{n}");

    // 5: run(n) flushes the off-cadence tail sample and publishes it.
    let hub = Obs::shared();
    let mut monitored = (row.mk)(Some(MonitorConfig {
        cadence: 4,
        ..Default::default()
    }));
    assert_eq!(monitored.label(), row.label, "{n}");
    // 6: hub attached after construction.
    monitored.set_obs(hub.clone());
    monitored.run_n(STEPS);
    let m = monitored.physics_monitor().unwrap();
    let sampled: Vec<u64> = m.samples().iter().map(|s| s.step).collect();
    assert_eq!(sampled, [4, STEPS as u64], "{n}: cadence 4 + flushed tail");
    assert!(m.is_ok(), "{n}: {:?}", m.violations());
    assert!(
        m.mass_drift() <= 1e-10,
        "{n}: mass drift {}",
        m.mass_drift()
    );
    assert!(monitored.monitor_ok(), "{n}");
    for gauge in ["monitor_mass", "monitor_max_u"] {
        assert!(
            hub.metrics
                .gauge(gauge, &[("pattern", row.label)])
                .is_some(),
            "{n}: no {gauge}{{pattern={}}}",
            row.label
        );
    }

    let ev = hub.tracer.events();
    let steps: Vec<_> = ev
        .iter()
        .filter(|e| e.ph == 'B' && e.cat == "driver" && e.name == "step")
        .collect();
    assert_eq!(steps.len(), STEPS, "{n}: step spans");
    for (t, e) in steps.iter().enumerate() {
        let arg = |k: &str| {
            e.args
                .iter()
                .find(|(key, _)| key == k)
                .map(|a| a.1.as_str())
        };
        assert_eq!(arg("t"), Some(t.to_string().as_str()), "{n}");
        for k in ["job", "tenant", "group", "slice"] {
            assert_eq!(arg(k), None, "{n}: step span carries a {k} arg");
        }
    }
    assert_eq!(ev[0].name, "step", "{n}: the step span opens the trace");
    assert!(
        ev.iter()
            .any(|e| e.ph == 'B' && e.cat == "kernel" && e.name == row.kernel),
        "{n}: no {} kernel span",
        row.kernel
    );
    if row.lockstep {
        let phases = ev
            .iter()
            .filter(|e| e.ph == 'B' && e.cat == "kernel" && e.name == row.kernel)
            .filter_map(|e| e.args.iter().find(|(k, _)| k == "phases"))
            .map(|(_, v)| v.parse::<usize>().expect("phases arg is a count"))
            .max();
        assert!(phases > Some(1), "{n}: kernel span phases arg {phases:?}");
    }
    assert!(
        ev.iter()
            .any(|e| e.ph == 'i' && e.cat == "monitor" && e.name == "flush"),
        "{n}: the flushed sample leaves an instant"
    );
    let halos = ev
        .iter()
        .filter(|e| e.ph == 'B' && e.name == "halo-exchange")
        .count();
    assert_eq!(halos, row.halo_spans, "{n}: halo-exchange spans");
    let counter = |name: &str| -> u64 {
        hub.metrics
            .snapshot()
            .into_iter()
            .filter(|(key, _)| key.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(v) => v,
                _ => 0,
            })
            .sum()
    };
    assert!(counter("launches") >= STEPS as u64, "{n}: launch counters");
    match monitored.link_bytes() {
        None => assert_eq!(row.halo_spans, 0, "{n}"),
        Some(bytes) => {
            assert!(bytes > 0, "{n}: nothing crossed the interconnect");
            assert_eq!(counter("link_transfer_bytes"), bytes, "{n}: link metrics");
        }
    }
}

#[test]
fn every_driver_keeps_the_contract() {
    let rows = table();
    // All twelve drivers are on the table.
    for label in [
        "st",
        "aa-st",
        "mr2d",
        "mr2d-twist",
        "mr3d",
        "mr3d-twist",
        "sparse-st",
        "sparse-mr",
        "multi-st",
        "multi-aa-st",
        "multi-mr2d",
        "multi-mr3d",
        "multi-sparse-st",
        "multi-sparse-mr",
    ] {
        assert!(rows.iter().any(|r| r.label == label), "no row for {label}");
    }
    for row in &rows {
        check(row);
    }
}

/// What the sharding layer rests on: a shard is the single-device body of
/// its pattern on a slab, so one shard *is* the solo driver — same fields
/// after every step, same counted bytes, same number of launches.
#[test]
fn one_shard_is_the_solo_driver() {
    fn hub_tally(hub: &Obs) -> [u64; 5] {
        let names = [
            "bytes_read",
            "bytes_written",
            "dram_bytes_read",
            "l2_read_hits",
            "launches",
        ];
        let mut out = [0u64; 5];
        for (key, metric) in hub.metrics.snapshot() {
            if let (Some(k), Metric::Counter(v)) =
                (names.iter().position(|n| *n == key.name), metric)
            {
                out[k] += v;
            }
        }
        out
    }
    fn check<A: DriverBody<Dev = Gpu>, B: DriverBody<Dev = Ring>>(
        name: &str,
        solo: Sim<A>,
        one: Sim<B>,
    ) {
        let (mut solo, mut one) = (solo.with_cpu_threads(1), one.with_cpu_threads(1));
        solo.init_with(shear_init);
        one.init_with(shear_init);
        let (hub_solo, hub_one) = (Obs::shared(), Obs::shared());
        solo.set_obs(hub_solo.clone());
        one.set_obs(hub_one.clone());
        assert_eq!(one.num_devices(), 1, "{name}");
        for step in 0..=STEPS {
            if step > 0 {
                solo.step();
                one.step();
            }
            assert_eq!(
                one.field_checksum(),
                solo.field_checksum(),
                "{name}: step {step}"
            );
        }
        assert_eq!(hub_tally(&hub_one), hub_tally(&hub_solo), "{name}: tally");
        assert_eq!(one.interconnect().total_link_bytes(), 0, "{name}");
        assert_eq!(one.fluid_nodes(), solo.fluid_nodes(), "{name}");
    }
    // Inlet/outlet where the pattern has a boundary kernel, periodic else.
    let inlet = || Geometry::channel_2d(32, 16, 0.04);
    let periodic = || Geometry::walls_y_periodic_x(32, 16);
    let bgk = || Bgk::new(0.8);
    check(
        "st",
        StSim::<D2Q9, _>::new(v(), inlet(), bgk()),
        MultiStSim::<D2Q9, _>::new(v(), inlet(), bgk(), 1),
    );
    check(
        "aa",
        AaStSim::<D2Q9, _>::new(v(), periodic(), bgk()),
        MultiAaStSim::<D2Q9, _>::new(v(), periodic(), bgk(), 1),
    );
    check(
        "mr2d",
        MrSim2D::<D2Q9>::new(v(), inlet(), p(), 0.8),
        MultiMrSim2D::<D2Q9>::new(v(), inlet(), p(), 0.8, 1),
    );
    check(
        "mr3d",
        MrSim3D::<D3Q19>::new(v(), duct(), p(), 0.8),
        MultiMrSim3D::<D3Q19>::new(v(), duct(), p(), 0.8, 1),
    );
    check(
        "sparse-st",
        StSparseSim::<D2Q9, _>::new(v(), periodic(), bgk()),
        MultiSparseStSim::<D2Q9, _>::new(v(), periodic(), bgk(), 1),
    );
    check(
        "sparse-mr",
        SparseMrSim2D::new(v(), periodic(), p(), 0.8),
        MultiSparseMrSim::<D2Q9>::new(v(), periodic(), p(), 0.8, 1),
    );
}

/// At one host thread `init_with` reads the field only on the calling
/// thread, even with every pass forced past the parallel threshold: a solo
/// driver's rows and a ring's shards alike. A served build and its spans
/// stay on the executor thread (`ServeConfig::cpu_threads_per_job`).
#[test]
fn one_host_thread_initializes_on_the_calling_thread() {
    fn check<B: DriverBody>(name: &str, sim: Sim<B>) {
        let mut sim = sim.with_cpu_threads(1).with_parallel_threshold(0);
        let caller = std::thread::current().id();
        let (calls, away) = (AtomicUsize::new(0), AtomicUsize::new(0));
        sim.init_with(|x, y, z| {
            calls.fetch_add(1, Ordering::Relaxed);
            if std::thread::current().id() != caller {
                away.fetch_add(1, Ordering::Relaxed);
            }
            shear_init(x, y, z)
        });
        // A shard reads its ghost columns too.
        assert!(
            calls.into_inner() >= sim.geom().len(),
            "{name}: field reads"
        );
        assert_eq!(away.into_inner(), 0, "{name}: reads off the calling thread");
    }
    check("st", StSim::<D2Q9, _>::new(v(), channel(), Bgk::new(0.8)));
    check(
        "mr-p.x2",
        MultiMrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8, 2),
    );
}

/// The defect that motivated the all-or-nothing envelope: `MrSim2D` blobs
/// of a `shift_rows = 2` twin differ from a `shift_rows = 1` driver's only
/// in the length of the raw moment array, which no configuration guard
/// names. The longer one used to restore "successfully" into the wrong
/// slot layout; the shorter one used to fail after overwriting the tally.
#[test]
fn mr2d_refuses_a_twin_with_another_circular_shift() {
    let mk = |tile_h: usize, shift_rows: usize| {
        let mut s = MrSim2D::<D2Q9>::with_config(
            DeviceSpec::v100(),
            channel(),
            MrScheme::projective(),
            0.8,
            0,
            0,
            tile_h,
            shift_rows,
        )
        .with_cpu_threads(1);
        s.init_with(shear_init);
        s
    };
    let mut shift1 = mk(1, 1);
    let mut shift2 = mk(1, 2);
    shift1.run(2);
    shift2.run(5);

    let before = state_of(&shift1);
    match shift1.restore(&shift2.checkpoint()) {
        Err(CheckpointError::Mismatch(_)) => {}
        other => panic!("shift 2 → shift 1 gave {other:?}"),
    }
    assert!(before == state_of(&shift1), "shift 2 → 1 left a mark");

    let before = state_of(&shift2);
    assert_eq!(
        shift2.restore(&shift1.checkpoint()),
        Err(CheckpointError::Truncated)
    );
    assert!(before == state_of(&shift2), "shift 1 → 2 left a mark");
}

/// What the table and the recorded ledgers leave open about a host, for one
/// solo and one two-shard driver of a pattern: what `init_with` resets,
/// what a fresh hub sees of each host's launches and links, how a link
/// failure past the retry budget reaches a `dyn Simulation` caller, and
/// that neither host takes the other's blobs. `$timed`: the pattern's
/// sharded blobs carry the overlap timing, which `init_with` then zeroes
/// like the rest of the ledger. Only calls on the concrete driver names, so
/// the check is indifferent to how the hosts are built.
macro_rules! pin_host_surface {
    ($name:expr, $solo_kernel:expr, $sharded_kernel:expr, $timed:expr, $solo:expr, $sharded:expr) => {{
        let n = $name;
        let mk_solo = || {
            let mut s = $solo.with_cpu_threads(1);
            s.init_with(shear_init);
            s
        };
        let mk_sharded = || {
            let mut s = $sharded.with_cpu_threads(1);
            s.init_with(shear_init);
            s
        };

        // `init_with` is a fresh start: step counter and ledger at zero, and
        // the run that follows is a new driver's (the interconnect keeps
        // what it carried).
        let mut solo = mk_solo();
        solo.run(3);
        assert_ne!(solo.traffic(), Tally::default(), "{n}");
        solo.init_with(shear_init);
        assert_eq!(solo.steps(), 0, "{n}");
        assert_eq!(solo.traffic(), Tally::default(), "{n}: solo tally");
        assert_eq!(solo.measured_bpf(), 0.0, "{n}");
        let mut fresh = mk_solo();
        solo.run(2);
        fresh.run(2);
        assert_eq!(solo.field_checksum(), fresh.field_checksum(), "{n}");
        assert_eq!(solo.traffic(), fresh.traffic(), "{n}: solo restart");
        let mut sharded = mk_sharded();
        sharded.run(3);
        assert_eq!(sharded.stats().steps, 3, "{n}");
        let carried = sharded.interconnect().total_link_bytes();
        assert!(carried > 0, "{n}");
        sharded.init_with(shear_init);
        assert_eq!(sharded.steps(), 0, "{n}");
        if $timed {
            assert_eq!(*sharded.stats(), OverlapStats::default(), "{n}: stats");
        }
        assert_eq!(sharded.interconnect().total_link_bytes(), carried, "{n}");
        let mut fresh = mk_sharded();
        sharded.run(2);
        fresh.run(2);
        assert_eq!(sharded.field_checksum(), fresh.field_checksum(), "{n}");
        if $timed {
            assert_eq!(sharded.stats(), fresh.stats(), "{n}: sharded restart");
        }

        // A fresh hub sees a solo driver's launches, a sharded driver's
        // launches on every shard, and the sharded driver's link transfers.
        let launches = |hub: &Obs, kernel: &str| {
            hub.metrics
                .counter("launches", &[("kernel", kernel), ("device", v().name)])
                .unwrap_or(0)
        };
        let hub = Obs::shared();
        mk_solo().with_obs(hub.clone()).run(2);
        assert!(launches(&hub, $solo_kernel) >= 1, "{n}: solo launch");
        let hub = Obs::shared();
        let mut sharded = mk_sharded().with_obs(hub.clone());
        sharded.run(2);
        assert!(launches(&hub, $sharded_kernel) >= 2, "{n}: sharded launch");
        let link = sharded.interconnect().link_spec().name;
        let seen: u64 = ["0->1", "1->0"]
            .iter()
            .map(|dir| {
                let name = format!("{link}[{dir}]");
                let labels = [("link", name.as_str())];
                hub.metrics
                    .counter("link_transfer_bytes", &labels)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(seen, sharded.interconnect().total_link_bytes(), "{n}");

        // A link failure that outlasts the retry budget is the matching
        // `StepError` behind the trait object, and the step does not count.
        let two_tries = HaloRetryPolicy {
            max_attempts: 2,
            backoff_base_us: 1,
        };
        let mut plan = FaultPlan::new();
        plan.fail_link(0, 1, 10);
        let mut boxed: Box<dyn Simulation + Send> = Box::new(
            mk_sharded()
                .with_halo_retry(two_tries)
                .with_fault_plan(Arc::new(plan)),
        );
        let want = StepError::Link {
            from: 0,
            to: 1,
            permanent: false,
        };
        assert_eq!(boxed.try_step(), Err(want), "{n}: transient");
        assert_eq!((boxed.steps(), boxed.halo_retries()), (0, 1), "{n}");
        let mut plan = FaultPlan::new();
        plan.fail_link_permanently(1, 0);
        let mut boxed: Box<dyn Simulation + Send> =
            Box::new(mk_sharded().with_fault_plan(Arc::new(plan)));
        let want = StepError::Link {
            from: 1,
            to: 0,
            permanent: true,
        };
        assert_eq!(boxed.try_step(), Err(want), "{n}: permanent");
        assert_eq!((boxed.steps(), boxed.halo_retries()), (0, 0), "{n}");
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| boxed.step()))
            .expect_err("step() on a dead link returned");
        let msg = died.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with("halo exchange failed: "), "{n}: {msg}");

        // The hosts' blobs are different flavors: each refuses the other's
        // and is left as it was.
        let (mut solo, mut sharded) = (mk_solo(), mk_sharded());
        solo.run(2);
        sharded.run(3);
        let (solo_blob, sharded_blob) = (solo.checkpoint(), sharded.checkpoint());
        let before = (solo.steps(), solo.traffic(), solo.field_checksum());
        assert!(
            matches!(
                solo.restore(&sharded_blob),
                Err(CheckpointError::WrongFlavor { .. })
            ),
            "{n}: sharded blob into the solo driver"
        );
        assert_eq!(
            before,
            (solo.steps(), solo.traffic(), solo.field_checksum()),
            "{n}"
        );
        assert!(solo.checkpoint() == solo_blob, "{n}: solo left a mark");
        let before = (sharded.steps(), *sharded.stats(), sharded.field_checksum());
        assert!(
            matches!(
                sharded.restore(&solo_blob),
                Err(CheckpointError::WrongFlavor { .. })
            ),
            "{n}: solo blob into the sharded driver"
        );
        assert_eq!(
            before,
            (sharded.steps(), *sharded.stats(), sharded.field_checksum()),
            "{n}"
        );
        assert!(
            sharded.checkpoint() == sharded_blob,
            "{n}: sharded left a mark"
        );
    }};
}

#[test]
fn host_surface_is_pinned() {
    let bgk = || Bgk::new(0.8);
    pin_host_surface!(
        "st",
        "st-bulk",
        "st-bulk-span",
        true,
        StSim::<D2Q9, _>::new(v(), channel(), bgk()),
        MultiStSim::<D2Q9, _>::new(v(), channel(), bgk(), 2)
    );
    pin_host_surface!(
        "aa",
        "aa-stream",
        "aa-stream",
        true,
        AaStSim::<D2Q9, _>::new(v(), channel(), bgk()),
        MultiAaStSim::<D2Q9, _>::new(v(), channel(), bgk(), 2)
    );
    pin_host_surface!(
        "mr2d",
        "mr2d-p",
        "mr2d-p",
        true,
        MrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8),
        MultiMrSim2D::<D2Q9>::new(v(), channel(), p(), 0.8, 2)
    );
    pin_host_surface!(
        "sparse-st",
        "st-sparse",
        "st-sparse",
        false,
        StSparseSim::<D2Q9, _>::new(v(), channel(), bgk()),
        MultiSparseStSim::<D2Q9, _>::new(v(), channel(), bgk(), 2)
    );
    pin_host_surface!(
        "sparse-mr",
        "mr-sparse",
        "mr-sparse",
        false,
        SparseMrSim2D::new(v(), channel(), p(), 0.8),
        MultiSparseMrSim::<D2Q9>::new(v(), channel(), p(), 0.8, 2)
    );

    // `init_with` also drops a parked AA step: the post-exchange of step 0
    // fails (its first transfer is the second 1 -> 0 of the step), the
    // in-place launch has run, and the re-initialised driver must start a
    // whole step again, not finish the stale exchange.
    let mk = || {
        let mut s = MultiAaStSim::<D2Q9, _>::new(v(), channel(), bgk(), 3).with_cpu_threads(1);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.fail_link_after(1, 0, 1, 1);
    let mut parked = mk()
        .with_halo_retry(HaloRetryPolicy {
            max_attempts: 1,
            backoff_base_us: 1,
        })
        .with_fault_plan(Arc::new(plan));
    let before = parked.field_checksum();
    parked.try_step().unwrap_err();
    assert_eq!(parked.steps(), 0);
    assert_ne!(parked.field_checksum(), before, "the step did not park");
    parked.init_with(shear_init);
    assert_eq!(parked.field_checksum(), before);
    let mut clean = mk();
    parked.run(4);
    clean.run(4);
    assert!(
        parked.checkpoint() == clean.checkpoint(),
        "a parked step outlived init_with"
    );
}

//! Simulated device-to-device interconnect: N [`Gpu`] instances joined by
//! links with byte-exact per-direction traffic counters.
//!
//! The paper's performance argument is bandwidth, and the same argument
//! scales out: a halo node costs `M·8` bytes to exchange in moment space
//! instead of `Q·8` in distribution space. This module provides the
//! substrate half of that claim — a [`MultiGpu`] whose links tally every
//! transferred byte, the inter-device analog of [`crate::memory::Tally`] —
//! while `lbm-multi` provides the decomposition and exchange schedules.
//!
//! Link presets mirror the interconnects the paper's devices ship with:
//! NVLink 2.0 for the V100 (6 sub-links × 25 GB/s per direction) and
//! Infinity Fabric for the MI100 (3 links, ~92 GB/s aggregate per
//! direction). Bandwidths are per direction; links are full duplex.

use crate::device::{DeviceSpec, Vendor};
use crate::exec::Gpu;
use crate::fault::FaultPlan;
use crate::pool::WorkerPool;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Typed interconnect failure, surfaced to the decomposition layer so the
/// recovery machinery can distinguish "retry may help" from "give up".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The devices are not neighbors in the topology — a programming error
    /// in the exchange schedule, never retryable.
    NoRoute { from: usize, to: usize },
    /// The joining link refused the transfer (injected or modeled fault).
    /// Transient failures may succeed on retry; permanent ones never will.
    Down {
        from: usize,
        to: usize,
        permanent: bool,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::NoRoute { from, to } => {
                write!(f, "no link between devices {from} and {to}")
            }
            LinkError::Down {
                from,
                to,
                permanent,
            } => write!(
                f,
                "link {from}->{to} is down ({})",
                if *permanent { "permanent" } else { "transient" }
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// Bandwidth/latency description of one link class.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    pub name: &'static str,
    /// Peak bandwidth per direction, GB/s (10⁹ bytes per second).
    pub bandwidth_gbps: f64,
    /// One-way transfer launch latency, µs.
    pub latency_us: f64,
}

impl LinkSpec {
    /// NVLink 2.0 (V100 generation): 6 sub-links × 25 GB/s per direction.
    pub fn nvlink2() -> Self {
        LinkSpec {
            name: "NVLink2",
            bandwidth_gbps: 150.0,
            latency_us: 1.8,
        }
    }

    /// Infinity Fabric (MI100 generation): 3 links, ~92 GB/s aggregate
    /// per direction.
    pub fn infinity_fabric() -> Self {
        LinkSpec {
            name: "InfinityFabric",
            bandwidth_gbps: 92.0,
            latency_us: 2.0,
        }
    }

    /// The link class a device of this spec would ship with.
    pub fn preset_for(dev: &DeviceSpec) -> Self {
        match dev.vendor {
            Vendor::Nvidia => LinkSpec::nvlink2(),
            Vendor::Amd => LinkSpec::infinity_fabric(),
        }
    }

    /// Peak bandwidth in bytes per second (one direction).
    #[inline]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9
    }

    /// Modeled one-way time to move `bytes` over the link.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / self.bandwidth_bytes_per_sec()
    }
}

/// One bidirectional link between devices `a` and `b`, with independent
/// per-direction byte/transfer counters (full duplex).
#[derive(Debug)]
pub struct Link {
    pub spec: LinkSpec,
    pub a: usize,
    pub b: usize,
    fwd_bytes: AtomicU64,
    fwd_transfers: AtomicU64,
    rev_bytes: AtomicU64,
    rev_transfers: AtomicU64,
}

impl Link {
    fn new(spec: LinkSpec, a: usize, b: usize) -> Self {
        Link {
            spec,
            a,
            b,
            fwd_bytes: AtomicU64::new(0),
            fwd_transfers: AtomicU64::new(0),
            rev_bytes: AtomicU64::new(0),
            rev_transfers: AtomicU64::new(0),
        }
    }

    /// Whether this link joins the (unordered) device pair.
    fn joins(&self, x: usize, y: usize) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// Bytes moved in the `a`→`b` direction.
    pub fn bytes_fwd(&self) -> u64 {
        self.fwd_bytes.load(Ordering::Relaxed)
    }

    /// Bytes moved in the `b`→`a` direction.
    pub fn bytes_rev(&self) -> u64 {
        self.rev_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes moved over the link (both directions).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_fwd() + self.bytes_rev()
    }

    /// Total transfers issued on the link (both directions).
    pub fn transfers_total(&self) -> u64 {
        self.fwd_transfers.load(Ordering::Relaxed) + self.rev_transfers.load(Ordering::Relaxed)
    }

    /// Modeled time for one exchange step that moves `fwd` and `rev` bytes
    /// in opposite directions: full duplex, so the directions overlap.
    pub fn exchange_time_s(&self, fwd: u64, rev: u64) -> f64 {
        self.spec
            .transfer_time_s(fwd)
            .max(self.spec.transfer_time_s(rev))
    }

    fn record(&self, from: usize, bytes: u64) {
        if from == self.a {
            self.fwd_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.fwd_transfers.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rev_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.rev_transfers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Split a budget of `n` host threads over `devices` devices into `(team,
/// per_device)`; the rule is stated on [`MultiGpu::with_cpu_threads`].
fn thread_budget(n: usize, devices: usize) -> (usize, usize) {
    let n = n.max(1);
    let team = n.min(devices);
    (team, (n / team).max(1))
}

/// N simulated devices of one spec joined in a ring (the chain degenerate
/// case for N = 2, no links for N = 1). Devices are homogeneous, as in the
/// paper's single-node multi-GPU platforms.
pub struct MultiGpu {
    devices: Vec<Gpu>,
    links: Vec<Link>,
    spec: DeviceSpec,
    link_spec: LinkSpec,
    obs: Option<Arc<obs::Obs>>,
    faults: Option<Arc<FaultPlan>>,
    /// Host threads that step devices side by side (the calling thread
    /// included).
    team: usize,
    /// The `team − 1` helper threads, spawned by the first
    /// [`MultiGpu::for_each_device`] that runs devices side by side.
    team_pool: OnceLock<WorkerPool>,
}

impl MultiGpu {
    /// Build `n` devices joined ring-wise with the vendor's preset link,
    /// sharing all available CPU parallelism (see
    /// [`MultiGpu::with_cpu_threads`]).
    pub fn ring(spec: DeviceSpec, n: usize) -> Self {
        assert!(n > 0, "need at least one device");
        let link_spec = LinkSpec::preset_for(&spec);
        let (team, per_device) = thread_budget(crate::exec::host_threads(), n);
        let devices = (0..n)
            .map(|i| {
                Gpu::new(spec.clone())
                    .with_index(i)
                    .with_cpu_threads(per_device)
            })
            .collect();
        // Neighbor pairs: (i, i+1) plus the wrap link for n > 2. For n = 2
        // the wrap pair equals (0, 1), so one link carries both cuts.
        let mut links = Vec::new();
        for i in 0..n.saturating_sub(1) {
            links.push(Link::new(link_spec.clone(), i, i + 1));
        }
        if n > 2 {
            links.push(Link::new(link_spec.clone(), n - 1, 0));
        }
        MultiGpu {
            devices,
            links,
            spec,
            link_spec,
            obs: None,
            faults: None,
            team,
            team_pool: OnceLock::new(),
        }
    }

    /// Attach a fault-injection plan to the link layer *and* every device
    /// (launch aborts). The thread/threshold builders keep it on both, so
    /// the order of the builder calls does not matter. With a plan attached
    /// [`MultiGpu::for_each_device`] visits the devices one after another
    /// in index order whatever the thread budget: the plan's skip counters
    /// are shared by all devices, so the order of launches across devices
    /// decides which one takes the fault.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for g in &mut self.devices {
            g.set_fault_plan(plan.clone());
        }
        self.faults = Some(plan);
    }

    /// Builder-style [`MultiGpu::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Set the host-thread budget of the whole ring to `n`: a team of
    /// `min(n, devices)` threads steps devices side by side
    /// ([`MultiGpu::for_each_device`]) and each device's launches get
    /// `max(1, n / team)` threads, so `team × per_device ≤ n`. `n = 1`
    /// spawns no thread at all; `n = 2` on four devices is two device
    /// threads whose launches run inline. Results and tallies are the same
    /// for every `n`.
    pub fn with_cpu_threads(mut self, n: usize) -> Self {
        let (team, per_device) = thread_budget(n, self.devices.len());
        self.devices = self
            .devices
            .drain(..)
            .map(|g| g.with_cpu_threads(per_device))
            .collect();
        self.team = team;
        self.team_pool = OnceLock::new();
        self
    }

    /// Run `f(r)` once for every device `r` and return the results in
    /// device order. Devices are claimed one at a time by the team's
    /// threads (this one included), so each device's launches stay in
    /// program order on a single thread while different devices run side
    /// by side; the call returns when all have finished. With a one-thread
    /// team or a fault plan attached this is the plain loop `0..n` on the
    /// calling thread. A panic in `f` is re-raised here once every device
    /// thread is idle again, and the team stays usable.
    pub fn for_each_device<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let n = self.devices.len();
        if self.team == 1 || self.faults.is_some() {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let pool = self
            .team_pool
            .get_or_init(|| WorkerPool::new(self.team - 1));
        pool.run(n, &|r| {
            let out = f(r);
            *slots[r].lock().expect("slot written once, by one thread") = Some(out);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot written once, by one thread")
                    .expect("the pool ran every device")
            })
            .collect()
    }

    /// Override each device's minimum pooled-launch size (see
    /// `Gpu::with_parallel_threshold`); `0` forces pooling for every
    /// multi-block launch.
    pub fn with_parallel_threshold(mut self, items: usize) -> Self {
        self.devices = self
            .devices
            .drain(..)
            .map(|g| g.with_parallel_threshold(items))
            .collect();
        self
    }

    /// Attach one observability hub to every device and to the link layer:
    /// kernel launches on any device trace/publish into it, and each
    /// transfer adds to per-link byte/transfer counters.
    pub fn with_obs(mut self, obs: Arc<obs::Obs>) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place [`MultiGpu::with_obs`] (the `Simulation` trait's
    /// `set_obs` path reaches devices through this).
    pub fn set_obs(&mut self, obs: Arc<obs::Obs>) {
        for g in &mut self.devices {
            g.set_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&Arc<obs::Obs>> {
        self.obs.as_ref()
    }

    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    pub fn device(&self, i: usize) -> &Gpu {
        &self.devices[i]
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn link_spec(&self) -> &LinkSpec {
        &self.link_spec
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link joining devices `x` and `y`, if they are neighbors.
    pub fn link_between(&self, x: usize, y: usize) -> Option<&Link> {
        self.links.iter().find(|l| l.joins(x, y))
    }

    /// Record one `from`→`to` transfer of `bytes` over the joining link,
    /// surfacing failures as typed errors: [`LinkError::NoRoute`] when the
    /// devices are not neighbors, [`LinkError::Down`] when a fault plan
    /// fails the transfer. Failed transfers record **nothing** on the link
    /// counters (the bytes never arrived), so a successful retry tallies
    /// exactly once — byte-identical to a fault-free run.
    pub fn try_record_transfer(&self, from: usize, to: usize, bytes: u64) -> Result<(), LinkError> {
        let link = self
            .link_between(from, to)
            .ok_or(LinkError::NoRoute { from, to })?;
        if let Some(permanent) = self
            .faults
            .as_ref()
            .and_then(|p| p.link_should_fail(from, to))
        {
            if let Some(o) = &self.obs {
                let name = format!("{}[{from}->{to}]", link.spec.name);
                let labels = [("link", name.as_str())];
                o.metrics.counter_add("link_transfer_failures", &labels, 1);
                o.tracer.instant(
                    "fault",
                    "link-failure",
                    &[("link", name.clone()), ("permanent", permanent.to_string())],
                );
            }
            return Err(LinkError::Down {
                from,
                to,
                permanent,
            });
        }
        link.record(from, bytes);
        if let Some(o) = &self.obs {
            let name = format!("{}[{from}->{to}]", link.spec.name);
            let labels = [("link", name.as_str())];
            o.metrics.counter_add("link_transfer_bytes", &labels, bytes);
            o.metrics.counter_add("link_transfer_count", &labels, 1);
        }
        Ok(())
    }

    /// Panicking wrapper of [`MultiGpu::try_record_transfer`] for callers
    /// that treat any failure as fatal (the single-fault-domain drivers).
    pub fn record_transfer(&self, from: usize, to: usize, bytes: u64) {
        self.try_record_transfer(from, to, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Total bytes moved over all links, both directions.
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes_total()).sum()
    }

    /// Per-link traffic table: transfers and bytes per direction.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>14} {:>14} {:>14}",
            "link", "xfers", "bytes a->b", "bytes b->a", "total"
        );
        for l in &self.links {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>14} {:>14} {:>14}",
                format!("{}[{}<->{}]", l.spec.name, l.a, l.b),
                l.transfers_total(),
                l.bytes_fwd(),
                l.bytes_rev(),
                l.bytes_total()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_topology_link_counts() {
        assert_eq!(MultiGpu::ring(DeviceSpec::v100(), 1).links().len(), 0);
        assert_eq!(MultiGpu::ring(DeviceSpec::v100(), 2).links().len(), 1);
        assert_eq!(MultiGpu::ring(DeviceSpec::v100(), 3).links().len(), 3);
        assert_eq!(MultiGpu::ring(DeviceSpec::v100(), 4).links().len(), 4);
    }

    #[test]
    fn vendor_selects_link_class() {
        let v = MultiGpu::ring(DeviceSpec::v100(), 2);
        assert_eq!(v.link_spec().name, "NVLink2");
        let m = MultiGpu::ring(DeviceSpec::mi100(), 2);
        assert_eq!(m.link_spec().name, "InfinityFabric");
        assert!(v.link_spec().bandwidth_gbps > m.link_spec().bandwidth_gbps);
    }

    #[test]
    fn transfers_are_counted_per_direction() {
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4);
        mg.record_transfer(0, 1, 1000);
        mg.record_transfer(1, 0, 250);
        mg.record_transfer(3, 0, 64); // wrap link
        let l01 = mg.link_between(0, 1).unwrap();
        assert_eq!(l01.bytes_fwd(), 1000);
        assert_eq!(l01.bytes_rev(), 250);
        assert_eq!(l01.transfers_total(), 2);
        let wrap = mg.link_between(3, 0).unwrap();
        assert_eq!(wrap.bytes_total(), 64);
        assert_eq!(mg.total_link_bytes(), 1314);
        assert!(mg.report().contains("NVLink2[0<->1]"));
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn non_neighbor_transfer_panics() {
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4);
        mg.record_transfer(0, 2, 8);
    }

    /// The de-panic satellite: a missing route surfaces as a typed error
    /// from the fallible path instead of tearing the process down.
    #[test]
    fn non_neighbor_transfer_returns_typed_error() {
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4);
        assert_eq!(
            mg.try_record_transfer(0, 2, 8),
            Err(LinkError::NoRoute { from: 0, to: 2 })
        );
        assert_eq!(mg.total_link_bytes(), 0, "failed transfer recorded bytes");
        assert!(mg.try_record_transfer(0, 1, 8).is_ok());
    }

    /// An injected link fault fails the transfer without recording bytes,
    /// and a retry after the transient window tallies exactly once.
    #[test]
    fn faulted_transfer_records_nothing_until_retry_succeeds() {
        let obs = obs::Obs::shared();
        let mut plan = FaultPlan::new();
        plan.fail_link(0, 1, 1);
        plan.fail_link_permanently(1, 2);
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4)
            .with_obs(obs.clone())
            .with_fault_plan(Arc::new(plan));
        assert_eq!(
            mg.try_record_transfer(0, 1, 100),
            Err(LinkError::Down {
                from: 0,
                to: 1,
                permanent: false
            })
        );
        assert_eq!(mg.total_link_bytes(), 0);
        assert!(mg.try_record_transfer(0, 1, 100).is_ok(), "transient fault");
        assert_eq!(mg.total_link_bytes(), 100, "retry must tally exactly once");
        assert_eq!(
            mg.try_record_transfer(1, 2, 8),
            Err(LinkError::Down {
                from: 1,
                to: 2,
                permanent: true
            })
        );
        let labels = [("link", "NVLink2[0->1]")];
        assert_eq!(
            obs.metrics.counter("link_transfer_failures", &labels),
            Some(1)
        );
        assert!(obs
            .tracer
            .events()
            .iter()
            .any(|e| e.cat == "fault" && e.name == "link-failure"));
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let s = LinkSpec::nvlink2();
        let t = s.transfer_time_s(150_000_000); // 0.15 GB at 150 GB/s = 1 ms
        assert!((t - (1e-3 + 1.8e-6)).abs() < 1e-12);
        // Full duplex: opposite directions overlap.
        let mg = MultiGpu::ring(DeviceSpec::v100(), 2);
        let l = mg.link_between(0, 1).unwrap();
        let e = l.exchange_time_s(150_000_000, 75_000_000);
        assert!((e - t).abs() < 1e-15);
    }

    #[test]
    fn obs_sees_link_traffic_and_device_launches() {
        let obs = obs::Obs::shared();
        let mg = MultiGpu::ring(DeviceSpec::v100(), 2).with_obs(obs.clone());
        mg.record_transfer(0, 1, 4096);
        mg.record_transfer(0, 1, 4096);
        let labels = [("link", "NVLink2[0->1]")];
        assert_eq!(
            obs.metrics.counter("link_transfer_bytes", &labels),
            Some(8192)
        );
        assert_eq!(obs.metrics.counter("link_transfer_count", &labels), Some(2));
        // Devices inherit the hub.
        assert!(mg.device(0).obs().is_some());
        assert!(mg.device(1).obs().is_some());
    }

    /// The budget table: the team never outgrows the devices or the budget,
    /// what is left over goes to the launches, and nothing oversubscribes.
    #[test]
    fn thread_budget_splits_without_oversubscribing() {
        assert_eq!(thread_budget(1, 4), (1, 1));
        assert_eq!(thread_budget(2, 4), (2, 1));
        assert_eq!(thread_budget(3, 2), (2, 1));
        assert_eq!(thread_budget(4, 3), (3, 1));
        assert_eq!(thread_budget(8, 4), (4, 2));
        assert_eq!(thread_budget(8, 1), (1, 8));
        assert_eq!(thread_budget(0, 3), (1, 1), "a zero budget means one");
        for n in 1..=9 {
            for devices in 1..=5 {
                let (team, per_device) = thread_budget(n, devices);
                assert_eq!(team, n.min(devices));
                assert!(
                    per_device >= 1 && team * per_device <= n,
                    "{n} on {devices}"
                );
            }
        }
    }

    /// A one-thread budget is the plain loop: index order, the calling
    /// thread, and no team thread is ever spawned. So is any budget with a
    /// fault plan attached, whose skip counters all devices share.
    #[test]
    fn one_thread_and_fault_plans_walk_devices_in_index_order() {
        let walk = |mg: &MultiGpu| {
            let seen = Mutex::new(Vec::new());
            let out = mg.for_each_device(|r| {
                seen.lock().unwrap().push((r, std::thread::current().id()));
                r * 10
            });
            assert_eq!(out, [0, 10, 20, 30]);
            let here = std::thread::current().id();
            let want: Vec<_> = (0..4).map(|r| (r, here)).collect();
            assert_eq!(*seen.lock().unwrap(), want);
            assert!(mg.team_pool.get().is_none(), "a team thread was spawned");
        };
        walk(&MultiGpu::ring(DeviceSpec::v100(), 4).with_cpu_threads(1));
        walk(
            &MultiGpu::ring(DeviceSpec::v100(), 4)
                .with_cpu_threads(4)
                .with_fault_plan(Arc::new(FaultPlan::new())),
        );
    }

    /// Two device threads really are live at once: every device waits
    /// until two have arrived, which a single thread could never satisfy.
    /// Results still come back in device order.
    #[test]
    fn devices_run_side_by_side_and_results_keep_device_order() {
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4).with_cpu_threads(2);
        for _ in 0..50 {
            let arrived = AtomicU64::new(0);
            let out = mg.for_each_device(|r| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                r + 100
            });
            assert_eq!(out, [100, 101, 102, 103]);
        }
        assert_eq!(mg.team_pool.get().map(WorkerPool::workers), Some(1));
    }

    /// A race-checker trip inside one device's launch — raised on that
    /// device's launch pool, under a team thread — surfaces on the thread
    /// that called `for_each_device`; the team runs the next call cleanly
    /// and the ring drops without hanging.
    #[test]
    fn kernel_panic_on_one_device_surfaces_and_team_survives() {
        use crate::exec::{BlockCtx, Launch, PhasedKernel};
        use crate::memory::GlobalBuffer;
        /// Block 0 overwrites in phase 0 what block 1 reads in phase 1.
        struct StaleRead<'b>(&'b GlobalBuffer<f64>);
        impl PhasedKernel for StaleRead<'_> {
            fn name(&self) -> &str {
                "stale_read"
            }
            fn phases(&self) -> usize {
                2
            }
            fn run_phase(&self, phase: usize, ctx: &mut BlockCtx) {
                match (phase, ctx.block_id) {
                    (0, 0) => ctx.write(self.0, 5, 1.0),
                    (1, 1) => drop(ctx.read(self.0, 5)),
                    _ => {}
                }
            }
        }
        let obs = obs::Obs::shared();
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4)
            .with_cpu_threads(8)
            .with_parallel_threshold(0)
            .with_obs(obs.clone());
        let bufs: Vec<GlobalBuffer<f64>> = (0..4)
            .map(|_| GlobalBuffer::new(8).with_racecheck_strict())
            .collect();
        let step = |bad: Option<usize>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mg.for_each_device(|r| {
                    if bad == Some(r) {
                        mg.device(r)
                            .launch_lockstep(&Launch::simple(2, 32), &StaleRead(&bufs[r]));
                    }
                    r
                })
            }))
        };
        let err = step(Some(2)).expect_err("the trip must reach the caller");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("stale read"), "unexpected panic: {msg:?}");
        assert_eq!(
            obs.tracer.open_spans_total(),
            0,
            "a span leaked past the panic"
        );
        assert_eq!(step(None).expect("the team is not poisoned"), [0, 1, 2, 3]);
    }

    /// Kernel spans and the per-device counters tell a ring's devices
    /// apart; a solo device carries neither.
    #[test]
    fn device_index_labels_spans_and_counters() {
        use crate::exec::{BlockCtx, Kernel, Launch};
        struct Nop;
        impl Kernel for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn run_block(&self, _ctx: &mut BlockCtx) {}
        }
        let obs = obs::Obs::shared();
        let mg = MultiGpu::ring(DeviceSpec::v100(), 3)
            .with_cpu_threads(2)
            .with_obs(obs.clone());
        mg.for_each_device(|r| {
            for _ in 0..=r {
                mg.device(r).launch(&Launch::simple(1, 32), &Nop);
            }
        });
        for r in 0..3 {
            let dev = r.to_string();
            let spans = obs
                .tracer
                .events()
                .iter()
                .filter(|e| e.ph == 'B' && e.args.contains(&("dev".to_string(), dev.clone())))
                .count();
            assert_eq!(spans, r + 1);
            let labels = [("device", "NVIDIA V100"), ("dev", dev.as_str())];
            assert_eq!(
                obs.metrics.counter("device_launches", &labels),
                Some(r as u64 + 1)
            );
        }
        let solo = Gpu::new(DeviceSpec::v100()).with_obs(obs.clone());
        let before = obs.tracer.len();
        solo.launch(&Launch::simple(1, 32), &Nop);
        assert!(obs.tracer.events()[before..]
            .iter()
            .all(|e| e.args.iter().all(|(k, _)| k != "dev")));
    }

    /// A fault plan attached before the thread/threshold builders fires
    /// exactly as one attached after them: on the links and on a device.
    #[test]
    fn fault_plan_survives_the_thread_and_threshold_builders() {
        use crate::exec::{BlockCtx, Kernel, Launch};
        struct Touch<'b>(&'b crate::memory::GlobalBuffer<f64>);
        impl Kernel for Touch<'_> {
            fn name(&self) -> &str {
                "touch"
            }
            fn run_block(&self, ctx: &mut BlockCtx) {
                ctx.write(self.0, ctx.block_id, 1.0);
            }
        }
        let plan = || {
            let mut plan = FaultPlan::new();
            plan.fail_link(0, 1, 1).abort_launch(0);
            Arc::new(plan)
        };
        let tuned = |mg: MultiGpu| mg.with_cpu_threads(4).with_parallel_threshold(0);
        let (first, last) = (plan(), plan());
        let rings = [
            (
                tuned(MultiGpu::ring(DeviceSpec::v100(), 2).with_fault_plan(first.clone())),
                first,
            ),
            (
                tuned(MultiGpu::ring(DeviceSpec::v100(), 2)).with_fault_plan(last.clone()),
                last,
            ),
        ];
        for (mg, plan) in rings {
            assert!(mg.try_record_transfer(0, 1, 64).is_err());
            assert!(mg.try_record_transfer(0, 1, 64).is_ok());
            let buf = crate::memory::GlobalBuffer::new(2);
            let aborted = mg.device(1).launch(&Launch::simple(2, 32), &Touch(&buf));
            assert_eq!(aborted.tally.writes, 0, "the first launch is aborted");
            let ran = mg.device(1).launch(&Launch::simple(2, 32), &Touch(&buf));
            assert_eq!(ran.tally.writes, 2);
            assert_eq!((plan.link_faults_fired(), plan.aborts_fired()), (1, 1));
        }
    }
}

//! Job specifications: what a tenant asks the fleet to run.
//!
//! A [`JobSpec`] pins down a simulation completely — scenario, propagation
//! pattern, relaxation time, step target, device count — so the scheduler
//! can (re)build the solver at will: a fresh build plus a checkpoint
//! restore is *identical* to the evicted instance, and a solo run of the
//! same spec is the bitwise oracle for whatever the fleet produces.

use crate::job::SubmitError;
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::collision::Bgk;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::Simulation;
use lbm_gpu::multi::sparse::check_slabs;
use lbm_gpu::multi::{
    MultiAaStSim, MultiMrSim, MultiSparseMrSim, MultiSparseStSim, MultiStSim, SlabDecomp,
};
use lbm_gpu::{AaStSim, DriverBody, MrScheme, MrSim, Sim, SparseMrSim, StSim, StSparseSim};
use lbm_lattice::{Lattice, D2Q9, D3Q19};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// Scheduling class of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: dispatched ahead of batch work and may preempt
    /// running batch groups.
    Interactive,
    /// Throughput work: runs whenever no interactive job is waiting; ages
    /// toward interactive priority so it can never starve.
    Batch,
}

impl Priority {
    /// Label value for metrics (`class` label).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// The flow problem a job simulates. Every scenario is periodic along `x`
/// with no-slip walls on every lateral face — the geometries every driver
/// in the workspace accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// 2D shear layer in a wall-bounded channel (D2Q9).
    Shear2D { nx: usize, ny: usize },
    /// 3D shear layer in a wall-bounded duct (D3Q19).
    Shear3D { nx: usize, ny: usize, nz: usize },
    /// 2D flow through a deterministic porous slab (D2Q9): the shear
    /// channel with `solid_pct`% of interior nodes turned to walls by a
    /// coordinate hash — same spec, same rock, bitwise. Porous scenarios
    /// require a sparse pattern: the service refuses to allocate a dense
    /// bounding box for a domain that is mostly rock.
    Porous2D { nx: usize, ny: usize, solid_pct: u8 },
}

/// Deterministic node classifier for [`Scenario::Porous2D`]: FNV-1a over
/// the coordinates, solid when `hash % 100 < solid_pct`.
fn porous_solid(x: usize, y: usize, solid_pct: u8) -> bool {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in (x as u64)
        .to_le_bytes()
        .into_iter()
        .chain((y as u64).to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h % 100 < solid_pct as u64
}

impl Scenario {
    /// Build the geometry (walls on lateral faces, periodic `x`).
    pub fn geometry(&self) -> Geometry {
        match *self {
            Scenario::Shear2D { nx, ny } => Geometry::walls_y_periodic_x(nx, ny),
            Scenario::Shear3D { nx, ny, nz } => {
                let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            if y == 0 || y == ny - 1 || z == 0 || z == nz - 1 {
                                g.set(x, y, z, NodeType::Wall);
                            }
                        }
                    }
                }
                g
            }
            Scenario::Porous2D { nx, ny, solid_pct } => {
                let mut g = Geometry::walls_y_periodic_x(nx, ny);
                for y in 1..ny - 1 {
                    for x in 0..nx {
                        if porous_solid(x, y, solid_pct) {
                            g.set(x, y, 0, NodeType::Wall);
                        }
                    }
                }
                g
            }
        }
    }

    /// Total lattice nodes (residency estimates multiply this by the
    /// pattern's per-node byte cost; sparse patterns use the geometry's
    /// exact fluid count instead). Saturates at `usize::MAX` for extents
    /// whose product overflows — [`JobSpec::validate`] refuses those.
    pub fn nodes(&self) -> usize {
        self.checked_nodes().unwrap_or(usize::MAX)
    }

    fn checked_nodes(&self) -> Option<usize> {
        match *self {
            Scenario::Shear2D { nx, ny } | Scenario::Porous2D { nx, ny, .. } => nx.checked_mul(ny),
            Scenario::Shear3D { nx, ny, nz } => nx.checked_mul(ny)?.checked_mul(nz),
        }
    }

    fn min_extent(&self) -> usize {
        match *self {
            Scenario::Shear2D { nx, ny } | Scenario::Porous2D { nx, ny, .. } => nx.min(ny),
            Scenario::Shear3D { nx, ny, nz } => nx.min(ny).min(nz),
        }
    }

    fn nx(&self) -> usize {
        match *self {
            Scenario::Shear2D { nx, .. }
            | Scenario::Shear3D { nx, .. }
            | Scenario::Porous2D { nx, .. } => nx,
        }
    }
}

/// Propagation pattern (the paper's three kernels plus the in-place
/// single-lattice variants of each representation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Standard two-lattice distribution representation, BGK collision.
    St,
    /// Moment representation, projective regularization (MR-P).
    MrP,
    /// Moment representation, recursive regularization (MR-R).
    MrR,
    /// In-place AA-pattern ST: one resident lattice (`Q·8` bytes/node,
    /// half of [`Pattern::St`]), BGK collision.
    AaSt,
    /// In-place moment-twist MR-P: one parity-indexed moment lattice
    /// (`M·8` bytes/node, half of [`Pattern::MrP`]). Single-device only.
    MrTwist,
    /// Sparse (fluid-compacted, indirect-addressing) ST: state and link
    /// table are stored per *fluid* node, so residency scales with
    /// porosity instead of the bounding box.
    SparseSt,
    /// Sparse moment representation (projective regularization): `M·8`
    /// doubles of in-place moments plus the `Q·4`-byte link table per
    /// fluid node — the smallest residency of any pattern on porous
    /// domains.
    SparseMr,
}

impl Pattern {
    /// Label value for metrics and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::St => "st",
            Pattern::MrP => "mr-p",
            Pattern::MrR => "mr-r",
            Pattern::AaSt => "aa-st",
            Pattern::MrTwist => "mr-twist",
            Pattern::SparseSt => "sparse-st",
            Pattern::SparseMr => "sparse-mr",
        }
    }

    /// Whether this pattern uses fluid-compacted (sparse) storage.
    pub fn is_sparse(self) -> bool {
        matches!(self, Pattern::SparseSt | Pattern::SparseMr)
    }
}

/// What admission needs to know of a sparse scenario cut into `devices`
/// slabs: why the sparse builders would refuse it (`check_slabs`,
/// `check_table_encoding`), if they would, and its fluid node count.
#[derive(Clone)]
struct SparseVerdict {
    rejected: Option<String>,
    fluid: usize,
}

/// Shapes [`sparse_verdict`] remembers before it starts over.
const SPARSE_MEMO_CAP: usize = 64;

/// The [`SparseVerdict`] of `(scenario, devices)`, computed once per shape
/// for the whole process: it costs a full [`Scenario::geometry`], and a
/// fleet's jobs share a handful of shapes. Bounded — the map is cleared
/// when it holds [`SPARSE_MEMO_CAP`] shapes — so a tenant cycling through
/// shapes cannot grow it.
fn sparse_verdict(scenario: Scenario, devices: usize) -> SparseVerdict {
    static MEMO: LazyLock<Mutex<HashMap<(Scenario, usize), SparseVerdict>>> =
        LazyLock::new(Mutex::default);
    // Every update leaves the map valid, so a poisoned lock is still usable.
    let memo = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(v) = memo().get(&(scenario, devices)) {
        return v.clone();
    }
    // Built outside the lock: two submitters of a new shape may both build
    // it, and store the same verdict.
    let geom = scenario.geometry();
    let fluid = geom.fluid_count();
    let q = match scenario {
        Scenario::Shear3D { .. } => D3Q19::Q,
        _ => D2Q9::Q,
    };
    // The sparse builders' own geometry checks (unsupported node types, a
    // device left with no fluid node to update, link-table overflow). One
    // slab is the solo build.
    let rejected = check_slabs(&SlabDecomp::new(geom, devices))
        .map_err(|e| e.to_string())
        .and_then(|()| lbm_gpu::sparse::check_table_encoding(q, fluid).map_err(|e| e.to_string()))
        .err();
    let verdict = SparseVerdict { rejected, fluid };
    let mut memo = memo();
    if memo.len() >= SPARSE_MEMO_CAP {
        memo.clear();
    }
    memo.insert((scenario, devices), verdict.clone());
    verdict
}

/// A complete, validated request for one simulation.
#[derive(Clone)]
pub struct JobSpec {
    /// Owning tenant (quota accounting key).
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    pub scenario: Scenario,
    pub pattern: Pattern,
    /// BGK/regularized relaxation time.
    pub tau: f64,
    /// Target timesteps.
    pub steps: u64,
    /// Devices to shard across (1 → single-device driver).
    pub devices: usize,
    /// Run under the checkpoint/rollback recovery loop (absorbs faults
    /// from `fault_plan`, if any, without perturbing the trajectory).
    pub resilient: bool,
    /// Optional injected-fault plan attached to the built solver.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Optional physics monitor attached to the built solver. Purely
    /// observational — it never touches the trajectory, so it is excluded
    /// from [`JobSpec::physics_key`].
    pub monitor: Option<obs::MonitorConfig>,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("priority", &self.priority)
            .field("scenario", &self.scenario)
            .field("pattern", &self.pattern)
            .field("tau", &self.tau)
            .field("steps", &self.steps)
            .field("devices", &self.devices)
            .field("resilient", &self.resilient)
            .field("fault_plan", &self.fault_plan.as_ref().map(|_| "<plan>"))
            .field("monitor", &self.monitor)
            .finish()
    }
}

impl JobSpec {
    /// A minimal valid interactive spec (builder starting point for tests
    /// and examples).
    pub fn shear_2d(tenant: &str, nx: usize, ny: usize, steps: u64) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            priority: Priority::Interactive,
            scenario: Scenario::Shear2D { nx, ny },
            pattern: Pattern::MrP,
            tau: 0.8,
            steps,
            devices: 1,
            resilient: false,
            fault_plan: None,
            monitor: None,
        }
    }

    /// Reject malformed specs before they reach the scheduler.
    pub fn validate(&self) -> Result<(), SubmitError> {
        let invalid = |why: String| Err(SubmitError::Invalid(why));
        if self.tenant.is_empty() {
            return invalid("tenant must be non-empty".into());
        }
        if !(self.tau > 0.5 && self.tau <= 2.0) {
            return invalid(format!("tau {} outside stable range (0.5, 2.0]", self.tau));
        }
        if self.steps == 0 {
            return invalid("steps must be >= 1".into());
        }
        if self.scenario.min_extent() < 4 {
            return invalid("every lattice extent must be >= 4".into());
        }
        if self.devices == 0 {
            return invalid("devices must be >= 1".into());
        }
        if let Err(why) = self.checked_box() {
            return invalid(why);
        }
        if self.devices > 1 && self.scenario.nx() / self.devices < 2 {
            return invalid(format!(
                "{} devices leave slabs narrower than 2 columns (nx = {})",
                self.devices,
                self.scenario.nx()
            ));
        }
        if self.pattern == Pattern::MrTwist && self.devices > 1 {
            return invalid(format!(
                "mr-twist is single-device only (requested {} devices): the \
                 parity-twisted moment lattice has no sharded driver",
                self.devices
            ));
        }
        if matches!(self.scenario, Scenario::Porous2D { .. }) && !self.pattern.is_sparse() {
            return invalid(format!(
                "porous scenarios require a sparse pattern (got {}): a dense \
                 bounding box would bill the tenant for rock",
                self.pattern.label()
            ));
        }
        if self.pattern.is_sparse() {
            // The sparse builders' own geometry checks run at submit time,
            // so a bad spec is a synchronous SubmitError instead of a
            // poisoned executor.
            if let Some(e) = sparse_verdict(self.scenario, self.devices).rejected {
                return invalid(format!("sparse pattern rejected: {e}"));
            }
        }
        Ok(())
    }

    /// The scenario's node count, or why its box is refused before anything
    /// is allocated for it: extents whose node or byte count overflows
    /// `usize`, or — for a sparse pattern, whose admission has to build the
    /// geometry — a node map larger than the memory of the devices asked
    /// for.
    fn checked_box(&self) -> Result<usize, String> {
        // The dearest pattern per node: sparse ST on D3Q19.
        const MAX_NODE_BYTES: usize = 2 * D3Q19::Q * 8 + D3Q19::Q * 4;
        let scenario = self.scenario;
        let nodes = scenario
            .checked_nodes()
            .filter(|n| n.checked_mul(MAX_NODE_BYTES).is_some())
            .ok_or_else(|| format!("{scenario:?}: the lattice's byte count overflows"))?;
        let map_bytes = nodes * std::mem::size_of::<NodeType>();
        let device_bytes = DeviceSpec::v100().memory_bytes.saturating_mul(self.devices);
        if self.pattern.is_sparse() && map_bytes > device_bytes {
            return Err(format!(
                "{scenario:?}: a node map of {map_bytes} bytes exceeds the {device_bytes} bytes \
                 of {} device(s)",
                self.devices
            ));
        }
        Ok(nodes)
    }

    /// Admission-time estimate of the solver's resident lattice bytes —
    /// the roofline model's per-pattern footprint over the scenario's
    /// nodes. The scheduler charges this at submit and trues it up to
    /// [`Simulation::resident_bytes`] once the solver is built (ghost
    /// columns make multi-device builds slightly larger). A box
    /// [`JobSpec::validate`] refuses for its size costs `usize::MAX`.
    pub fn estimated_resident_bytes(&self) -> usize {
        use gpu_sim::roofline::{
            footprint_aa_st, footprint_mr_double, footprint_mr_twist, footprint_sparse_mr,
            footprint_sparse_st, footprint_st,
        };
        let Ok(n) = self.checked_box() else {
            return usize::MAX;
        };
        let fluid = || sparse_verdict(self.scenario, self.devices).fluid;
        let (q, m) = match self.scenario {
            Scenario::Shear2D { .. } | Scenario::Porous2D { .. } => (D2Q9::Q, D2Q9::M),
            Scenario::Shear3D { .. } => (D3Q19::Q, D3Q19::M),
        };
        match self.pattern {
            Pattern::St => footprint_st(n, q),
            Pattern::MrP | Pattern::MrR => footprint_mr_double(n, m),
            Pattern::AaSt => footprint_aa_st(n, q),
            Pattern::MrTwist => footprint_mr_twist(n, m),
            // Sparse patterns are billed on the *fluid* count — the whole
            // point of the compacted storage is that rock is free.
            Pattern::SparseSt => footprint_sparse_st(fluid(), q),
            Pattern::SparseMr => footprint_sparse_mr(fluid(), m, q),
        }
    }

    /// Deterministic initial condition: a shear layer that is a pure
    /// function of global coordinates, so single- and multi-device builds
    /// start bitwise-identical.
    pub fn init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y + z) as f64 * 0.3).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// Shared tail of every arm of [`JobSpec::build`]: thread budget, fault
    /// plan, monitor, initial condition, then erase the concrete type.
    fn host<B: DriverBody + Send + 'static>(
        &self,
        sim: Sim<B>,
        cpu_threads: usize,
    ) -> Box<dyn Simulation + Send> {
        let mut s = sim.with_cpu_threads(cpu_threads);
        if let Some(plan) = &self.fault_plan {
            s = s.with_fault_plan(plan.clone());
        }
        if let Some(cfg) = self.monitor {
            s = s.with_monitor(cfg);
        }
        s.init_with(JobSpec::init);
        Box::new(s)
    }

    /// Build the solver this spec describes, initialized and ready to
    /// step. `cpu_threads` is the per-job thread budget (the fleet default
    /// of 1 keeps each sim on its executor thread — see
    /// [`crate::scheduler::ServeConfig::cpu_threads_per_job`]). Rebuilding
    /// a spec and restoring a checkpoint reproduces an evicted instance
    /// exactly; the fault plan (shared `Arc`) re-attaches so its fired
    /// counters keep accumulating across evictions.
    pub fn build(&self, cpu_threads: usize) -> Box<dyn Simulation + Send> {
        match self.scenario {
            Scenario::Shear2D { .. } => self.build_on::<D2Q9>(cpu_threads),
            Scenario::Porous2D { .. } => {
                assert!(
                    self.pattern.is_sparse(),
                    "validate() rejects dense patterns on porous scenarios"
                );
                self.build_on::<D2Q9>(cpu_threads)
            }
            Scenario::Shear3D { .. } => self.build_on::<D3Q19>(cpu_threads),
        }
    }

    /// [`JobSpec::build`] on the scenario's lattice: every pattern has one
    /// lattice-generic driver, solo and sharded.
    fn build_on<L: Lattice>(&self, cpu_threads: usize) -> Box<dyn Simulation + Send> {
        let dev = DeviceSpec::v100();
        let geom = self.scenario.geometry();
        let (tau, bgk) = (self.tau, Bgk::new(self.tau));
        // MR-R is the one recursive pattern; twist and sparse MR are MR-P.
        let scheme = match self.pattern {
            Pattern::MrR => MrScheme::recursive::<L>(),
            _ => MrScheme::projective(),
        };
        match (self.pattern, self.devices) {
            (Pattern::St, 1) => self.host(StSim::<L, _>::new(dev, geom, bgk), cpu_threads),
            (Pattern::St, n) => self.host(MultiStSim::<L, _>::new(dev, geom, bgk, n), cpu_threads),
            (Pattern::AaSt, 1) => self.host(AaStSim::<L, _>::new(dev, geom, bgk), cpu_threads),
            (Pattern::AaSt, n) => {
                self.host(MultiAaStSim::<L, _>::new(dev, geom, bgk, n), cpu_threads)
            }
            // validate() rejects devices > 1 for the twist pattern.
            (Pattern::MrTwist, _) => self.host(
                MrSim::<L>::new(dev, geom, scheme, tau).with_twist(),
                cpu_threads,
            ),
            (Pattern::SparseSt, 1) => {
                self.host(StSparseSim::<L, _>::new(dev, geom, bgk), cpu_threads)
            }
            (Pattern::SparseSt, n) => self.host(
                MultiSparseStSim::<L, _>::new(dev, geom, bgk, n),
                cpu_threads,
            ),
            (Pattern::SparseMr, 1) => {
                self.host(SparseMrSim::<L>::new(dev, geom, scheme, tau), cpu_threads)
            }
            (Pattern::SparseMr, n) => self.host(
                MultiSparseMrSim::<L>::new(dev, geom, scheme, tau, n),
                cpu_threads,
            ),
            (Pattern::MrP | Pattern::MrR, 1) => {
                self.host(MrSim::<L>::new(dev, geom, scheme, tau), cpu_threads)
            }
            (Pattern::MrP | Pattern::MrR, n) => {
                self.host(MultiMrSim::<L>::new(dev, geom, scheme, tau, n), cpu_threads)
            }
        }
    }

    /// Memoization key for the solo-checksum oracle: two specs with equal
    /// keys provably produce the same final field checksum (tenant,
    /// priority, and resilience do not touch the physics).
    pub fn physics_key(&self) -> (Scenario, Pattern, u64, u64, usize) {
        (
            self.scenario,
            self.pattern,
            self.tau.to_bits(),
            self.steps,
            self.devices,
        )
    }
}

/// Run `spec` to completion on a private solver and return the final FNV
/// field checksum — the bitwise oracle the fleet's result must match. The
/// oracle runs fault-free (resilient jobs are required to *recover to*
/// the clean trajectory, so the clean checksum is still the target).
pub fn solo_checksum(spec: &JobSpec) -> u64 {
    let clean = JobSpec {
        fault_plan: None,
        ..spec.clone()
    };
    let mut sim = clean.build(1);
    for _ in 0..spec.steps {
        sim.step();
    }
    sim.field_checksum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More shapes than the memo holds: it turns over, and every answer —
    /// first asked or repeated, before the turn or after — is the one the
    /// geometry gives.
    #[test]
    fn sparse_verdict_survives_the_memo_turning_over() {
        for round in 0..2 {
            for k in 0..SPARSE_MEMO_CAP + 8 {
                let scenario = Scenario::Porous2D {
                    nx: 8 + k,
                    ny: 6,
                    solid_pct: 30,
                };
                let v = sparse_verdict(scenario, 1);
                assert_eq!(v.fluid, scenario.geometry().fluid_count(), "round {round}");
                assert_eq!(v.rejected, None);
            }
        }
        let all_rock = Scenario::Porous2D {
            nx: 16,
            ny: 8,
            solid_pct: 100,
        };
        for _ in 0..2 {
            let why = sparse_verdict(all_rock, 1).rejected.expect("no fluid");
            assert!(why.contains("no fluid nodes"), "{why}");
        }
    }
}

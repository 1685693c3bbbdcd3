//! Resilience suite: checkpoint/restore round trips for all six drivers,
//! fault-injected recovery with bitwise-identical resumes, halo-retry
//! under transient link failures, and typed surfacing of permanent ones.
//!
//! Every equality here is `==` on `f64` bits (via FNV field checksums or
//! direct field comparison): the substrate is deterministic, so recovery
//! is required to reproduce the uninterrupted trajectory exactly, not
//! approximately.

use gpu_sim::interconnect::LinkError;
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::collision::Projective;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::{field_checksum, CheckpointError};
use lbm_core::{Simulation, StepError};
use lbm_gpu::scheme::MrScheme;
use lbm_gpu::{AaStSim, MrSim2D, MrSim3D, SparseMrSim2D, StSim, StSparseSim};
use lbm_lattice::{D2Q9, D3Q19};
use lbm_multi::recovery::{run_with_recovery, RecoveryConfig, RecoveryError};
use lbm_multi::{
    HaloRetryPolicy, MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiSparseStSim,
    MultiStSim,
};
use std::sync::Arc;

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

/// Periodic-x duct: walls on the four lateral faces (what the 3D MR
/// drivers require).
fn duct(nx: usize, ny: usize, nz: usize) -> Geometry {
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

fn checksum_of<S: Simulation>(s: &S) -> u64 {
    let (rho, u) = s.macro_fields();
    field_checksum(&rho, &u)
}

/// Checkpoint round-trip harness. `cont` runs `n1 + n2` steps
/// uninterrupted; `inter` checkpoints at `n1` and keeps going (taking a
/// snapshot must not perturb the run); `fresh` — a newly built identical
/// sim — restores the snapshot and finishes. All three must agree bitwise.
fn ckpt_roundtrip<S: Simulation>(mut cont: S, mut inter: S, mut fresh: S, n1: u64, n2: u64) {
    for _ in 0..n1 + n2 {
        cont.try_step().unwrap();
    }
    let want = checksum_of(&cont);

    for _ in 0..n1 {
        inter.try_step().unwrap();
    }
    let snap = inter.checkpoint();
    for _ in 0..n2 {
        inter.try_step().unwrap();
    }
    assert_eq!(checksum_of(&inter), want, "checkpointing perturbed the run");

    fresh.restore(&snap).unwrap();
    assert_eq!(fresh.steps(), n1, "restore lost the timestep");
    for _ in 0..n2 {
        fresh.try_step().unwrap();
    }
    assert_eq!(fresh.steps(), n1 + n2);
    assert_eq!(checksum_of(&fresh), want, "resume from checkpoint diverged");
}

#[test]
fn st_checkpoint_roundtrip_bitwise() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 4, 6);
}

/// The ST checkpoint carries the accumulated traffic tally, so a restored
/// run reports the same byte-exact traffic as an uninterrupted one.
#[test]
fn st_checkpoint_restores_traffic_tally() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut cont = mk();
    cont.run(10);
    let mut inter = mk();
    inter.run(4);
    let snap = inter.checkpoint();
    let mut fresh = mk();
    fresh.restore(&snap).unwrap();
    fresh.run(6);
    assert_eq!(fresh.traffic(), cont.traffic(), "traffic tally diverged");
}

#[test]
fn mr2d_checkpoint_roundtrip_bitwise() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 5, 7);
}

#[test]
fn mr3d_checkpoint_roundtrip_bitwise() {
    let geom = duct(8, 6, 6);
    let mk = || {
        let mut s: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 3, 5);
}

#[test]
fn multi_st_checkpoint_roundtrip_bitwise() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 4, 6);
}

#[test]
fn multi_mr2d_checkpoint_roundtrip_bitwise() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 4, 6);
}

/// A multi-device checkpoint taken mid-run carries the overlap stats, so
/// the restored run's schedule accounting continues where it left off.
#[test]
fn multi_mr2d_checkpoint_restores_overlap_stats() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut cont = mk();
    cont.run(10);
    let mut inter = mk();
    inter.run(4);
    let snap = inter.checkpoint();
    let mut fresh = mk();
    fresh.restore(&snap).unwrap();
    assert_eq!(fresh.stats().steps, 4, "restored stats lost steps");
    fresh.run(6);
    assert_eq!(fresh.stats().steps, cont.stats().steps);
    assert_eq!(
        fresh.stats().total_s.to_bits(),
        cont.stats().total_s.to_bits(),
        "overlap timing accounting diverged"
    );
    assert_eq!(
        fresh.stats().exchange_s.to_bits(),
        cont.stats().exchange_s.to_bits()
    );
}

#[test]
fn multi_mr3d_checkpoint_roundtrip_bitwise() {
    let geom = duct(12, 8, 8);
    let mk = || {
        let mut s: MultiMrSim3D<D3Q19> = MultiMrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            3,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 3, 3);
}

/// PR 9 satellite: the in-place AA driver's parity-tagged checkpoint
/// round-trips at *odd* parity — the snapshot lands mid-AA-cycle (after
/// the stream half-step, flavor `"aa-st+odd"`), and the restored driver
/// must resume with the collide half-step, bitwise.
#[test]
fn aa_checkpoint_roundtrip_at_odd_parity() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: AaStSim<D2Q9, _> =
            AaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 5, 7);
}

/// Sharded AA, same odd-parity contract — plus the snapshot must carry
/// every shard's ghost columns so the pending collide half-step reads the
/// same halo values the uninterrupted run saw.
#[test]
fn multi_aa_checkpoint_roundtrip_at_odd_parity() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiAaStSim<D2Q9, _> =
            MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 5, 7);
}

/// The sharded AA stream half-step updates its lattice in place, so a
/// post-exchange that fails after the launch cannot be retried from the
/// top: the step is parked and the next `try_step` finishes the exchange.
/// Every link's first use in a stream step is a pre-exchange, hence the
/// skip: the fault lands on the first transfer of the post-exchange.
#[test]
fn multi_aa_parked_post_exchange_is_finished_by_the_next_step() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiAaStSim<D2Q9, _> =
            MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let faulted = |skip: u64| {
        let mut plan = FaultPlan::new();
        plan.fail_link_after(1, 0, skip, 1);
        let plan = Arc::new(plan);
        let sim = mk()
            .with_halo_retry(HaloRetryPolicy {
                max_attempts: 1,
                backoff_base_us: 1,
            })
            .with_fault_plan(plan.clone());
        (sim, plan)
    };
    // Steps, fields, link bytes and every shard's lattice as the blob holds
    // it (ghost columns included). The blob's head — LBCK framing, five
    // guards, `t` and the seven overlap words — is left out: the modeled
    // timing of a parked step counts only the exchange that finished it.
    let state = |s: &MultiAaStSim<D2Q9, Projective>| {
        (
            s.steps(),
            checksum_of(s),
            s.interconnect().total_link_bytes(),
            s.checkpoint().split_off(32 + 8 * (5 + 1 + 7)),
        )
    };

    // A stream half-step sends 1 → 0 once in its pre-exchange and opens its
    // post-exchange with the second. Steps 0 and 1 run clean; step 2 is the
    // next stream half-step, so its post-exchange is the fourth transfer.
    let mut clean = mk();
    let (mut sim, plan) = faulted(3);
    clean.run(2);
    sim.run(2);
    let before = checksum_of(&sim);
    let err = sim.try_step().unwrap_err();
    assert!(matches!(
        err,
        LinkError::Down {
            from: 1,
            to: 0,
            permanent: false
        }
    ));
    assert_eq!(plan.link_faults_fired(), 1);
    assert_eq!(sim.steps(), 2, "a parked step must not count");
    assert_ne!(
        checksum_of(&sim),
        before,
        "the in-place launch had run: only a post-exchange parks a step"
    );
    sim.try_step().unwrap();
    clean.step();
    assert_eq!(sim.steps(), 3, "the parked step counts once");
    assert!(
        state(&sim) == state(&clean),
        "diverged after the parked step"
    );
    sim.run(4);
    clean.run(4);
    assert!(state(&sim) == state(&clean), "diverged four steps later");

    // A restore while parked drops the pending exchange with the state it
    // belonged to: the restored run replays the clean trajectory.
    let mut clean = mk();
    clean.run(1);
    let snap = clean.checkpoint();
    clean.run(5);
    let (mut sim, _) = faulted(1);
    sim.try_step().unwrap_err();
    assert_eq!(sim.steps(), 0);
    sim.restore(&snap).unwrap();
    assert_eq!(sim.steps(), 1);
    sim.run(5);
    assert_eq!(sim.steps(), 6);
    assert_eq!(checksum_of(&sim), checksum_of(&clean));
    assert!(
        sim.checkpoint() == clean.checkpoint(),
        "restore kept a mark"
    );
}

/// The moment-twist checkpoints carry the plane parity in their flavor
/// (`"mr2d-twist+odd"` / `"mr3d-twist+odd"`): restoring at odd parity
/// must land on reversed plane order and keep stepping bitwise.
#[test]
fn mr_twist_checkpoint_roundtrip_at_odd_parity() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk2 = || {
        let mut s: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2)
        .with_twist();
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk2(), mk2(), mk2(), 5, 7);

    let geom3 = duct(8, 6, 6);
    let mk3 = || {
        let mut s: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::mi100(),
            geom3.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2)
        .with_twist();
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk3(), mk3(), mk3(), 3, 5);
}

/// Corrupt, truncated, and wrong-flavor snapshots are rejected with typed
/// errors instead of silently restoring garbage.
#[test]
fn restore_rejects_bad_snapshots() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut st: StSim<D2Q9, _> =
        StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
    st.run(2);
    let snap = st.checkpoint();

    let mut flipped = snap.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    assert!(matches!(
        st.restore(&flipped),
        Err(CheckpointError::ChecksumMismatch)
    ));

    assert!(matches!(
        st.restore(&snap[..snap.len() - 9]),
        Err(CheckpointError::Truncated)
    ));

    let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    assert!(matches!(
        mr.restore(&snap),
        Err(CheckpointError::WrongFlavor { .. })
    ));

    // The sim still runs after the rejected restores.
    st.restore(&snap).unwrap();
    st.run(1);
}

/// Recovery harness: `clean` runs uninterrupted; `faulted` (identically
/// built, with `plan` attached) runs under the recovery loop. The fault
/// must actually fire, trigger at least one rollback, and the recovered
/// trajectory must end bitwise-identical to the clean one.
fn assert_recovers<S: Simulation>(
    mut clean: S,
    mut faulted: S,
    plan: Arc<FaultPlan>,
    target: u64,
    every: u64,
) {
    while clean.steps() < target {
        clean.try_step().unwrap();
    }
    let want = checksum_of(&clean);

    let cfg = RecoveryConfig {
        checkpoint_every: every,
        max_rollbacks: 8,
        fault_watch: Some(plan.clone()),
        obs: None,
        ctx: None,
    };
    let stats = run_with_recovery(&mut faulted, target, &cfg).unwrap();
    assert!(plan.total_fired() >= 1, "the fault never fired");
    assert!(stats.rollbacks >= 1, "fault fired but no rollback happened");
    assert!(stats.steps_replayed >= 1);
    assert_eq!(faulted.steps(), target);
    assert_eq!(
        checksum_of(&faulted),
        want,
        "recovered run is not bitwise-identical to the fault-free run"
    );
}

#[test]
fn st_recovers_from_nan_fault() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // Node 69 = (x 5, y 4), direction 0: written once per step, so the
    // fault lands deterministically on the 5th step — after the step-4
    // checkpoint.
    plan.inject_nan(69, 4);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

#[test]
fn mr2d_recovers_from_nan_fault() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // Raw index 100 = moment plane 0, slot 100; the circular shift walks
    // that slot through wall rows, so it only takes a counted write on
    // some steps — skip 2 fires it a couple of steps past the first
    // checkpoint.
    plan.inject_nan(100, 2);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

#[test]
fn mr3d_recovers_from_bitflip_fault() {
    let geom = duct(8, 6, 6);
    let mk = || {
        let mut s: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // Flip the sign bit of a mid-lattice moment slot on its 4th write:
    // finite corruption that only the rollback (not a NaN scan) can undo.
    plan.inject_bitflip(400, 63, 3);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 9, 3);
}

#[test]
fn st_recovers_from_launch_abort() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // One bulk launch per step on this wall-bounded domain: abort the 7th.
    // The skipped kernel leaves *stale but finite* fields — only the
    // fault-watch channel can catch it.
    plan.abort_launch(6);
    let plan = Arc::new(plan);
    assert_recovers(
        mk(),
        mk().with_fault_plan(plan.clone()),
        plan.clone(),
        12,
        4,
    );
    assert_eq!(plan.aborts_fired(), 1);
}

#[test]
fn multi_st_recovers_from_nan_fault() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.inject_nan(30, 8);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

#[test]
fn multi_mr2d_recovers_from_nan_fault() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.inject_nan(40, 10);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

#[test]
fn multi_mr3d_recovers_from_nan_fault() {
    let geom = duct(12, 8, 8);
    let mk = || {
        let mut s: MultiMrSim3D<D3Q19> = MultiMrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            3,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // Shard-local node 110 = (x 2, y 2, z 2): an owned fluid column on
    // every shard, so the shared skip counter advances once per shard per
    // step and the fault fires deterministically on step 2.
    plan.inject_nan(110, 4);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 9, 3);
}

/// Recovery is visible in the observability layer: rollback counters and
/// a `rollback` span with from/to steps.
#[test]
fn recovery_emits_obs_counters_and_spans() {
    let hub = obs::Obs::shared();
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut sim: StSim<D2Q9, _> =
        StSim::new(DeviceSpec::v100(), geom, Projective::new(0.8)).with_cpu_threads(2);
    sim.init_with(shear_init);
    let mut plan = FaultPlan::new();
    plan.inject_nan(69, 4);
    let plan = Arc::new(plan);
    let mut sim = sim.with_fault_plan(plan.clone());
    let cfg = RecoveryConfig {
        checkpoint_every: 4,
        max_rollbacks: 8,
        fault_watch: Some(plan),
        obs: Some(hub.clone()),
        ctx: None,
    };
    let stats = run_with_recovery(&mut sim, 12, &cfg).unwrap();
    assert!(stats.rollbacks >= 1);
    assert_eq!(
        hub.metrics.counter("recovery_rollbacks_total", &[]),
        Some(stats.rollbacks)
    );
    assert_eq!(
        hub.metrics.counter("recovery_faults_detected", &[]),
        Some(stats.faults_detected)
    );
    assert!(hub
        .metrics
        .counter("recovery_checkpoints_total", &[])
        .is_some());
    let events = hub.tracer.events();
    assert!(
        events.iter().any(|e| e.ph == 'B' && e.name == "rollback"),
        "no rollback span emitted"
    );
}

/// A transient link failure in a 4-device ring is absorbed by the
/// driver's bounded-backoff retry: same fields, byte-identical link
/// tallies, and the retries are visible in the counters.
#[test]
fn transient_link_failure_is_retried_with_identical_tallies() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut clean = mk();
    clean.run(6);

    let hub = obs::Obs::shared();
    let mut plan = FaultPlan::new();
    plan.fail_link(0, 1, 2);
    let plan = Arc::new(plan);
    let mut faulted = mk()
        .with_obs(hub.clone())
        .with_halo_retry(HaloRetryPolicy {
            max_attempts: 3,
            backoff_base_us: 1,
        })
        .with_fault_plan(plan.clone());
    faulted.run(6);

    assert_eq!(plan.link_faults_fired(), 2, "both transient faults fired");
    assert_eq!(faulted.halo_retries(), 2, "each failure retried once");
    assert_eq!(
        hub.metrics.counter("halo_retries", &[("link", "0->1")]),
        Some(2)
    );
    // Failed attempts record zero bytes, so the tallies match exactly.
    assert_eq!(
        faulted.interconnect().total_link_bytes(),
        clean.interconnect().total_link_bytes(),
        "retries double-counted link traffic"
    );
    assert_eq!(checksum_of(&faulted), checksum_of(&clean));
    assert_eq!(faulted.velocity_field(), clean.velocity_field());
}

/// A permanent link failure cannot be retried away: `try_step` surfaces a
/// typed error without advancing state, and the recovery loop gives it up
/// as unrecoverable.
#[test]
fn permanent_link_failure_surfaces_typed_error() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut plan = FaultPlan::new();
    plan.fail_link_permanently(0, 1);
    let plan = Arc::new(plan);
    let mut sim: MultiMrSim2D<D2Q9> =
        MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
            .with_cpu_threads(4)
            .with_fault_plan(plan.clone());
    sim.init_with(shear_init);

    let err = sim.try_step().unwrap_err();
    assert!(matches!(
        err,
        LinkError::Down {
            permanent: true,
            ..
        }
    ));
    assert_eq!(sim.steps(), 0, "failed step must not advance time");
    assert_eq!(sim.halo_retries(), 0, "permanent failures are not retried");

    let cfg = RecoveryConfig {
        fault_watch: Some(plan),
        ..Default::default()
    };
    match run_with_recovery(&mut sim, 4, &cfg) {
        Err(RecoveryError::Step(StepError::Link {
            permanent: true, ..
        })) => {}
        other => panic!("expected a permanent link error, got {other:?}"),
    }
}

/// When the transient-failure burst outlasts the retry budget, the driver
/// reports the link down instead of spinning forever.
#[test]
fn retry_budget_exhaustion_surfaces_transient_error() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut plan = FaultPlan::new();
    plan.fail_link(0, 1, 10);
    let mut sim: MultiMrSim2D<D2Q9> =
        MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 4)
            .with_cpu_threads(4)
            .with_halo_retry(HaloRetryPolicy {
                max_attempts: 2,
                backoff_base_us: 1,
            })
            .with_fault_plan(Arc::new(plan));
    sim.init_with(shear_init);
    let err = sim.try_step().unwrap_err();
    assert!(matches!(
        err,
        LinkError::Down {
            permanent: false,
            ..
        }
    ));
    assert_eq!(sim.halo_retries(), 1, "one retry before giving up");
    assert_eq!(sim.steps(), 0);
}

/// A transfer that fails *past the first* of its exchange, with no
/// in-transfer retry to absorb it: the step fails with the earlier transfers
/// already on the links, and the retried step must not send those again —
/// the interconnect carries every halo byte exactly once, and the fields
/// and the modeled timing are the fault-free run's.
#[test]
fn step_level_retry_tallies_each_transfer_once() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let no_retry = HaloRetryPolicy {
        max_attempts: 1,
        backoff_base_us: 1,
    };
    let link_2_to_1_fails_after = |skip: u64| {
        let mut plan = FaultPlan::new();
        plan.fail_link_after(2, 1, skip, 1);
        Arc::new(plan)
    };
    let down = |e: LinkError| {
        matches!(
            e,
            LinkError::Down {
                from: 2,
                to: 1,
                permanent: false
            }
        )
    };

    // The shared whole-node exchange. Cuts are walked in order, so 2 -> 1 is
    // the fourth transfer of a step; the first one through is step 0's.
    let mk = || {
        let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut clean = mk();
    clean.run(3);
    let mut sim = mk()
        .with_halo_retry(no_retry)
        .with_fault_plan(link_2_to_1_fails_after(1));
    let per_step = sim.halo_bytes_per_step();
    sim.try_step().unwrap();
    assert!(down(sim.try_step().unwrap_err()));
    assert_eq!(sim.steps(), 1, "a failed step must not count");
    assert!(
        sim.interconnect().total_link_bytes() > per_step,
        "the fault must land past the first transfer of its exchange"
    );
    sim.try_step().unwrap();
    sim.try_step().unwrap();
    assert_eq!((sim.steps(), sim.halo_retries()), (3, 0));
    assert_eq!(
        sim.interconnect().total_link_bytes(),
        3 * per_step,
        "the retried step sent a transfer twice"
    );
    assert_eq!(checksum_of(&sim), checksum_of(&clean));
    assert_eq!(sim.stats(), clean.stats());

    // The AA slot exchange, failing in the pre-exchange of step 2 (its
    // fourth transfer; 2 -> 1 is sent twice per stream half-step) and in its
    // post-exchange (the third), where the step is parked.
    let mk = || {
        let mut s: MultiAaStSim<D2Q9, _> =
            MultiAaStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut clean = mk();
    clean.run(4);
    for skip in [2, 3] {
        let mut sim = mk()
            .with_halo_retry(no_retry)
            .with_fault_plan(link_2_to_1_fails_after(skip));
        sim.run(2);
        let sent = sim.interconnect().total_link_bytes();
        assert!(down(sim.try_step().unwrap_err()));
        assert_eq!(sim.steps(), 2);
        assert!(sim.interconnect().total_link_bytes() > sent, "skip {skip}");
        sim.try_step().unwrap();
        sim.try_step().unwrap();
        assert_eq!(sim.steps(), 4);
        assert_eq!(
            sim.interconnect().total_link_bytes(),
            2 * sim.halo_bytes_per_cycle(),
            "skip {skip}: the retried step sent a transfer twice"
        );
        assert_eq!(checksum_of(&sim), checksum_of(&clean), "skip {skip}");
    }
}

/// A fault that re-fires on every replay exhausts the rollback budget and
/// the loop reports `GaveUp` instead of looping forever.
#[test]
fn recovery_gives_up_after_rollback_budget() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut sim: StSim<D2Q9, _> =
        StSim::new(DeviceSpec::v100(), geom, Projective::new(0.8)).with_cpu_threads(2);
    sim.init_with(shear_init);
    let mut plan = FaultPlan::new();
    // Six one-shot faults on the same cell, skips 0..=5: every replay of
    // the first step fires the next one.
    for skip in 0..6 {
        plan.inject_nan(69, skip);
    }
    let plan = Arc::new(plan);
    let mut sim = sim.with_fault_plan(plan.clone());
    let cfg = RecoveryConfig {
        checkpoint_every: 4,
        max_rollbacks: 2,
        fault_watch: Some(plan),
        obs: None,
        ctx: None,
    };
    match run_with_recovery(&mut sim, 12, &cfg) {
        Err(RecoveryError::GaveUp { rollbacks, .. }) => assert_eq!(rollbacks, 2),
        other => panic!("expected GaveUp, got {other:?}"),
    }
}

/// Driver-level regression for the monitor final-sample fix: with cadence
/// 16, a 17-step run must still observe step 17 (pre-fix, a NaN born on
/// the final step escaped the monitor entirely).
#[test]
fn multi_run_flushes_final_monitor_sample() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let mut sim: MultiStSim<D2Q9, _> =
        MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2)
            .with_cpu_threads(4)
            .with_monitor(obs::MonitorConfig {
                cadence: 16,
                ..Default::default()
            });
    sim.init_with(shear_init);
    sim.run(17);
    let mon = sim.monitor().unwrap();
    let steps: Vec<u64> = mon.samples().iter().map(|s| s.step).collect();
    assert_eq!(steps, vec![16, 17], "final off-cadence step not sampled");
    assert!(mon.is_ok());
}

/// Obstacle-laden porous-ish 2D slab the sparse drivers compact well.
fn obstacle_2d() -> Geometry {
    Geometry::walls_y_periodic_x(20, 10).with_cylinder(8.5, 5.0, 2.4)
}

/// 50 % hashed rock (the fleet's porous scenario): tiles of every fill,
/// halo directories of every size, and a shard cut that runs through rock.
fn rock_2d() -> Geometry {
    lbm_serve::Scenario::Porous2D {
        nx: 46,
        ny: 24,
        solid_pct: 50,
    }
    .geometry()
}

/// PR 10: the sparse drivers' parity with the dense family extends to the
/// checkpoint harness — taking a snapshot never perturbs the run, and a
/// fresh build restores bitwise (single-device ST and MR on an obstacle
/// domain, through the `Simulation` trait surface).
#[test]
fn sparse_checkpoint_roundtrip_bitwise() {
    let geom = obstacle_2d();
    let mk_st = || {
        let mut s: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk_st(), mk_st(), mk_st(), 4, 6);

    let mk_mr = || {
        let mut s: SparseMrSim2D = SparseMrSim2D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk_mr(), mk_mr(), mk_mr(), 5, 7);

    // On rock, from an odd step: the fresh build compiles its own halo
    // directory and continues bitwise.
    let mk_rock = || {
        let mut s: SparseMrSim2D = SparseMrSim2D::new(
            DeviceSpec::v100(),
            rock_2d(),
            MrScheme::recursive::<D2Q9>(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk_rock(), mk_rock(), mk_rock(), 3, 4);
}

/// Sharded sparse checkpoints (ghost columns included in every shard's
/// snapshot) round-trip bitwise too.
#[test]
fn multi_sparse_checkpoint_roundtrip_bitwise() {
    let geom = obstacle_2d();
    let mk = || {
        let mut s: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            3,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk(), mk(), mk(), 4, 6);

    // Two shards cut through rock, from an odd step: directories and the
    // exchange plan are rebuilt by the fresh build, ghosts come from the
    // snapshot.
    let mk_rock = || {
        let mut s: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
            DeviceSpec::v100(),
            rock_2d(),
            MrScheme::projective(),
            0.8,
            2,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    ckpt_roundtrip(mk_rock(), mk_rock(), mk_rock(), 3, 4);
}

/// PR 10 satellite: fault-injected sparse recovery. A NaN landing in the
/// compacted distribution storage after the step-4 checkpoint triggers a
/// rollback, and the recovered trajectory is bitwise-identical to the
/// fault-free run.
#[test]
fn sparse_st_recovers_from_nan_fault() {
    let geom = obstacle_2d();
    let mk = || {
        let mut s: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8))
                .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    // Compact slot 30: a fluid node's direction-0 entry, written exactly
    // once per step, so the one-shot fault fires deterministically on
    // step 5 — just past the step-4 checkpoint.
    plan.inject_nan(30, 4);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

/// Sparse MR under a sign-bit flip: finite corruption in the compacted
/// moment storage that only the fault-watch rollback (not a NaN scan) can
/// undo.
#[test]
fn sparse_mr_recovers_from_bitflip_fault() {
    let geom = obstacle_2d();
    let mk = || {
        let mut s: SparseMrSim2D = SparseMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.inject_bitflip(50, 63, 5);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

/// Sharded sparse ST: the fault plan rides on every shard's double
/// buffers; recovery restores all shards (ghosts included) and replays to
/// the clean checksum.
#[test]
fn multi_sparse_st_recovers_from_nan_fault() {
    let geom = obstacle_2d();
    let mk = || {
        let mut s: MultiSparseStSim<D2Q9, _> =
            MultiSparseStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.inject_nan(20, 10);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

/// Sharded sparse MR, same contract.
#[test]
fn multi_sparse_mr_recovers_from_nan_fault() {
    let geom = obstacle_2d();
    let mk = || {
        let mut s: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            3,
        )
        .with_cpu_threads(4);
        s.init_with(shear_init);
        s
    };
    let mut plan = FaultPlan::new();
    plan.inject_nan(15, 10);
    let plan = Arc::new(plan);
    assert_recovers(mk(), mk().with_fault_plan(plan.clone()), plan, 12, 4);
}

/// Where an injected write fault lands in a sharded run with no recovery
/// around it: the step on which it fired and the `(shard, global node)`
/// pairs it left non-finite.
fn fault_site<S: Simulation>(
    mut sim: S,
    plan: &FaultPlan,
    geom: &Geometry,
    shards: usize,
) -> (u64, Vec<(usize, usize)>) {
    while plan.total_fired() == 0 {
        assert!(sim.steps() < 32, "the fault never fired");
        sim.step();
    }
    let decomp = lbm_multi::SlabDecomp::new(geom.clone(), shards);
    let (rho, _) = sim.macro_fields();
    let hit: Vec<(usize, usize)> = (0..rho.len())
        .filter(|&i| geom.node_at(i).is_fluid_like() && !rho[i].is_finite())
        .map(|i| (decomp.owner_of(geom.coords(i).0), i))
        .collect();
    assert!(!hit.is_empty(), "the fault fired but left no trace");
    (sim.steps(), hit)
}

/// A fault plan's skip counters are shared by every shard's buffers, so
/// which shard takes an injected fault depends on the order of the shards'
/// launches. With a plan attached that order is index order at any thread
/// budget: the fault lands on the same step, shard and node at 4 threads
/// as at 1, for every sharded driver the recovery cases above cover.
#[test]
fn injected_faults_hit_the_same_shard_at_any_thread_budget() {
    fn same_site<S: Simulation>(
        name: &str,
        geom: &Geometry,
        shards: usize,
        (cell, skip): (usize, u64),
        mk: impl Fn(usize, Arc<FaultPlan>) -> S,
    ) {
        let site = |threads: usize| {
            let mut plan = FaultPlan::new();
            plan.inject_nan(cell, skip);
            let plan = Arc::new(plan);
            fault_site(mk(threads, plan.clone()), &plan, geom, shards)
        };
        assert_eq!(site(4), site(1), "{name}: the fault moved");
    }
    let flat = Geometry::walls_y_periodic_x(16, 8);
    same_site("multi-st", &flat, 3, (30, 8), |threads, plan| {
        let mut s: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), flat.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(threads)
                .with_fault_plan(plan);
        s.init_with(shear_init);
        s
    });
    same_site("multi-mr2d", &flat, 4, (40, 10), |threads, plan| {
        let scheme = MrScheme::projective();
        let mut s: MultiMrSim2D<D2Q9> =
            MultiMrSim2D::new(DeviceSpec::v100(), flat.clone(), scheme, 0.8, 4)
                .with_cpu_threads(threads)
                .with_fault_plan(plan);
        s.init_with(shear_init);
        s
    });
    let duct3 = duct(12, 8, 8);
    same_site("multi-mr3d", &duct3, 3, (110, 4), |threads, plan| {
        let scheme = MrScheme::projective();
        let mut s: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::v100(), duct3.clone(), scheme, 0.8, 3)
                .with_cpu_threads(threads)
                .with_fault_plan(plan);
        s.init_with(shear_init);
        s
    });
    let rock = obstacle_2d();
    same_site("multi-sparse-st", &rock, 3, (20, 10), |threads, plan| {
        let mut s: MultiSparseStSim<D2Q9, _> =
            MultiSparseStSim::new(DeviceSpec::v100(), rock.clone(), Projective::new(0.8), 3)
                .with_cpu_threads(threads)
                .with_fault_plan(plan);
        s.init_with(shear_init);
        s
    });
    same_site("multi-sparse-mr", &rock, 3, (15, 10), |threads, plan| {
        let scheme = MrScheme::projective();
        let mut s: MultiSparseMrSim<D2Q9> =
            MultiSparseMrSim::new(DeviceSpec::v100(), rock.clone(), scheme, 0.8, 3)
                .with_cpu_threads(threads)
                .with_fault_plan(plan);
        s.init_with(shear_init);
        s
    });
}

//! Fleet scheduler suite: the multi-tenant service's determinism contract
//! (every job checksum bitwise-equal to a solo run), checkpoint-backed
//! preemption, quotas, cancellation, starvation bounds, and deterministic
//! replay of the seeded arrival process.

use gpu_sim::FaultPlan;
use lbm_serve::{
    solo_checksum, ArrivalProcess, JobId, JobSpec, JobState, Pattern, Priority, Scenario, Serve,
    ServeConfig, SubmitError, TenantQuota,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg(executors: usize) -> ServeConfig {
    ServeConfig {
        executors,
        ..Default::default()
    }
}

/// Poll `status` until the job is in `state` (or panic after 10 s —
/// generous; these lattices step in microseconds). A job that ends in
/// another terminal state can never get there: panic at once, with the
/// status.
fn wait_for_state(serve: &Serve, id: JobId, state: JobState) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = serve.status(id).expect("known job");
        if status.state == state {
            return;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended before reaching {state:?}; status = {status:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job never reached {state:?}; status = {:?}",
            serve.status(id)
        );
        std::thread::yield_now();
    }
}

/// Form one four-member group of `specs` on a two-executor fleet and
/// leave the other executor idle. Two gates (jobs only `cancel` ends) hold
/// both executors while the four are queued, so they wait together; then
/// both gates are canceled. The executor that reaches the queue first
/// takes all four (`batch_max` 4) and the other finds it empty and parks.
///
/// How soon the second executor parks is up to the OS, so a group of jobs
/// that all end could finish before it does. A test that needs a hand-off
/// puts two [`anchor`]s in the group: they keep it at two members or more
/// until the test cancels them, so the parked executor is always offered
/// one.
fn one_group_of_four(serve: &Serve, specs: &[JobSpec]) -> Vec<JobId> {
    let (ids, second) = one_group_of_four_held(serve, specs);
    assert!(serve.cancel(second));
    ids
}

/// [`one_group_of_four`] with the second gate still running: the caller
/// cancels the returned gate when the other executor should park.
fn one_group_of_four_held(serve: &Serve, specs: &[JobSpec]) -> (Vec<JobId>, JobId) {
    assert_eq!(specs.len(), 4, "one group of four");
    let gate = || JobSpec::shear_2d("gate", 16, 8, 1 << 40);
    let first = serve.submit(gate()).unwrap();
    wait_for_state(serve, first, JobState::Running);
    let second = serve.submit(gate()).unwrap();
    wait_for_state(serve, second, JobState::Running);
    let ids = specs
        .iter()
        .map(|s| serve.submit(s.clone()).expect("admitted"))
        .collect();
    assert!(serve.cancel(first));
    (ids, second)
}

/// Poll the event log until job `id` has started a slice (or panic after
/// 10 s).
fn wait_for_slice(hub: &obs::Obs, id: JobId) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !hub
        .events
        .snapshot()
        .iter()
        .any(|e| e.kind == obs::EventKind::Slice && e.job == Some(id.0))
    {
        assert!(Instant::now() < deadline, "job {id:?} never ran a slice");
        std::thread::yield_now();
    }
}

/// `spec` made into a batch job that only `cancel` ends.
fn anchor(spec: JobSpec) -> JobSpec {
    JobSpec {
        priority: Priority::Batch,
        steps: 1 << 40,
        ..spec
    }
}

/// Poll until the fleet has handed a member of `class` to an idle
/// executor (or panic after 10 s).
fn wait_for_handoff(hub: &obs::Obs, class: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub
        .metrics
        .counter("serve_handoffs", &[("class", class)])
        .is_none()
    {
        assert!(Instant::now() < deadline, "no member was ever handed off");
        std::hint::spin_loop();
    }
}

/// The value of argument `key` on a logged event.
fn arg<'e>(e: &'e obs::FleetEvent, key: &str) -> Option<&'e str> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Core contract: a mixed fleet of jobs, every one completed exactly once,
/// every checksum bitwise-equal to a solo run of the same spec.
#[test]
fn fleet_results_match_solo_runs() {
    let serve = Serve::start(cfg(3));
    let specs: Vec<JobSpec> = ArrivalProcess::new(11, 48).collect();
    let ids: Vec<JobId> = specs
        .iter()
        .map(|s| serve.submit(s.clone()).expect("admitted"))
        .collect();
    // No duplicate IDs (no duplicated jobs).
    let mut seen = std::collections::HashSet::new();
    assert!(ids.iter().all(|id| seen.insert(*id)), "duplicate job IDs");

    serve.drain();
    let mut oracle: HashMap<_, u64> = HashMap::new();
    for (spec, id) in specs.iter().zip(&ids) {
        let result = serve.wait(*id).expect("job completed");
        assert_eq!(result.steps, spec.steps, "job ran the wrong step count");
        let want = *oracle
            .entry(spec.physics_key())
            .or_insert_with(|| solo_checksum(spec));
        assert_eq!(
            result.checksum, want,
            "fleet checksum diverged from solo run for {spec:?}"
        );
    }
}

/// Satellite: evict a running MR-R job mid-flight (checkpoint → drop →
/// requeue → rebuild → restore) and require the final checksum to be
/// bitwise-equal to an uninterrupted run.
#[test]
fn evicted_mr_r_job_resumes_bitwise_identical() {
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        ..Default::default()
    });
    // Long enough (500 slices) that the job is still mid-flight when the
    // interactive pressure lands, even with the vectorized 2D kernels.
    let batch = JobSpec {
        priority: Priority::Batch,
        pattern: Pattern::MrR,
        steps: 2000,
        ..JobSpec::shear_2d("acme", 24, 10, 2000)
    };
    let batch_id = serve.submit(batch.clone()).unwrap();
    wait_for_state(&serve, batch_id, JobState::Running);

    // Interactive pressure while the only executor is busy → eviction.
    let mut fg = JobSpec::shear_2d("nova", 16, 8, 8);
    fg.priority = Priority::Interactive;
    let fg_id = serve.submit(fg).unwrap();

    serve.wait(fg_id).expect("interactive job completed");
    let result = serve.wait(batch_id).expect("batch job completed");
    assert!(
        result.evictions >= 1,
        "the batch job was never preempted (evictions = {})",
        result.evictions
    );
    assert_eq!(
        result.checksum,
        solo_checksum(&batch),
        "resume after eviction diverged from the uninterrupted trajectory"
    );
}

/// Quota rejection is synchronous and releases on completion.
#[test]
fn quota_rejects_and_recovers() {
    let mut quotas = HashMap::new();
    quotas.insert(
        "acme".to_string(),
        TenantQuota {
            max_in_flight: 2,
            max_resident_bytes: usize::MAX,
        },
    );
    let serve = Serve::start(ServeConfig {
        executors: 1,
        quotas,
        ..Default::default()
    });
    // A gate the test controls: a job only `cancel` ends holds the one
    // executor (a running interactive group is neither joined nor evicted),
    // so `a` and `b` stay queued — in flight, charged to the quota — until
    // the gate opens, however fast a 16×8 job steps.
    let gate = serve
        .submit(JobSpec::shear_2d("gate", 16, 8, 1 << 40))
        .unwrap();
    wait_for_state(&serve, gate, JobState::Running);
    let spec = JobSpec::shear_2d("acme", 16, 8, 12);
    let a = serve.submit(spec.clone()).unwrap();
    let b = serve.submit(spec.clone()).unwrap();
    match serve.submit(spec.clone()) {
        Err(SubmitError::QuotaExceeded { tenant, .. }) => assert_eq!(tenant, "acme"),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // Another tenant is unaffected.
    serve.submit(JobSpec::shear_2d("nova", 16, 8, 12)).unwrap();
    // Capacity returns once a job completes.
    assert!(serve.cancel(gate), "the gate was still running");
    serve.wait(a).unwrap();
    serve.wait(b).unwrap();
    serve.submit(spec).expect("quota released after completion");
    serve.drain();
}

/// Invalid specs are rejected before admission.
#[test]
fn invalid_specs_are_rejected() {
    let serve = Serve::start(cfg(1));
    let bad_tau = JobSpec {
        tau: 0.4,
        ..JobSpec::shear_2d("acme", 16, 8, 4)
    };
    assert!(matches!(
        serve.submit(bad_tau),
        Err(SubmitError::Invalid(_))
    ));
    let bad_slabs = JobSpec {
        devices: 16,
        ..JobSpec::shear_2d("acme", 16, 8, 4)
    };
    assert!(matches!(
        serve.submit(bad_slabs),
        Err(SubmitError::Invalid(_))
    ));
    assert!(matches!(
        serve.submit(JobSpec::shear_2d("acme", 16, 8, 0)),
        Err(SubmitError::Invalid(_))
    ));
    // A slab left with nothing but rock: its device would have no fluid
    // node to update, whatever the other slabs hold.
    for pattern in [Pattern::SparseSt, Pattern::SparseMr] {
        let rock_slab = JobSpec {
            scenario: Scenario::Porous2D {
                nx: 16,
                ny: 6,
                solid_pct: 90,
            },
            pattern,
            devices: 4,
            ..JobSpec::shear_2d("acme", 16, 6, 4)
        };
        assert!(rock_slab.scenario.geometry().fluid_count() > 0);
        assert!(matches!(
            serve.submit(rock_slab),
            Err(SubmitError::Invalid(_))
        ));
    }
    // Hostile extents: a node or byte count past `usize`, or (sparse, whose
    // admission builds the geometry) a node map no device could hold, is a
    // typed rejection before anything is allocated — not a multiply
    // overflow, a wrapped quota charge or a terabyte `Vec`.
    let huge = 1usize << 40;
    let hostile = [
        (Scenario::Shear2D { nx: huge, ny: huge }, Pattern::MrP),
        (
            Scenario::Shear3D {
                nx: 1 << 21,
                ny: 1 << 21,
                nz: 1 << 21,
            },
            Pattern::St,
        ),
        (
            Scenario::Porous2D {
                nx: huge,
                ny: huge,
                solid_pct: 50,
            },
            Pattern::SparseMr,
        ),
        (
            Scenario::Porous2D {
                nx: 1 << 20,
                ny: 1 << 20,
                solid_pct: 50,
            },
            Pattern::SparseSt,
        ),
    ];
    for (scenario, pattern) in hostile {
        let spec = JobSpec {
            scenario,
            pattern,
            ..JobSpec::shear_2d("acme", 16, 8, 4)
        };
        assert_eq!(spec.estimated_resident_bytes(), usize::MAX, "{scenario:?}");
        assert!(
            matches!(serve.submit(spec), Err(SubmitError::Invalid(_))),
            "{scenario:?} was not refused"
        );
    }
    assert_eq!(
        serve.tenant_usage("acme").in_flight,
        0,
        "nothing was queued"
    );
}

/// Cancel while queued: synchronous, quota released immediately, waiters
/// see `Canceled`.
#[test]
fn cancel_while_queued_is_synchronous() {
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        ..Default::default()
    });
    // Occupy the only executor with a job only `cancel` ends, however fast
    // a 24×10 lattice steps.
    let mut blocker = JobSpec::shear_2d("acme", 24, 10, 100_000);
    blocker.priority = Priority::Batch;
    let blocker_id = serve.submit(blocker).unwrap();
    wait_for_state(&serve, blocker_id, JobState::Running);

    let victim_id = serve.submit(JobSpec::shear_2d("nova", 16, 8, 50)).unwrap();
    assert_eq!(serve.tenant_usage("nova").in_flight, 1);
    assert!(serve.cancel(victim_id), "cancel of a queued job succeeds");
    assert_eq!(
        serve.status(victim_id).unwrap().state,
        JobState::Canceled,
        "queued cancel must be synchronous"
    );
    assert_eq!(
        serve.tenant_usage("nova").in_flight,
        0,
        "cancel must release quota"
    );
    assert!(!serve.cancel(victim_id), "double cancel reports false");
    assert!(matches!(serve.wait(victim_id), Err(JobState::Canceled)));

    assert!(serve.cancel(blocker_id));
    serve.drain();
}

/// Cancel while running: takes effect at the next slice boundary; the job
/// never completes and its steps stop short of the target.
#[test]
fn cancel_while_running_stops_at_slice_boundary() {
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 2,
        ..Default::default()
    });
    let long = JobSpec::shear_2d("acme", 24, 10, 100_000);
    let id = serve.submit(long).unwrap();
    wait_for_state(&serve, id, JobState::Running);
    assert!(serve.cancel(id));
    assert!(matches!(serve.wait(id), Err(JobState::Canceled)));
    let status = serve.status(id).unwrap();
    assert!(
        status.steps_done < status.steps_target,
        "canceled job ran to completion anyway"
    );
    assert!(serve.result(id).is_none(), "canceled jobs have no result");
}

/// Aging bounds batch wait under sustained interactive load: the batch job
/// keeps being preempted only until its effective priority ages up to the
/// interactive base, after which it runs to completion — with the correct
/// checksum despite all the evictions.
#[test]
fn aging_bounds_batch_starvation() {
    let interactive_base = 8;
    let aging = 4;
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        interactive_base,
        aging,
        ..Default::default()
    });
    // Long enough that the interactive stream below overlaps the run
    // (the vectorized 2D kernels finish 120 steps before the first poll).
    let batch = JobSpec {
        priority: Priority::Batch,
        pattern: Pattern::MrP,
        ..JobSpec::shear_2d("acme", 20, 8, 2000)
    };
    let batch_id = serve.submit(batch.clone()).unwrap();
    wait_for_state(&serve, batch_id, JobState::Running);

    // Sustained interactive pressure: keep one interactive job queued
    // until the batch job finishes (bounded by a generous cap).
    let mut fg_ids = Vec::new();
    for _ in 0..200 {
        if serve.status(batch_id).unwrap().state == JobState::Completed {
            break;
        }
        fg_ids.push(serve.submit(JobSpec::shear_2d("nova", 12, 6, 4)).unwrap());
        std::thread::sleep(Duration::from_millis(1));
    }
    let result = serve.wait(batch_id).expect("batch job completed");
    // Eviction immunity kicks in after ceil(base/aging) passed-over
    // rounds, so evictions are bounded regardless of how long the
    // interactive stream continues.
    let bound = interactive_base.div_ceil(aging) + 1;
    assert!(
        result.evictions <= bound,
        "batch job evicted {} times; aging should cap it near {bound}",
        result.evictions
    );
    assert_eq!(result.checksum, solo_checksum(&batch));
    for id in fg_ids {
        serve.wait(id).expect("interactive job completed");
    }
}

/// Replay determinism: the same seeded arrival process served twice (on a
/// concurrent fleet each time) produces identical per-job checksums.
#[test]
fn seeded_arrivals_replay_identically() {
    let run = || -> Vec<u64> {
        let serve = Serve::start(cfg(2));
        let ids: Vec<JobId> = ArrivalProcess::new(99, 32)
            .map(|s| serve.submit(s).expect("admitted"))
            .collect();
        ids.iter()
            .map(|id| serve.wait(*id).expect("completed").checksum)
            .collect()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replay of seed 99 diverged");
}

/// A resilient job with an injected NaN fault recovers *inside the fleet*
/// and still matches the fault-free solo checksum.
#[test]
fn resilient_job_recovers_from_injected_fault() {
    let serve = Serve::start(cfg(1));
    let mut plan = FaultPlan::new();
    plan.inject_nan(40, 6);
    let spec = JobSpec {
        resilient: true,
        fault_plan: Some(Arc::new(plan)),
        pattern: Pattern::MrP,
        ..JobSpec::shear_2d("acme", 20, 8, 48)
    };
    let id = serve.submit(spec.clone()).unwrap();
    let result = serve.wait(id).expect("resilient job completed");
    assert!(
        result.rollbacks >= 1,
        "the injected fault never triggered a rollback"
    );
    assert_eq!(
        result.checksum,
        solo_checksum(&spec),
        "recovery inside the fleet diverged from the clean trajectory"
    );

    // Two executors: four such jobs in one group, two of them anchors, so
    // the idle executor always adopts a job with an injected fault.
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 2,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    let faulty = |steps| {
        let mut plan = FaultPlan::new();
        plan.inject_nan(40, 6);
        JobSpec {
            resilient: true,
            fault_plan: Some(Arc::new(plan)),
            pattern: Pattern::MrP,
            priority: Priority::Batch,
            ..JobSpec::shear_2d("acme", 20, 8, steps)
        }
    };
    let specs = [
        anchor(faulty(1)),
        faulty(160),
        anchor(faulty(1)),
        faulty(160),
    ];
    let ids = one_group_of_four(&serve, &specs);
    for k in [1, 3] {
        let result = serve.wait(ids[k]).expect("resilient job completed");
        assert!(
            result.rollbacks >= 1,
            "the injected fault never triggered a rollback"
        );
        assert_eq!(
            result.checksum,
            solo_checksum(&specs[k]),
            "recovery inside the fleet diverged from the clean trajectory"
        );
    }
    wait_for_handoff(&hub, "batch");
    assert!(serve.cancel(ids[0]) && serve.cancel(ids[2]));
    serve.drain();
    drop(serve);
    let replayed = obs::events::replay(&hub.events.snapshot()).expect("event log replays");
    assert!(
        ids.iter().any(|id| replayed[&id.0].handoffs >= 1),
        "no job with an injected fault was adopted"
    );
    assert!(
        ids.iter().all(|id| replayed[&id.0].rollbacks >= 1),
        "a fault never fired"
    );
}

/// Work conservation: with the ready queue empty, an idle executor adopts
/// a member of the other executor's four-member group at a slice
/// boundary. The adopted job runs on under a fresh group id, built once,
/// and every checksum still equals its solo run.
#[test]
fn idle_executor_adopts_a_member_of_a_busy_group() {
    // Two anchors make a hand-off certain; which member is due next when the
    // executor parks is not, so rounds repeat until a job that completes
    // (and so has a checksum) was the one adopted. The second executor
    // parks only once the group is slicing (an executor that parks while
    // the group is still being built is always offered its first member,
    // an anchor); the anchors' slices are the long ones, so the member due
    // after them, a finite job, is the likely one.
    let mut adopted_a_finite_job = false;
    for _ in 0..20 {
        let hub = obs::Obs::shared();
        let serve = Serve::start(ServeConfig {
            executors: 2,
            slice_steps: 4,
            obs: Some(hub.clone()),
            ..Default::default()
        });
        let finite = |pattern| JobSpec {
            pattern,
            priority: Priority::Batch,
            ..JobSpec::shear_2d("acme", 20, 8, 400)
        };
        let specs = [
            anchor(JobSpec::shear_2d("acme", 48, 24, 1)),
            finite(Pattern::MrR),
            anchor(JobSpec::shear_2d("acme", 48, 24, 1)),
            finite(Pattern::St),
        ];
        let (ids, gate) = one_group_of_four_held(&serve, &specs);
        wait_for_slice(&hub, ids[0]);
        assert!(serve.cancel(gate));
        for k in [1, 3] {
            assert_eq!(
                serve.wait(ids[k]).expect("completed").checksum,
                solo_checksum(&specs[k]),
                "a served job diverged from its solo run for {:?}",
                specs[k]
            );
        }
        wait_for_handoff(&hub, "batch");
        assert!(serve.cancel(ids[0]) && serve.cancel(ids[2]));
        serve.drain();
        drop(serve);

        let events = hub.events.snapshot();
        let replayed = obs::events::replay(&events).expect("event log replays");
        let members = ids
            .iter()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert!(
            events.iter().any(|e| e.kind == obs::EventKind::GroupForm
                && arg(e, "members") == Some(members.as_str())),
            "the four jobs never ran as one group"
        );
        let handoffs: Vec<_> = events
            .iter()
            .filter(|e| e.kind == obs::EventKind::Handoff)
            .collect();
        assert!(!handoffs.is_empty(), "the idle executor adopted nothing");
        for h in handoffs {
            let job = h.job.expect("a hand-off names its job");
            let (from, to) = (arg(h, "from_group"), arg(h, "to_group"));
            assert!(
                to.is_some() && from != to,
                "hand-off {h:?} names no new group"
            );
            let later: Vec<_> = events
                .iter()
                .filter(|e| e.seq > h.seq && e.job == Some(job) && e.kind == obs::EventKind::Slice)
                .map(|e| arg(e, "group"))
                .collect();
            // Only an anchor canceled while its adopter woke up ends
            // without a slice in the new group.
            assert!(
                !later.is_empty() || replayed[&job].terminal == Some(obs::EventKind::Cancel),
                "job {job} ran no slice after adoption"
            );
            assert!(
                later.iter().all(|g| *g == to),
                "job {job} ran slices outside its new group {to:?}: {later:?}"
            );
            assert_eq!(replayed[&job].handoffs, 1, "a one-member group handed off");
            assert!(!events
                .iter()
                .any(|e| e.job == Some(job) && e.kind == obs::EventKind::Resume));
            adopted_a_finite_job |= job == ids[1].0 || job == ids[3].0;
        }
        if adopted_a_finite_job {
            break;
        }
    }
    assert!(
        adopted_a_finite_job,
        "in 20 rounds no job that completes was adopted"
    );
}

/// A member in the hand-off slot is the fleet's until it is terminal:
/// dropping the fleet the moment a member is handed off (its adopter
/// likely not awake yet) still drives that member to a terminal state,
/// like every other running job.
#[test]
fn shutdown_drives_a_handed_off_member_to_completion() {
    for _ in 0..8 {
        let hub = obs::Obs::shared();
        let serve = Serve::start(ServeConfig {
            executors: 2,
            slice_steps: 1,
            obs: Some(hub.clone()),
            ..Default::default()
        });
        let finite = JobSpec {
            priority: Priority::Batch,
            ..JobSpec::shear_2d("acme", 16, 8, 120)
        };
        let specs = [
            anchor(finite.clone()),
            finite.clone(),
            anchor(finite.clone()),
            finite,
        ];
        let ids = one_group_of_four(&serve, &specs);
        wait_for_handoff(&hub, "batch");
        // Drop drives running jobs to the end, so the anchors must end.
        assert!(serve.cancel(ids[0]) && serve.cancel(ids[2]));
        drop(serve);
        let replayed = obs::events::replay(&hub.events.snapshot()).expect("event log replays");
        for (k, id) in ids.iter().enumerate() {
            let want = if k % 2 == 0 {
                obs::EventKind::Cancel
            } else {
                obs::EventKind::Complete
            };
            assert_eq!(
                replayed[&id.0].terminal,
                Some(want),
                "job {id} was lost at shutdown"
            );
        }
    }
}

/// Cancel reaches an adopted member: it ends `Canceled` at its next slice
/// boundary, short of its target, like any running job.
#[test]
fn cancel_reaches_a_handed_off_member() {
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 2,
        slice_steps: 2,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    // Jobs only `cancel` ends.
    let specs: Vec<JobSpec> = (0..4)
        .map(|_| JobSpec {
            priority: Priority::Batch,
            ..JobSpec::shear_2d("acme", 16, 8, 1 << 40)
        })
        .collect();
    let ids = one_group_of_four(&serve, &specs);
    wait_for_handoff(&hub, "batch");
    let adopted = hub
        .events
        .snapshot()
        .iter()
        .find(|e| e.kind == obs::EventKind::Handoff)
        .and_then(|e| e.job)
        .map(JobId)
        .expect("the hand-off was logged");
    assert!(serve.cancel(adopted), "the adopted job was still running");
    assert!(matches!(serve.wait(adopted), Err(JobState::Canceled)));
    let status = serve.status(adopted).unwrap();
    assert!(status.steps_done < status.steps_target);
    assert!(serve.result(adopted).is_none());
    for id in ids {
        serve.cancel(id);
    }
    serve.drain();
    assert_eq!(serve.tenant_usage("acme").in_flight, 0);
    let replayed = obs::events::replay(&hub.events.snapshot()).expect("event log replays");
    assert!(replayed[&adopted.0].handoffs >= 1);
    assert_eq!(replayed[&adopted.0].terminal, Some(obs::EventKind::Cancel));
}

/// Multi-device jobs served by the fleet match their solo oracle too
/// (the sharded drivers behind the same trait object surface).
#[test]
fn multi_device_jobs_match_solo() {
    let serve = Serve::start(cfg(2));
    let spec = JobSpec {
        devices: 3,
        pattern: Pattern::MrR,
        priority: Priority::Batch,
        ..JobSpec::shear_2d("zephyr", 36, 12, 30)
    };
    let st3d = JobSpec {
        scenario: Scenario::Shear3D {
            nx: 10,
            ny: 6,
            nz: 6,
        },
        pattern: Pattern::St,
        devices: 2,
        ..JobSpec::shear_2d("orbit", 10, 6, 16)
    };
    let a = serve.submit(spec.clone()).unwrap();
    let b = serve.submit(st3d.clone()).unwrap();
    assert_eq!(serve.wait(a).unwrap().checksum, solo_checksum(&spec));
    assert_eq!(serve.wait(b).unwrap().checksum, solo_checksum(&st3d));
}

/// Satellite: a panic escaping a solver (injected in-kernel) is isolated
/// by the slice boundary's `catch_unwind`, and the balance guard leaves
/// the tracer's per-thread span stacks exactly balanced — the failed job
/// terminates as `Failed` and the fleet keeps serving.
#[test]
fn induced_panic_leaves_span_stacks_balanced() {
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 1,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    let mut plan = FaultPlan::new();
    plan.inject_panic(30, 5);
    let doomed = JobSpec {
        fault_plan: Some(Arc::new(plan)),
        pattern: Pattern::MrP,
        ..JobSpec::shear_2d("acme", 16, 8, 24)
    };
    let doomed_id = serve.submit(doomed).unwrap();
    assert!(
        matches!(serve.wait(doomed_id), Err(JobState::Failed)),
        "the injected panic should fail the job, not the fleet"
    );

    // The executor that absorbed the panic still serves new work.
    let next = JobSpec::shear_2d("nova", 16, 8, 8);
    let next_id = serve.submit(next.clone()).unwrap();
    let result = serve.wait(next_id).expect("fleet survived the panic");
    assert_eq!(result.checksum, solo_checksum(&next));
    drop(serve);

    // Span accounting: nothing left open, and every 'B' has its 'E' (the
    // guard emits repair 'E' events for spans the unwind orphaned).
    assert_eq!(hub.tracer.open_spans_total(), 0, "leaked open spans");
    let events = hub.tracer.events();
    let begins = events.iter().filter(|e| e.ph == 'B').count();
    let ends = events.iter().filter(|e| e.ph == 'E').count();
    assert_eq!(begins, ends, "unbalanced span events after induced panic");
}

/// Satellite: checkpoint-backed eviction flushes the physics monitor's
/// final sample (a `monitor`/`flush` instant plus `monitor_mass` gauges)
/// instead of silently dropping the solver — and the flush is purely
/// observational: the resumed job still matches its solo oracle.
#[test]
fn eviction_flushes_monitor_final_sample() {
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    let batch = JobSpec {
        priority: Priority::Batch,
        pattern: Pattern::MrR,
        steps: 2000,
        // Cadence far beyond the horizon: the *only* samples this monitor
        // ever gets are forced flushes (eviction, completion).
        monitor: Some(obs::MonitorConfig {
            cadence: 1_000_000,
            ..Default::default()
        }),
        ..JobSpec::shear_2d("acme", 24, 10, 2000)
    };
    let batch_id = serve.submit(batch.clone()).unwrap();
    wait_for_state(&serve, batch_id, JobState::Running);

    let mut fg = JobSpec::shear_2d("nova", 16, 8, 8);
    fg.priority = Priority::Interactive;
    let fg_id = serve.submit(fg).unwrap();
    serve.wait(fg_id).expect("interactive job completed");
    let result = serve.wait(batch_id).expect("batch job completed");
    assert!(result.evictions >= 1, "the batch job was never preempted");
    assert_eq!(
        result.checksum,
        solo_checksum(&batch),
        "monitor flush at eviction perturbed the trajectory"
    );
    drop(serve);

    // One flush per eviction plus one at completion.
    let flushes = hub
        .tracer
        .events()
        .iter()
        .filter(|e| e.cat == "monitor" && e.name == "flush")
        .count();
    assert!(
        flushes as u64 > result.evictions,
        "expected ≥ {} monitor flushes (evictions + completion), saw {flushes}",
        result.evictions + 1
    );
    assert!(
        hub.metrics
            .gauge("monitor_mass", &[("pattern", "mr2d")])
            .is_some(),
        "eviction flush never published the monitor gauges"
    );
}

/// A job's identity is stated once: the scheduler's `serve` spans carry
/// `job`, `tenant`, `group` and `slice`, and every driver, halo and kernel
/// span the job runs carries none of them but nests under such a span on
/// its thread's span stack. A job's `slice` args count on across an
/// eviction: they run 1..=n, and n is the slices the event log replays.
#[test]
fn job_identity_is_stated_once_on_the_scheduler_span() {
    const IDENTITY: [&str; 4] = ["job", "tenant", "group", "slice"];
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    // A two-device batch job (so halo spans occur), evicted by an
    // interactive job while the only executor runs it.
    let batch = JobSpec {
        priority: Priority::Batch,
        pattern: Pattern::MrR,
        devices: 2,
        ..JobSpec::shear_2d("acme", 24, 10, 2000)
    };
    let batch_id = serve.submit(batch).unwrap();
    wait_for_state(&serve, batch_id, JobState::Running);
    let fg_id = serve.submit(JobSpec::shear_2d("nova", 16, 8, 8)).unwrap();
    serve.wait(fg_id).expect("interactive job completed");
    let result = serve.wait(batch_id).expect("batch job completed");
    assert!(result.evictions >= 1, "the batch job was never preempted");
    drop(serve);
    let tenant_of = HashMap::from([(batch_id.to_string(), "acme"), (fg_id.to_string(), "nova")]);

    let arg = |e: &obs::TraceEvent, key: &str| -> Option<String> {
        e.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let mut stacks: HashMap<u64, Vec<obs::TraceEvent>> = HashMap::new();
    let mut nested = HashMap::<&str, usize>::new();
    let mut batch_slices = Vec::new();
    for e in hub.tracer.events() {
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            'B' => {
                if let Some(layer) = ["driver", "halo", "kernel"]
                    .into_iter()
                    .find(|&c| c == e.cat)
                {
                    for k in IDENTITY {
                        assert_eq!(arg(&e, k), None, "{}:{} carries {k}", e.cat, e.name);
                    }
                    let owner = stack
                        .iter()
                        .rev()
                        .find(|s| s.cat == "serve")
                        .unwrap_or_else(|| panic!("{}:{} outside a serve span", e.cat, e.name));
                    let job = arg(owner, "job").expect("a serve span names its job");
                    assert_eq!(
                        arg(owner, "tenant").as_deref(),
                        Some(tenant_of[&job]),
                        "{job}: serve span tenant"
                    );
                    *nested.entry(layer).or_default() += 1;
                }
                if e.cat == "serve" && e.name == "slice" {
                    for k in IDENTITY {
                        assert!(arg(&e, k).is_some(), "a slice span lacks {k}");
                    }
                    if arg(&e, "job") == Some(batch_id.to_string()) {
                        batch_slices.push(arg(&e, "slice").unwrap().parse::<u64>().unwrap());
                    }
                }
                stack.push(e);
            }
            'E' => {
                stack.pop().expect("an end with no open span");
            }
            _ => {}
        }
    }
    for layer in ["driver", "halo", "kernel"] {
        assert!(nested.get(layer) > Some(&0), "no {layer} span was traced");
    }
    let replayed = obs::events::replay(&hub.events.snapshot()).expect("event log replays");
    let n = replayed[&batch_id.0].slices;
    assert_eq!(
        batch_slices,
        (1..=n).collect::<Vec<_>>(),
        "slice args of an evicted job"
    );
}

/// The SLO feedback controller reacts to interactive latency breaches by
/// shrinking the live slice/batch knobs (within bounds), emitting `tune`
/// events as it goes.
#[test]
fn slo_controller_tunes_live_knobs_on_breaches() {
    let hub = obs::Obs::shared();
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 64,
        batch_max: 8,
        obs: Some(hub.clone()),
        slo: Some(lbm_serve::SloPolicy {
            // Unreachable target: every completion is a breach, and with
            // zero cooldown every breach tunes — fully deterministic when
            // jobs are submitted and awaited one at a time.
            interactive_p99_target_ms: 0.0,
            cooldown: 0,
            ..Default::default()
        }),
        ..Default::default()
    });
    assert_eq!(serve.tuned(), (64, 8));
    for _ in 0..5 {
        let id = serve.submit(JobSpec::shear_2d("acme", 12, 6, 4)).unwrap();
        serve.wait(id).expect("interactive job completed");
    }
    // 64→32→16→8→4→2 and 8→7→6→5→4→3.
    assert_eq!(serve.tuned(), (2, 3), "AIMD decrease sequence diverged");
    assert_eq!(
        hub.metrics
            .counter("serve_slo_tunes", &[("reason", "breach")]),
        Some(5)
    );
    let tunes = hub
        .events
        .snapshot()
        .iter()
        .filter(|e| e.kind == obs::EventKind::Tune)
        .count();
    assert_eq!(tunes, 5, "each breach should have emitted one tune event");
    // The event log replays cleanly (admits before slices, lawful
    // lifecycles) even under live retuning.
    obs::events::replay(&hub.events.snapshot()).expect("event log replays");
}

/// PR 9: the in-place patterns are first-class fleet citizens — `aa-st`
/// and `mr-twist` jobs (2D and 3D) complete with checksums bitwise-equal
/// to their solo oracles.
#[test]
fn in_place_patterns_match_solo_oracles() {
    let serve = Serve::start(cfg(2));
    let shear3d = Scenario::Shear3D {
        nx: 10,
        ny: 6,
        nz: 6,
    };
    let specs = [
        JobSpec {
            pattern: Pattern::AaSt,
            ..JobSpec::shear_2d("inplace", 20, 8, 24)
        },
        JobSpec {
            pattern: Pattern::MrTwist,
            // Odd step count: the twist lattice ends on reversed planes.
            ..JobSpec::shear_2d("inplace", 20, 8, 23)
        },
        JobSpec {
            scenario: shear3d,
            pattern: Pattern::AaSt,
            // Odd step count: restore-at-odd-parity path in play.
            ..JobSpec::shear_2d("inplace", 10, 6, 15)
        },
        JobSpec {
            scenario: shear3d,
            pattern: Pattern::MrTwist,
            ..JobSpec::shear_2d("inplace", 10, 6, 16)
        },
        // Sharded AA: the parity-aware halo protocol behind the same
        // trait object.
        JobSpec {
            pattern: Pattern::AaSt,
            devices: 3,
            ..JobSpec::shear_2d("inplace", 36, 12, 20)
        },
    ];
    let ids: Vec<JobId> = specs
        .iter()
        .map(|s| serve.submit(s.clone()).expect("admitted"))
        .collect();
    for (spec, id) in specs.iter().zip(ids) {
        assert_eq!(
            serve.wait(id).expect("completed").checksum,
            solo_checksum(spec),
            "fleet checksum diverged from solo run for {spec:?}"
        );
    }
    // The twist lattice has no sharded driver: rejected at validation.
    let twist_multi = JobSpec {
        pattern: Pattern::MrTwist,
        devices: 2,
        ..JobSpec::shear_2d("inplace", 20, 8, 8)
    };
    assert!(matches!(
        serve.submit(twist_multi),
        Err(SubmitError::Invalid(_))
    ));
}

/// PR 9 satellite: the quota ledger is byte-denominated and bills the
/// in-place patterns exactly half the lattice bytes of their two-lattice
/// counterparts — `Q·8`/node vs `2Q·8` (ST) and `M·8`/node vs `2M·8`
/// (MR), byte-exact.
#[test]
fn quota_bills_in_place_jobs_half_the_lattice_bytes() {
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        ..Default::default()
    });
    // Occupy the only executor so the probe jobs stay queued holding
    // their admission-time charges.
    let blocker = JobSpec {
        priority: Priority::Batch,
        ..JobSpec::shear_2d("blocker", 24, 10, 100_000)
    };
    let blocker_id = serve.submit(blocker).unwrap();
    wait_for_state(&serve, blocker_id, JobState::Running);

    let nodes = 20 * 8;
    let probes = [
        (Pattern::St, "two-lat-st", nodes * 2 * 9 * 8),
        (Pattern::AaSt, "in-place-st", nodes * 9 * 8),
        (Pattern::MrP, "two-lat-mr", nodes * 2 * 6 * 8),
        (Pattern::MrTwist, "in-place-mr", nodes * 6 * 8),
    ];
    let mut ids = Vec::new();
    for (pattern, tenant, want_bytes) in probes {
        let spec = JobSpec {
            pattern,
            priority: Priority::Batch,
            ..JobSpec::shear_2d(tenant, 20, 8, 4)
        };
        assert_eq!(spec.estimated_resident_bytes(), want_bytes);
        ids.push(serve.submit(spec).unwrap());
        assert_eq!(
            serve.tenant_usage(tenant).resident_bytes,
            want_bytes,
            "queued {tenant} job holds the wrong byte charge"
        );
    }
    // Halving is exact, not approximate.
    assert_eq!(
        2 * serve.tenant_usage("in-place-st").resident_bytes,
        serve.tenant_usage("two-lat-st").resident_bytes
    );
    assert_eq!(
        2 * serve.tenant_usage("in-place-mr").resident_bytes,
        serve.tenant_usage("two-lat-mr").resident_bytes
    );

    serve.cancel(blocker_id);
    for id in ids {
        serve.wait(id).expect("probe job completed");
    }
    for (_, tenant, _) in probes {
        let usage = serve.tenant_usage(tenant);
        assert_eq!(
            (usage.in_flight, usage.resident_bytes),
            (0, 0),
            "completion must release the full byte charge for {tenant}"
        );
    }
}

/// PR 9 satellite: once the solver is built, the charge is trued up from
/// the spec estimate to the driver's actual allocation
/// (`Simulation::resident_bytes()`) — multi-device builds carry ghost
/// columns the estimate cannot see.
#[test]
fn multi_device_charge_trues_up_to_actual_allocation() {
    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        ..Default::default()
    });
    let spec = JobSpec {
        pattern: Pattern::AaSt,
        devices: 3,
        priority: Priority::Batch,
        ..JobSpec::shear_2d("truing", 36, 12, 100_000)
    };
    let est = spec.estimated_resident_bytes();
    let actual = spec.build(1).resident_bytes();
    assert!(
        actual > est,
        "sharded build should exceed the ghost-free estimate ({actual} vs {est})"
    );
    let id = serve.submit(spec).unwrap();
    // steps_done only moves after the solver is built, i.e. after the
    // true-up has landed on the ledger.
    let deadline = Instant::now() + Duration::from_secs(10);
    while serve.status(id).expect("known job").steps_done == 0 {
        assert!(Instant::now() < deadline, "job never started stepping");
        std::thread::yield_now();
    }
    assert_eq!(
        serve.tenant_usage("truing").resident_bytes,
        actual,
        "running job's charge should be the driver's actual allocation"
    );
    serve.cancel(id);
    serve.drain();
    let usage = serve.tenant_usage("truing");
    assert_eq!((usage.in_flight, usage.resident_bytes), (0, 0));
}

/// PR 10: sparse patterns are first-class fleet citizens — porous-domain
/// `sparse-st` and `sparse-mr` jobs (single- and multi-device) complete
/// with checksums bitwise-equal to their solo oracles.
#[test]
fn sparse_patterns_match_solo_oracles() {
    let serve = Serve::start(cfg(2));
    let porous = Scenario::Porous2D {
        nx: 24,
        ny: 10,
        solid_pct: 35,
    };
    let specs = [
        JobSpec {
            scenario: porous,
            pattern: Pattern::SparseSt,
            ..JobSpec::shear_2d("porous", 24, 10, 20)
        },
        JobSpec {
            scenario: porous,
            pattern: Pattern::SparseMr,
            ..JobSpec::shear_2d("porous", 24, 10, 20)
        },
        // Sharded sparse: per-tile halo exchange behind the same trait
        // object.
        JobSpec {
            scenario: porous,
            pattern: Pattern::SparseSt,
            devices: 3,
            ..JobSpec::shear_2d("porous", 24, 10, 16)
        },
        JobSpec {
            scenario: porous,
            pattern: Pattern::SparseMr,
            devices: 2,
            ..JobSpec::shear_2d("porous", 24, 10, 16)
        },
        // Sparse drivers on a dense (all-fluid interior) scenario: same
        // physics, compacted storage.
        JobSpec {
            pattern: Pattern::SparseMr,
            ..JobSpec::shear_2d("porous", 20, 8, 12)
        },
        // The D3Q19 sparse path.
        JobSpec {
            scenario: Scenario::Shear3D {
                nx: 10,
                ny: 6,
                nz: 6,
            },
            pattern: Pattern::SparseSt,
            ..JobSpec::shear_2d("porous", 10, 6, 10)
        },
    ];
    let ids: Vec<JobId> = specs
        .iter()
        .map(|s| serve.submit(s.clone()).expect("admitted"))
        .collect();
    for (spec, id) in specs.iter().zip(ids) {
        assert_eq!(
            serve.wait(id).expect("completed").checksum,
            solo_checksum(spec),
            "fleet checksum diverged from solo run for {spec:?}"
        );
    }
}

/// PR 10 satellite: bad sparse specs are rejected synchronously at submit
/// (`SubmitError::Invalid`) instead of panicking inside an executor — and
/// porous scenarios refuse dense patterns outright, so a tenant can never
/// be billed a dense bounding box for a domain that is mostly rock.
#[test]
fn bad_sparse_specs_are_rejected_synchronously() {
    let serve = Serve::start(cfg(1));
    // All interior nodes solid: the compacted domain has no fluid nodes.
    let all_rock = JobSpec {
        scenario: Scenario::Porous2D {
            nx: 16,
            ny: 8,
            solid_pct: 100,
        },
        pattern: Pattern::SparseSt,
        ..JobSpec::shear_2d("acme", 16, 8, 8)
    };
    match serve.submit(all_rock) {
        Err(SubmitError::Invalid(why)) => {
            assert!(
                why.contains("no fluid nodes"),
                "wrong rejection reason: {why}"
            );
        }
        other => panic!("all-rock spec should be Invalid, got {other:?}"),
    }
    // Dense pattern on a porous scenario: rejected at validation.
    let dense_on_rock = JobSpec {
        scenario: Scenario::Porous2D {
            nx: 16,
            ny: 8,
            solid_pct: 30,
        },
        pattern: Pattern::MrP,
        ..JobSpec::shear_2d("acme", 16, 8, 8)
    };
    match serve.submit(dense_on_rock) {
        Err(SubmitError::Invalid(why)) => {
            assert!(
                why.contains("sparse pattern"),
                "wrong rejection reason: {why}"
            );
        }
        other => panic!("dense-on-porous spec should be Invalid, got {other:?}"),
    }
    // The executor was never poisoned: the fleet still serves good work.
    let good = JobSpec {
        scenario: Scenario::Porous2D {
            nx: 16,
            ny: 8,
            solid_pct: 30,
        },
        pattern: Pattern::SparseMr,
        ..JobSpec::shear_2d("acme", 16, 8, 8)
    };
    let id = serve.submit(good.clone()).unwrap();
    assert_eq!(serve.wait(id).unwrap().checksum, solo_checksum(&good));
}

/// PR 10 satellite: sparse jobs are billed on the geometry's *fluid*
/// count, not the bounding box — the admission charge equals the roofline
/// sparse footprint exactly, and a porous sparse job is cheaper than the
/// cheapest dense pattern on the same box.
#[test]
fn quota_bills_sparse_jobs_on_fluid_count_not_box_volume() {
    use gpu_sim::roofline::{footprint_sparse_mr, footprint_sparse_st};
    use lbm_lattice::{Lattice, D2Q9};

    let serve = Serve::start(ServeConfig {
        executors: 1,
        slice_steps: 4,
        ..Default::default()
    });
    // Occupy the only executor so the probe jobs stay queued holding
    // their admission-time charges.
    let blocker = JobSpec {
        priority: Priority::Batch,
        ..JobSpec::shear_2d("blocker", 24, 10, 100_000)
    };
    let blocker_id = serve.submit(blocker).unwrap();
    wait_for_state(&serve, blocker_id, JobState::Running);

    let porous = Scenario::Porous2D {
        nx: 20,
        ny: 10,
        solid_pct: 50,
    };
    let fluid = porous.geometry().fluid_count();
    assert!(
        fluid < 20 * 10 / 2 + 20,
        "half-rock slab should have roughly half the box fluid (got {fluid})"
    );
    let probes = [
        (
            Pattern::SparseSt,
            "rock-st",
            footprint_sparse_st(fluid, D2Q9::Q),
        ),
        (
            Pattern::SparseMr,
            "rock-mr",
            footprint_sparse_mr(fluid, D2Q9::M, D2Q9::Q),
        ),
    ];
    let mut ids = Vec::new();
    for (pattern, tenant, want_bytes) in probes {
        let spec = JobSpec {
            scenario: porous,
            pattern,
            priority: Priority::Batch,
            ..JobSpec::shear_2d(tenant, 20, 10, 4)
        };
        assert_eq!(spec.estimated_resident_bytes(), want_bytes);
        ids.push(serve.submit(spec).unwrap());
        assert_eq!(
            serve.tenant_usage(tenant).resident_bytes,
            want_bytes,
            "queued {tenant} job holds the wrong byte charge"
        );
    }
    // Rock is free: the half-porosity sparse MR charge undercuts even the
    // in-place twist pattern billed on the full box (M·8 per box node).
    let twist_box = JobSpec {
        pattern: Pattern::MrTwist,
        ..JobSpec::shear_2d("rock-mr", 20, 10, 4)
    };
    assert!(
        serve.tenant_usage("rock-mr").resident_bytes < twist_box.estimated_resident_bytes(),
        "porous sparse MR should be cheaper than a dense in-place box"
    );

    serve.cancel(blocker_id);
    for id in ids {
        serve.wait(id).expect("probe job completed");
    }
    for (_, tenant, _) in probes {
        let usage = serve.tenant_usage(tenant);
        assert_eq!(
            (usage.in_flight, usage.resident_bytes),
            (0, 0),
            "completion must release the full byte charge for {tenant}"
        );
    }
}

/// PR 10 satellite (the `recharge` quota-bypass fix, end to end): a
/// multi-device sparse build trues up past the tenant's resident-byte
/// limit — the job keeps running to the correct checksum, but the breach
/// is counted (`serve_quota_breaches`) and logged as a typed
/// `quota-breach` event instead of being silently absorbed.
#[test]
fn true_up_past_quota_surfaces_breach_without_killing_the_job() {
    let hub = obs::Obs::shared();
    let spec = JobSpec {
        scenario: Scenario::Porous2D {
            nx: 24,
            ny: 10,
            solid_pct: 30,
        },
        pattern: Pattern::SparseMr,
        devices: 2,
        ..JobSpec::shear_2d("breacher", 24, 10, 6)
    };
    let est = spec.estimated_resident_bytes();
    let actual = spec.build(1).resident_bytes();
    assert!(
        actual > est,
        "sharded sparse build (ghost columns + double moment buffers) \
         should exceed the single-lattice estimate ({actual} vs {est})"
    );
    // Limit strictly between estimate and actual: admission passes on the
    // estimate, the post-build true-up breaches.
    let mut quotas = HashMap::new();
    quotas.insert(
        "breacher".to_string(),
        TenantQuota {
            max_in_flight: usize::MAX,
            max_resident_bytes: (est + actual) / 2,
        },
    );
    let serve = Serve::start(ServeConfig {
        executors: 1,
        quotas,
        obs: Some(hub.clone()),
        ..Default::default()
    });
    let id = serve
        .submit(spec.clone())
        .expect("admitted on the estimate");
    let result = serve.wait(id).expect("breaching job still completes");
    assert_eq!(
        result.checksum,
        solo_checksum(&spec),
        "the breach must not perturb the trajectory"
    );
    assert_eq!(
        hub.metrics
            .counter("serve_quota_breaches", &[("tenant", "breacher")]),
        Some(1),
        "exactly one true-up breach should be counted"
    );
    let events = hub.events.snapshot();
    let breach = events
        .iter()
        .find(|e| e.kind == obs::EventKind::QuotaBreach)
        .expect("breach event logged");
    assert_eq!(breach.tenant, "breacher");
    // The event log (with the new kind in it) still replays cleanly.
    obs::events::replay(&events).expect("event log replays");
    drop(serve);
    // Completion released the honest (actual) charge, not the estimate.
    // (usage handle gone with the serve — the zero-balance invariant is
    // covered by the release asserts in the billing tests above.)
}

//! The four solver workloads: contenders stepped round-robin, one `step()`
//! at a time, every step timed on its own.
//!
//! Interleaving is what makes the numbers comparable. A machine-wide slow
//! second hits one round of *every* contender instead of one contender's
//! whole run, and the starting contender rotates every round so each one
//! visits every position. Work is a fixed number of rounds — a pure
//! function of `--seconds` — never a time budget, so two commits do
//! identical work. A pass sets the workload up [`EPOCHS`] times, and the
//! calibration kernel runs once in every round; a metric is the midmean
//! over the epochs of a statistic of each epoch's *quiet set*, at the speed
//! the kernel showed in that epoch (see `crate::stats`, `crate::calib`).

use crate::calib::{self, Calib};
use crate::drivers::{self, hub_ledger, Contender, ShardLedger};
use crate::gen;
use crate::metrics::{set, Values};
use crate::probes::Machine;
use crate::spans::{close, open, Spans};
use crate::stats::{
    median, midmean, percentile, pick_tail, quiet, sorted, stall_share, tail_resolved, window_sums,
};
use crate::Ops;
use gpu_sim::memory::Tally;
use gpu_sim::{roofline, DeviceSpec};
use lbm_core::Geometry;
use obs::Obs;
use std::sync::Arc;
use std::time::Instant;

/// Which contender fills each role the end-to-end metrics are defined on.
pub struct Roles {
    /// Two-lattice distribution baseline (`mflups_st`).
    pub st: &'static str,
    /// Moment representation, projective (`mflups_mr` and the `sim_*` rows).
    pub mr: &'static str,
    /// Single-lattice in-place contender (`mflups_inplace`).
    pub inplace: &'static str,
    /// `(solo, sharded)` pair behind `shard_eff`.
    pub shard_pair: (&'static str, &'static str),
}

/// A contender and the plain dense run it must agree with after
/// [`PREFIX_STEPS`] steps: `(name, oracle(geometry, threads, steps))`.
pub type PrefixOracle = (&'static str, fn(&Geometry, usize, u64) -> u64);

pub struct SolverWorkload {
    pub name: &'static str,
    /// Suffix of this workload's `lbm-gpu.*` rows (`2d`/`3d`), if it owns any.
    pub dim: Option<&'static str>,
    pub geometry: fn(u64) -> Geometry,
    pub contenders: fn(&Geometry, usize) -> Vec<Contender>,
    pub roles: Roles,
    /// Pairs whose final field checksums must be bitwise equal.
    pub twins: &'static [(&'static str, &'static str)],
    /// Table 2 bytes per fluid update each contender must measure within 10 %.
    pub table_bpf: &'static [(&'static str, f64)],
    /// Rounds of a 12-second run on the 2-core reference box.
    pub rounds_per_12s: usize,
    /// Contender checked against a plain dense run after [`PREFIX_STEPS`].
    pub prefix_oracle: Option<PrefixOracle>,
}

/// The four solver workloads, `dense2d` and `dense3d` first.
pub const WORKLOADS: [SolverWorkload; 4] = [
    SolverWorkload {
        name: "dense2d",
        dim: Some("2d"),
        geometry: |seed| gen::channel_2d(seed, 512, 256),
        contenders: drivers::dense2d,
        roles: Roles {
            st: "st",
            mr: "mr-p",
            inplace: "mr-t",
            shard_pair: ("mr-p", "mr-p.x2"),
        },
        twins: &[("mr-t", "mr-p"), ("st-aa", "st"), ("mr-p.x2", "mr-p")],
        table_bpf: &[
            ("st", 144.0),
            ("st-aa", 144.0),
            ("mr-p", 96.0),
            ("mr-t", 96.0),
            ("mr-r", 96.0),
        ],
        rounds_per_12s: 126,
        prefix_oracle: None,
    },
    SolverWorkload {
        name: "dense3d",
        dim: Some("3d"),
        // 56 × 42 × 42 keeps the (14, 14) column footprint the picker
        // chooses at 70³ (so the 1.3× halo recompute is the same) at a size
        // that fits ≥ 100 timed rounds of four contenders into a run.
        geometry: |seed| gen::duct_3d(seed, 56, 42, 42),
        contenders: drivers::dense3d,
        roles: Roles {
            st: "st",
            mr: "mr-p",
            inplace: "mr-t",
            shard_pair: ("mr-p", "mr-p.x2"),
        },
        twins: &[("mr-t", "mr-p"), ("mr-p.x2", "mr-p")],
        table_bpf: &[("st", 304.0), ("mr-p", 160.0), ("mr-t", 160.0)],
        rounds_per_12s: 106,
        prefix_oracle: None,
    },
    SolverWorkload {
        name: "sharded",
        dim: None,
        geometry: |seed| gen::channel_2d(seed, 512, 128),
        contenders: drivers::sharded,
        roles: Roles {
            st: "st.x4",
            mr: "mr-p.x4",
            inplace: "st-aa.x4",
            shard_pair: ("mr-p", "mr-p.x4"),
        },
        twins: &[("mr-p.x4", "mr-p"), ("st.x4", "st"), ("st-aa.x4", "st")],
        table_bpf: &[("st", 144.0), ("mr-p", 96.0)],
        rounds_per_12s: 320,
        prefix_oracle: None,
    },
    SolverWorkload {
        name: "porous",
        dim: None,
        geometry: |seed| gen::porous_2d(seed, 512, 256, 50),
        contenders: drivers::porous,
        roles: Roles {
            st: "sparse-st",
            mr: "sparse-mr",
            inplace: "mr-t",
            shard_pair: ("sparse-mr", "sparse-mr.x2"),
        },
        twins: &[("sparse-mr", "mr-t"), ("sparse-mr.x2", "sparse-mr")],
        table_bpf: &[("sparse-st", 180.0), ("sparse-mr", 132.0)],
        rounds_per_12s: 126,
        prefix_oracle: Some(("sparse-st", drivers::dense_st_prefix)),
    },
];

/// Step count at which the prefix oracle compares checksums.
pub const PREFIX_STEPS: u64 = 8;
/// Epochs of a pass. Each sets the workload up afresh — `setup_s` is the
/// median over them — and steps a twelfth of the rounds. A set-up fixes a
/// speed for its whole epoch, probably by where its lattices and link
/// tables land in memory (the dense MR drivers have a mode a third slower,
/// the gathering ones one a quarter faster, and the first epoch of a process
/// runs them a fifth slower), so a run needs many set-ups, not many steps
/// after one.
pub const EPOCHS: usize = 12;
/// Share of the rounds discarded as warm-up.
const WARMUP_SHARE: f64 = 0.05;
/// Extra steps a sharded contender takes with a hub attached, after the
/// timed rounds, to read its byte ledger (even: AA alternates two kernels).
const LEDGER_STEPS: u64 = 4;
/// Steps of the `mr` contender a derived "interactive job" spans.
const JOB_STEPS_INTERACTIVE: usize = 4;
/// Steps a derived "batch job" spans (it has to fit into one epoch).
const JOB_STEPS_BATCH: usize = 12;

/// Rounds of one epoch of a run of `seconds`: proportional and even (the AA
/// pattern's checksum twins need an even step count). The untraced pass
/// never runs fewer than the prefix oracle needs; the traced pass, which
/// follows it in the same process, leaves that check to it.
pub fn rounds_for(w: &SolverWorkload, seconds: f64, traced: bool) -> usize {
    let r = (w.rounds_per_12s as f64 * seconds / 12.0 / EPOCHS as f64).round() as usize;
    let least = match (traced, w.prefix_oracle) {
        (false, Some(_)) => PREFIX_STEPS as usize + 2,
        _ => 6,
    };
    (r.max(least) + 1) & !1
}

/// What a pass runs on, and for how long.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub threads: usize,
    /// Rounds of one epoch ([`rounds_for`]).
    pub rounds: usize,
    /// Whether spans are recorded and the program's hub is attached.
    pub traced: bool,
}

/// Everything one pass over a workload measured.
pub struct Pass {
    pub names: Vec<&'static str>,
    /// Timed step durations, seconds, `[contender][epoch][sample]`,
    /// warm-up removed. A sample is one step — or, for a contender whose
    /// schedule has a two-step cycle, the mean step of one cycle.
    pub step_s: Vec<Vec<Vec<f64>>>,
    /// What the calibration kernel took in the same rounds, seconds,
    /// `[epoch][sample]`.
    pub calib_s: Vec<Vec<f64>>,
    pub fluid: usize,
    pub resident: Vec<usize>,
    /// Simulated traffic per step of each contender.
    pub per_step: Vec<Tally>,
    /// Launches per step, where a hub saw them.
    pub launches_per_step: Vec<Option<f64>>,
    pub shard: Vec<Option<ShardLedger>>,
    /// Steps each contender took in the last epoch (what `shard` and
    /// `hub_spans` cover).
    pub steps: Vec<u64>,
    /// Set-up time of every epoch and build time of every contender,
    /// seconds at nominal machine speed (like `ckpt`).
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub halo_retries: u64,
    /// `(checkpoint ms, restore ms, snapshot bytes)` of the `mr` contender.
    pub ckpt: (f64, f64, usize),
    pub spans: Option<Spans>,
    /// Program spans adopted from the hubs in the last epoch (traced pass).
    pub hub_spans: usize,
}

impl Pass {
    pub fn idx(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no contender named {name}"))
    }

    /// The midmean over the epochs of `stat` of a contender's samples in
    /// each, at nominal machine speed: every epoch's figure is scaled by
    /// what the calibration kernel took in the same rounds.
    pub fn over_epochs(&self, i: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let per_epoch: Vec<f64> = (self.step_s[i].iter().zip(&self.calib_s))
            .map(|(samples, beats)| stat(samples) * calib::speed(beats))
            .collect();
        midmean(&per_epoch)
    }

    /// The contender's step time on a quiet machine at nominal speed: the
    /// median of each epoch's quiet set (see [`crate::stats`]).
    pub fn quiet_step_s(&self, name: &str) -> f64 {
        self.over_epochs(self.idx(name), |e| quiet(e, 50.0))
    }

    /// What the calibration kernel took, seconds: the quiet median of each
    /// epoch, midmean over the epochs.
    pub fn quiet_calib_s(&self) -> f64 {
        midmean(&(self.calib_s.iter().map(|e| quiet(e, 50.0))).collect::<Vec<_>>())
    }

    /// Every sample of a contender, all epochs together.
    pub fn pooled(&self, i: usize) -> Vec<f64> {
        self.step_s[i].concat()
    }

    /// Host MFLUPS of a contender: fluid nodes over the quiet step time.
    pub fn mflups(&self, name: &str) -> f64 {
        self.fluid as f64 / self.quiet_step_s(name) / 1e6
    }

    /// `t_a / t_b` of the two contenders' quiet step times, taken inside
    /// each epoch (which cancels what the machine did to both); the midmean
    /// over the epochs.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (&self.step_s[self.idx(a)], &self.step_s[self.idx(b)]);
        let ratios: Vec<f64> = (a.iter().zip(b))
            .map(|(a, b)| quiet(a, 50.0) / quiet(b, 50.0))
            .collect();
        midmean(&ratios)
    }

    /// DRAM bytes per fluid update of a contender.
    pub fn bpf(&self, name: &str) -> f64 {
        self.per_step[self.idx(name)].dram_bytes() as f64 / self.fluid as f64
    }
}

/// Run one pass: [`EPOCHS`] epochs, each setting the workload up afresh,
/// stepping its share of the rounds and checking every output.
pub fn run_pass(w: &SolverWorkload, plan: Plan, machine: &mut Machine, ops: &mut Ops) -> Pass {
    let mut spans = plan.traced.then(Spans::new);
    let mut epochs: Vec<Pass> = (0..EPOCHS)
        .map(|e| {
            machine.triad.sweep();
            run_epoch(w, plan, e, &mut machine.calib, &mut spans, ops)
        })
        .collect();
    let median_of =
        |pick: &dyn Fn(&Pass) -> f64| median(&epochs.iter().map(pick).collect::<Vec<_>>());
    let build_s: Vec<f64> = (0..epochs[0].names.len())
        .map(|i| median_of(&|e| e.build_s[i]))
        .collect();
    let ckpt_ms = (median_of(&|e| e.ckpt.0), median_of(&|e| e.ckpt.1));
    let mut pass = epochs.pop().expect("at least one epoch");
    pass.build_s = build_s;
    pass.ckpt = (ckpt_ms.0, ckpt_ms.1, pass.ckpt.2);
    for e in &epochs {
        // The simulated ledger is a function of the inputs alone.
        let same = e.fluid == pass.fluid
            && e.resident == pass.resident
            && (e.per_step.iter().zip(&pass.per_step)).all(|(a, b)| a == b);
        ops.check(same, || {
            format!("{}: simulated ledger differs between epochs", w.name)
        });
    }
    for e in &mut epochs {
        for (mine, theirs) in pass.step_s.iter_mut().zip(&mut e.step_s) {
            mine.append(theirs);
        }
        pass.calib_s.append(&mut e.calib_s);
        pass.setup_s.append(&mut e.setup_s);
        pass.halo_retries += e.halo_retries;
    }
    pass.spans = spans;
    pass
}

/// One epoch: a fresh set-up (new allocations, so a new physical placement
/// of every lattice), `rounds` rounds of every contender, all the checks.
fn run_epoch(
    w: &SolverWorkload,
    plan: Plan,
    epoch: usize,
    calib: &mut Calib,
    spans: &mut Option<Spans>,
    ops: &mut Ops,
) -> Pass {
    let Plan {
        seed,
        threads,
        rounds,
        ..
    } = plan;
    // Set-up: geometry generation and every driver constructor (compaction
    // and link tables included) until the first step can run.
    let span = open(spans, "setup", None, epoch as u64);
    let t0 = Instant::now();
    let geom = (w.geometry)(seed);
    let mut contenders = (w.contenders)(&geom, threads);
    let setup_s = t0.elapsed().as_secs_f64();
    close(spans, span);
    let n = contenders.len();

    // Traced pass: the program's own hub, one per contender so their
    // launch counters stay apart. Our clock's reading at each hub's birth
    // places its spans among ours.
    let hubs: Vec<Option<(Arc<Obs>, u64)>> = contenders
        .iter_mut()
        .map(|c| {
            let born = spans.as_ref()?.now_ns();
            let hub = Obs::shared();
            c.drv.sim_mut().set_obs(hub.clone());
            Some((hub, born))
        })
        .collect();

    // Even, so a two-step cycle never straddles the warm-up boundary.
    let warmup = (((rounds as f64 * WARMUP_SHARE).ceil() as usize).max(1) + 1) & !1;
    let first_round = (epoch * rounds) as u64;
    let mut step_s: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); n];
    let mut calib_s = Vec::with_capacity(rounds);
    let mut prefix = None;
    for round in 0..rounds {
        let trace = first_round + round as u64;
        let beat = calib.run();
        if round >= warmup {
            calib_s.push(beat);
        }
        let round_span = open(spans, "round", None, trace);
        for k in 0..n {
            // Rotate the starting contender every round: each one visits
            // every position of a round, and none ever runs twice in a row
            // (reversing the order would hand the first and the last a
            // cache-hot step every other round).
            let i = (round + k) % n;
            let c = &mut contenders[i];
            let span = open(spans, &format!("step:{}", c.name), round_span, trace);
            let t0 = Instant::now();
            let res = c.drv.sim_mut().try_step();
            let dt = t0.elapsed().as_secs_f64();
            close(spans, span);
            ops.check(res.is_ok(), || {
                format!("{}: {} step {round} failed: {res:?}", w.name, c.name)
            });
            if round >= warmup {
                step_s[i].push(dt);
            }
        }
        close(spans, round_span);
        if let Some((target, _)) = w.prefix_oracle {
            if round as u64 + 1 == PREFIX_STEPS {
                let c = contenders.iter().find(|c| c.name == target);
                prefix = c.map(|c| c.drv.sim().field_checksum());
            }
        }
    }
    for (c, samples) in contenders.iter().zip(&mut step_s) {
        *samples = samples
            .chunks_exact(c.cycle)
            .map(|cycle| cycle.iter().sum::<f64>() / c.cycle as f64)
            .collect();
    }
    let names: Vec<&'static str> = contenders.iter().map(|c| c.name).collect();
    let at = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{}: no contender named {name}", w.name))
    };

    // Outputs: bitwise twins, the prefix oracle, finite fields.
    let sums: Vec<u64> = contenders
        .iter()
        .map(|c| c.drv.sim().field_checksum())
        .collect();
    for &(a, b) in w.twins {
        ops.check(sums[at(a)] == sums[at(b)], || {
            format!("{}: {a} and {b} differ after {rounds} steps", w.name)
        });
    }
    if let Some((target, oracle)) = w.prefix_oracle {
        // One oracle run per pass is enough: every epoch starts alike.
        if epoch == 0 && rounds as u64 >= PREFIX_STEPS {
            let want = oracle(&geom, threads, PREFIX_STEPS);
            ops.check(prefix == Some(want), || {
                format!("{}: {target} left the dense trajectory", w.name)
            });
        }
    }
    for c in &contenders {
        ops.check(c.drv.sim().is_healthy(), || {
            format!("{}: {} has non-finite fields", w.name, c.name)
        });
    }

    // Checkpoint round trip of the MR contender, timed; a restore of the
    // snapshot just taken must leave the field where it was.
    let mr = at(w.roles.mr);
    let sim = contenders[mr].drv.sim_mut();
    let span = open(spans, "checkpoint", None, epoch as u64);
    let t0 = Instant::now();
    let snap = sim.checkpoint();
    let ckpt_ms = t0.elapsed().as_secs_f64() * 1e3;
    close(spans, span);
    let span = open(spans, "restore", None, epoch as u64);
    let t0 = Instant::now();
    let res = sim.restore(&snap);
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    close(spans, span);
    ops.check(res.is_ok() && sim.field_checksum() == sums[mr], || {
        format!("{}: checkpoint round trip changed {}", w.name, w.roles.mr)
    });

    // Simulated traffic per step. Single-device drivers keep a cumulative
    // tally; sharded ones publish only into a hub, so outside the traced
    // pass they take a few extra steps with one attached, now that the
    // timed rounds and the checks are over.
    let fluid = contenders[mr].drv.sim().fluid_nodes();
    let mut per_step = Vec::new();
    let mut launches_per_step = Vec::new();
    for (c, hub) in contenders.iter_mut().zip(&hubs) {
        let steps = c.drv.sim().steps();
        let own = c.drv.ledger().tally;
        let seen = hub.as_ref().map(|(h, _)| hub_ledger(h));
        if let (Some(own), Some((seen, _))) = (own, seen) {
            ops.check(own.dram_bytes() == seen.dram_bytes(), || {
                format!("{}: {} hub and driver ledgers disagree", w.name, c.name)
            });
        }
        let (total, over, launches) = match (own, seen) {
            (Some(t), seen) => (t, steps, seen.map(|(_, l)| l as f64 / steps as f64)),
            (None, Some((t, l))) => (t, steps, Some(l as f64 / steps as f64)),
            (None, None) => {
                let hub = Obs::shared();
                c.drv.sim_mut().set_obs(hub.clone());
                for _ in 0..LEDGER_STEPS {
                    let res = c.drv.sim_mut().try_step();
                    ops.check(res.is_ok(), || format!("{}: ledger step failed", c.name));
                }
                let (t, l) = hub_ledger(&hub);
                (t, LEDGER_STEPS, Some(l as f64 / LEDGER_STEPS as f64))
            }
        };
        per_step.push(per_step_tally(&total, over));
        launches_per_step.push(launches);
    }
    // Adopt the program's spans under the step that caused them.
    let mut hub_spans = 0;
    if let Some(s) = spans.as_mut() {
        for (c, hub) in contenders.iter().zip(&hubs) {
            let Some((hub, born)) = hub else { continue };
            let prefix = format!("step:{}", c.name);
            let steps: Vec<(u64, u64, usize)> = (0..s.len())
                .filter(|&i| s.get(i).name == prefix)
                .map(|i| (s.get(i).start_ns, s.get(i).end_ns, i))
                .collect();
            hub_spans += s.adopt(&hub.tracer.events(), *born, |sp, _| {
                let k = steps.partition_point(|&(start, _, _)| start <= sp.start_ns);
                let (_, end, id) = *steps.get(k.checked_sub(1)?)?;
                (sp.start_ns <= end).then_some(id)
            });
        }
    }

    // Set-up, build and checkpoint times of this epoch, like its steps, at
    // nominal machine speed.
    let speed = calib::speed(&calib_s);
    let pass = Pass {
        resident: contenders
            .iter()
            .map(|c| c.drv.sim().resident_bytes())
            .collect(),
        shard: contenders.iter().map(|c| c.drv.ledger().shard).collect(),
        steps: contenders.iter().map(|c| c.drv.sim().steps()).collect(),
        halo_retries: contenders.iter().map(|c| c.drv.sim().halo_retries()).sum(),
        build_s: contenders.iter().map(|c| c.build_s * speed).collect(),
        names,
        step_s: step_s.into_iter().map(|samples| vec![samples]).collect(),
        calib_s: vec![calib_s],
        fluid,
        per_step,
        launches_per_step,
        setup_s: vec![setup_s * speed],
        ckpt: (ckpt_ms * speed, restore_ms * speed, snap.len()),
        spans: None,
        hub_spans,
    };
    for &(name, table) in w.table_bpf {
        let got = pass.bpf(name);
        ops.check((got / table - 1.0).abs() <= 0.10, || {
            format!(
                "{}: {name} moves {got:.1} B/FLUP, Table 2 says {table}",
                w.name
            )
        });
    }
    pass
}

fn per_step_tally(total: &Tally, steps: u64) -> Tally {
    let steps = steps.max(1);
    Tally {
        reads: total.reads / steps,
        writes: total.writes / steps,
        bytes_read: total.bytes_read / steps,
        bytes_written: total.bytes_written / steps,
        dram_bytes_read: total.dram_bytes_read / steps,
        l2_read_hits: total.l2_read_hits / steps,
    }
}

/// The sixteen end-to-end metrics of a solver workload. `triad_gb_s` is
/// the host bandwidth measured in this process.
pub fn end_to_end(w: &SolverWorkload, p: &Pass, triad_gb_s: f64) -> Values {
    let r = &w.roles;
    let mr = p.idx(r.mr);
    // A derived job: `steps` consecutive steps of the `mr` contender.
    let job_ms = |steps: usize, pct: f64| {
        p.over_epochs(mr, |e| {
            quiet(&window_sums(e, steps.min(e.len())), pct) * 1e3
        })
    };
    let sim_bpf = p.bpf(r.mr);
    // A sharded run is bound by its exposed halo exchange as well as by
    // DRAM; the driver's overlap model accounts for both.
    let sim_mflups = match p.shard[mr].and_then(|s| s.overlap) {
        Some(overlap) => overlap.modeled_mflups(p.fluid),
        None => roofline::mflups_max_on(&DeviceSpec::v100(), sim_bpf),
    };
    let mflups_mr = p.mflups(r.mr);
    // One quiet round: a step of every contender.
    let round_s: f64 = p.names.iter().map(|n| p.quiet_step_s(n)).sum();
    let per_round = p.names.len() as f64;
    let mut v = Values::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.to_string(), x);
    };
    put("setup_s", median(&p.setup_s));
    put("mflups_mr", mflups_mr);
    put("mflups_st", p.mflups(r.st));
    put("mflups_inplace", p.mflups(r.inplace));
    put("mr_vs_st", p.ratio(r.st, r.mr));
    put("step_ms_p90", p.over_epochs(mr, |e| quiet(e, 90.0)) * 1e3);
    put("shard_eff", p.ratio(r.shard_pair.0, r.shard_pair.1));
    // The five fleet metrics, as a library caller of this workload sees
    // them: steps completed and nodes updated per second of a round over
    // all contenders, and the time a short and a long burst of MR steps take.
    put("jobs_per_s", per_round / round_s);
    put("serve_mflups", p.fluid as f64 * per_round / round_s / 1e6);
    put(
        "job_ms_p50_interactive",
        job_ms(JOB_STEPS_INTERACTIVE, 50.0),
    );
    put(
        "job_ms_p90_interactive",
        job_ms(JOB_STEPS_INTERACTIVE, 90.0),
    );
    put("job_ms_p50_batch", job_ms(JOB_STEPS_BATCH, 50.0));
    put("sim_bpf_mr", sim_bpf);
    put("sim_mflups_mr", sim_mflups);
    put(
        "resident_bytes_per_node",
        p.resident[mr] as f64 / p.fluid as f64,
    );
    // MFLUPS × B/FLUP is MB/s.
    put(
        "host_roofline_pct",
        mflups_mr * sim_bpf / (triad_gb_s * 1e3) * 100.0,
    );
    v
}

/// The per-layer rows this workload's pass fills.
pub fn per_layer(w: &SolverWorkload, p: &Pass, out: &mut Values) {
    let mut put = |name: String, x: f64| set(out, &name, x);
    let r = &w.roles;
    let ns_per_node = |name: &str| p.quiet_step_s(name) * 1e9 / p.fluid as f64;
    if let Some(dim) = w.dim {
        for name in &p.names {
            if !name.contains(".x") {
                put(
                    format!("lbm-gpu.step_ns_per_node.{name}.{dim}"),
                    ns_per_node(name),
                );
            }
        }
    }
    let kind = if w.name == "porous" {
        "sparse"
    } else {
        "dense"
    };
    put(format!("lbm-gpu.build_s.{kind}"), p.build_s[p.idx(r.mr)]);
    put("lbm-gpu.checkpoint_ms".into(), p.ckpt.0);
    put("lbm-gpu.restore_ms".into(), p.ckpt.1);
    put(
        "lbm-gpu.checkpoint_bytes_per_node".into(),
        p.ckpt.2 as f64 / p.fluid as f64,
    );
    let (st, mr) = (p.idx(r.st), p.idx(r.mr));
    put("gpu-sim.dram_bytes_per_flup.st".into(), p.bpf(r.st));
    put(
        "gpu-sim.l2_hit_rate.st".into(),
        p.per_step[st].l2_hit_rate(),
    );
    put(
        "gpu-sim.l2_hit_rate.mr".into(),
        p.per_step[mr].l2_hit_rate(),
    );
    if w.name == "sharded" {
        put(
            "lbm-multi.step_ns_per_node.st.x4".into(),
            ns_per_node("st.x4"),
        );
        put(
            "lbm-multi.step_ns_per_node.mr-p.x4".into(),
            ns_per_node("mr-p.x4"),
        );
        put(
            "lbm-multi.shard_overhead_us_per_step".into(),
            (p.quiet_step_s("mr-p.x4") - p.quiet_step_s("mr-p")) * 1e6,
        );
        let shard = |name: &str| p.shard[p.idx(name)].expect("sharded contender");
        put(
            "lbm-multi.halo_bytes_per_step.st".into(),
            shard("st.x4").halo_bytes_per_step as f64,
        );
        let s = shard("mr-p.x4");
        put(
            "lbm-multi.halo_bytes_per_step.mr".into(),
            s.halo_bytes_per_step as f64,
        );
        put(
            "lbm-multi.overlap_efficiency".into(),
            s.overlap.map_or(0.0, |o| o.overlap_efficiency()),
        );
        put(
            "lbm-multi.link_bytes_per_step".into(),
            s.link_bytes as f64 / p.steps[mr] as f64,
        );
        put("lbm-multi.halo_retries".into(), p.halo_retries as f64);
    }
    if w.name == "porous" {
        let s = p.shard[p.idx("sparse-mr.x2")].expect("sharded contender");
        put(
            "lbm-multi.halo_bytes_per_step.sparse-mr".into(),
            s.halo_bytes_per_step as f64,
        );
    }
    let all: Vec<f64> = (0..p.names.len())
        .flat_map(|i| {
            let v = p.pooled(i);
            let m = median(&v);
            v.into_iter().map(move |x| x / m)
        })
        .collect();
    put("host.stall_share".into(), stall_share(&all, 3.0));
    put("host.calib_ms".into(), p.quiet_calib_s() * 1e3);
}

/// The rows only a traced pass can fill, and the ones that need the probes:
/// launches per step (the hub counts them), the tracing overhead, and the
/// residual of a dense step once the probed layers are taken out of it.
pub fn traced_rows(w: &SolverWorkload, p: &Pass, traced: &Pass, threads: usize, out: &mut Values) {
    let get = |out: &Values, name: &str| out[name];
    let put = |out: &mut Values, name: String, x: f64| set(out, &name, x);
    let r = &w.roles;
    for (role, name) in [("st", r.st), ("mr", r.mr)] {
        if let Some(l) = traced.launches_per_step[traced.idx(name)] {
            put(out, format!("gpu-sim.launches_per_step.{role}"), l);
        }
    }
    // The hubs saw every step of their epoch, warm-up included.
    let steps: u64 = traced.steps.iter().sum();
    put(
        out,
        "obs.spans_per_step".into(),
        traced.hub_spans as f64 / steps as f64,
    );
    let overhead = traced.quiet_step_s(r.mr) / p.quiet_step_s(r.mr) - 1.0;
    put(
        out,
        format!("obs.traced_overhead_pct.{}", w.name),
        overhead * 100.0,
    );

    let Some(dim) = w.dim else { return };
    let tag = if dim == "2d" { "d2q9" } else { "d3q19" };
    // Probes are single-threaded costs; a step spreads them over `threads`
    // workers. Whatever that ideal split does not explain — the column
    // walker, halo recompute, scatter, imperfect scaling — is self time.
    let share = |ns: f64| ns / threads as f64;
    for (name, kernels) in [
        ("mr-p", &["mr_p", "moments_from_f"][..]),
        ("st", &["bgk_soa"][..]),
    ] {
        let i = p.idx(name);
        let step = get(out, &format!("lbm-gpu.step_ns_per_node.{name}.{dim}"));
        let kernel: f64 = kernels
            .iter()
            .map(|k| get(out, &format!("core.kernels.{k}_ns_per_node.{tag}")))
            .sum();
        let per_node = |bytes: u64| bytes as f64 / 1024.0 / p.fluid as f64;
        let span = per_node(p.per_step[i].bytes_read)
            * get(out, "gpu-sim.memory.read_span_touch_ns_per_kb")
            + per_node(p.per_step[i].bytes_written)
                * get(out, "gpu-sim.memory.write_span_ns_per_kb");
        let launches = traced.launches_per_step[traced.idx(name)].unwrap_or(0.0);
        let launch = launches * get(out, "gpu-sim.exec.launch_ns_pooled") / p.fluid as f64;
        let own = step - share(kernel) - share(span) - launch;
        println!(
            "  {name}.{dim} step {step:.2} ns/node = kernel {:.2} + span {:.2} + launch {launch:.4} + self {own:.2}",
            share(kernel),
            share(span)
        );
        put(out, format!("lbm-gpu.self_ns_per_node.{name}.{dim}"), own);
    }
    // CPU-nanoseconds the MR-P driver spends per node, over the plain
    // single-threaded reference solver's on the same physics.
    let driver = get(out, &format!("lbm-gpu.step_ns_per_node.mr-p.{dim}")) * threads as f64;
    let reference = 1e3 / get(out, &format!("core.solver.ref_mflups.{tag}"));
    put(
        out,
        format!("lbm-gpu.substrate_tax.{dim}"),
        driver / reference,
    );
}

/// Human-readable summary of a pass: one line per contender.
pub fn describe(w: &SolverWorkload, p: &Pass) -> String {
    let mut out = String::new();
    for (i, name) in p.names.iter().enumerate() {
        let s = sorted(&p.pooled(i));
        let tail = pick_tail(s.len());
        out.push_str(&format!(
            "  {:<13} {:>4} rounds  p10 {:>7.3} p25 {:>7.3} median {:>8.3} ms  {}  {:>7.3} MFLUPS  {:>6.1} B/FLUP\n",
            name,
            s.len(),
            percentile(&s, 10.0) * 1e3,
            percentile(&s, 25.0) * 1e3,
            percentile(&s, 50.0) * 1e3,
            match tail {
                Some(t) => format!(
                    "p{t} {:>8.3} ms{}",
                    percentile(&s, t) * 1e3,
                    if tail_resolved(s.len(), 90.0) { "" } else { " (p90 unresolved)" }
                ),
                None => "tail unresolved".to_string(),
            },
            p.mflups(name),
            p.bpf(name),
        ));
    }
    out.push_str(&format!(
        "  percentiles as measured; MFLUPS at nominal speed: the calibration kernel took {:.3} ms (nominal {:.3})\n",
        p.quiet_calib_s() * 1e3,
        calib::NOMINAL_S * 1e3
    ));
    out.push_str(&format!(
        "  {} fluid nodes; roles: st={} mr={} inplace={} shard_eff={}/{}\n",
        p.fluid,
        w.roles.st,
        w.roles.mr,
        w.roles.inplace,
        w.roles.shard_pair.0,
        w.roles.shard_pair.1
    ));
    out
}

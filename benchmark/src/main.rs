//! `lbm-benchmark`: end-to-end and per-layer performance of the lbm-mr
//! workspace, measured from outside the program through its public API.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 7
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload serve --trace 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- aa --runs 5
//! ```
//!
//! See `benchmark/README.md` for the glossary and the method.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels

mod calib;
mod drivers;
mod gen;
mod metrics;
mod probes;
mod serve;
mod solver;
mod spans;
mod stats;

use metrics::{per_layer_zeroed, unit_of, Values, END_TO_END, WORKLOADS};
use obs::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Operations attempted and failed: every step, every served job and every
/// output check is one operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (first few).
    pub notes: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }
}

/// Worker threads every timed number uses: the machine's parallelism,
/// capped at four (never `reproduce`'s hard-coded eight).
fn worker_threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one workload measured.
struct Outcome {
    end_to_end: Values,
    per_layer: Values,
    ops: Ops,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
}

const USAGE: &str =
    "usage: lbm-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
       lbm-benchmark aa  [--runs N] [--seed N] [--seconds S]
workloads: dense2d dense3d sharded porous serve (default: all five)";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 16.0,
        traced: false,
        runs: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                a.workload = Some(value.clone());
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => a.runs = value.parse().map_err(|_| bad())?,
            "--trace" => a.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", a.seconds));
    }
    if a.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(a)
}

/// Directory the results and traces are written to: `out/` beside the
/// benchmark's manifest (`cargo run` names it), else `benchmark/out`.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR").map_or("benchmark".into(), PathBuf::from);
    base.join("out")
}

fn write_json(name: &str, v: &Value) {
    let dir = out_dir();
    let path = dir.join(name);
    let res = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, v.to_json()));
    match res {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Run one workload: the untraced pass every end-to-end metric comes from
/// and, when asked, the probes and the traced pass behind the ledger.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let threads = worker_threads();
    let mut ops = Ops::default();
    let mut layers = per_layer_zeroed();
    println!(
        "== {name}  seed {seed}  {threads} threads ({} available)",
        nproc()
    );
    let mut machine = probes::Machine::new(threads);
    machine.triad.sweep();
    if traced {
        let t0 = std::time::Instant::now();
        let (w2, w3) = (&solver::WORKLOADS[0], &solver::WORKLOADS[1]);
        // The probes' times, like the workload's, at nominal machine speed.
        let mut beats = machine.calib.runs(calib::BEATS);
        probes::run_all(
            threads,
            (w2.geometry)(seed),
            (w3.geometry)(seed),
            &mut layers,
        );
        beats.extend(machine.calib.runs(calib::BEATS));
        metrics::at_nominal_speed(&mut layers, calib::speed(&beats));
        println!(
            "  per-layer probes took {:.1} s",
            t0.elapsed().as_secs_f64()
        );
    }
    let end_to_end = match solver::WORKLOADS.iter().find(|w| w.name == name) {
        Some(w) => {
            let plan = |traced: bool, seconds: f64| solver::Plan {
                seed,
                threads,
                rounds: solver::rounds_for(w, seconds, traced),
                traced,
            };
            let pass = solver::run_pass(w, plan(false, seconds), &mut machine, &mut ops);
            print!("{}", solver::describe(w, &pass));
            solver::per_layer(w, &pass, &mut layers);
            if traced {
                let tp = solver::run_pass(w, plan(true, seconds / 4.0), &mut machine, &mut ops);
                solver::traced_rows(w, &pass, &tp, threads, &mut layers);
                if let Some(s) = &tp.spans {
                    write_json(&format!("trace.{name}.json"), &s.to_json());
                }
            }
            solver::end_to_end(w, &pass, machine.triad.gb_s())
        }
        None => {
            let blocks = serve::blocks_for(seconds);
            let specs = gen::job_mix(seed, blocks);
            let fleet = serve::run_fleet(seed, threads, blocks, false, &mut machine, &mut ops);
            print!("{}", serve::describe(&specs, &fleet));
            let solos = serve::solo_lap(&specs, threads, &mut machine);
            serve::check(&specs, &fleet, &solos, &mut ops);
            serve::per_layer(&specs, &fleet, &solos, threads, &mut layers);
            if traced {
                let short = serve::blocks_for(seconds / 4.0);
                let tf = serve::run_fleet(seed, threads, short, true, &mut machine, &mut ops);
                let first = &specs[..short * gen::BLOCK_JOBS];
                serve::check(first, &tf, &solos[..first.len()], &mut ops);
                serve::traced_rows(first, &fleet, &tf, &mut layers);
                if let Some(s) = &tf.spans {
                    write_json(&format!("trace.{name}.json"), &s.to_json());
                }
            }
            serve::end_to_end(&specs, &fleet, &solos, machine.triad.gb_s())
        }
    };
    let triad_gb_s = machine.triad.gb_s();
    layers.insert("host.triad_gb_s".into(), triad_gb_s);
    println!(
        "  host triad {triad_gb_s:.2} GB/s over 3 x {} MiB arrays (last-level cache {} MiB)",
        probes::TRIAD_ARRAY_BYTES >> 20,
        probes::LLC_BYTES >> 20
    );
    for note in &ops.notes {
        println!("  FAILED: {note}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        ops.attempted, ops.failed
    );
    Outcome {
        end_to_end,
        per_layer: layers,
        ops,
    }
}

/// `{name: {"value", "unit"}}`; a `workload/` prefix on a name is kept in
/// the key and ignored for the unit.
fn metrics_json(values: &Values) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(name, v)| {
                let metric = name.rsplit('/').next().expect("split yields one item");
                let row = Value::obj(vec![
                    ("value", Value::num(*v)),
                    ("unit", Value::str(unit_of(metric))),
                ]);
                (name.clone(), row)
            })
            .collect(),
    )
}

fn print_values(values: &Values) {
    for (name, v) in values {
        println!("  {name:<48} {v:>16.6} {}", unit_of(name));
    }
}

fn run(a: &Args) -> ExitCode {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut outcomes = BTreeMap::new();
    for name in &names {
        let o = run_workload(name, a.seed, a.seconds, a.traced);
        print_values(&o.end_to_end);
        if a.traced {
            print_values(&o.per_layer);
        }
        outcomes.insert(*name, o);
    }
    let attempted: u64 = outcomes.values().map(|o| o.ops.attempted).sum();
    let failed: u64 = outcomes.values().map(|o| o.ops.failed).sum();
    let report = Value::obj(vec![
        ("seed", Value::int(a.seed)),
        ("seconds", Value::num(a.seconds)),
        ("threads", Value::int(worker_threads() as u64)),
        ("available_parallelism", Value::int(nproc() as u64)),
        (
            "workloads",
            Value::Obj(
                outcomes
                    .iter()
                    .map(|(name, o)| {
                        let mut row = vec![
                            ("end_to_end", metrics_json(&o.end_to_end)),
                            ("ops_attempted", Value::int(o.ops.attempted)),
                            ("ops_failed", Value::int(o.ops.failed)),
                        ];
                        if a.traced {
                            row.push(("per_layer", metrics_json(&o.per_layer)));
                        }
                        (name.to_string(), Value::obj(row))
                    })
                    .collect(),
            ),
        ),
    ]);
    write_json("results.json", &report);

    // The result line: one workload's metrics by their plain names, or —
    // when all five ran — every metric prefixed with its workload.
    let mut line = Values::new();
    for (name, o) in &outcomes {
        let values = if a.traced {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        for (metric, v) in values {
            let key = match names.len() {
                1 => metric.clone(),
                _ => format!("{name}/{metric}"),
            };
            line.insert(key, *v);
        }
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::int(attempted)),
        ("failed", Value::int(failed)),
        ("metrics", metrics_json(&line)),
    ]);
    println!("{}", result.to_json());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: run the untraced set `runs` times on one seed and compare the runs
/// with each other. Simulated metrics must repeat exactly; a host-time
/// metric's spread must stay inside the bound `BENCHMARK.json` publishes.
fn aa(a: &Args) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        let runs: Vec<Outcome> = (0..a.runs)
            .map(|_| run_workload(name, a.seed, a.seconds, false))
            .collect();
        ok &= runs.iter().all(|o| o.ops.failed == 0);
        println!("-- A/A {name}: {} runs, seed {}", a.runs, a.seed);
        println!(
            "  {:<26} {:<7} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "better", "min", "median", "max", "spread", "bound"
        );
        for m in &END_TO_END {
            let v: Vec<f64> = runs.iter().map(|o| o.end_to_end[m.name]).collect();
            let s = stats::sorted(&v);
            let med = stats::median(&v);
            // Interquartile share once there are quartiles to speak of,
            // else the full range.
            let spread = if v.len() >= 4 {
                stats::iqr_share(&v)
            } else {
                (s[s.len() - 1] - s[0]) / med
            };
            let verdict = if m.exact {
                if s[0].to_bits() == s[s.len() - 1].to_bits() {
                    "exact"
                } else {
                    ok = false;
                    "DIFFERS"
                }
            } else if m.name == "setup_s" || spread <= m.bound {
                "ok"
            } else {
                ok = false;
                "OUTSIDE"
            };
            println!(
                "  {:<26} {:<7} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>6.1}%  {verdict}",
                m.name,
                m.better.label(),
                s[0],
                med,
                s[s.len() - 1],
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The root `.cargo/config.toml` raises the x86-64 baseline to AVX2 for
    // the whole workspace; a build that missed it (run from a directory
    // that does not inherit that file) would time different code.
    if cfg!(target_arch = "x86_64") && !cfg!(target_feature = "avx2") {
        eprintln!(
            "built without AVX2: run cargo from the repository so that its \
             .cargo/config.toml (target-cpu=x86-64-v3) applies"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "run" => run(&parsed),
        "aa" => aa(&parsed),
        _ => {
            eprintln!("unknown command {cmd:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

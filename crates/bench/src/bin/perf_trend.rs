//! Performance-trend gate over `BENCH_bench.json` (and the timed
//! `sparse-st` / `sparse-mr` pair of `BENCH_sparse.json`).
//!
//! Reads the wall-clock rows of a bench record (rows a section did not
//! time carry `speedup_vs_st: 0` and are skipped), prints the
//! per-(device, lattice, pattern) MR-vs-ST speedup table, and compares
//! each MR row against `perf_baseline.json`:
//!
//! - baseline missing → warn, write the current speedups as the new
//!   baseline, exit 0 (first run seeds the gate);
//! - any measured speedup below `REGRESSION_FRACTION` of its baseline →
//!   print the offending rows and exit 1;
//! - otherwise exit 0 without touching the baseline, so the committed
//!   reference stays the explicit choice of whoever regenerates it.
//!
//! Usage: `perf_trend [bench-json] [baseline-json]` (defaults:
//! `BENCH_bench.json`, `perf_baseline.json`).

use obs::json::Value;
use std::process::ExitCode;

/// A measured speedup may drop to this fraction of its baseline before the
/// gate fails — wall-clock noise on shared CI machines is real, so the
/// trip-wire is deliberately loose; it catches structural regressions
/// (a kernel falling off its vectorized path), not jitter.
const REGRESSION_FRACTION: f64 = 0.85;

struct Row {
    device: String,
    lattice: String,
    pattern: String,
    speedup: f64,
}

fn key(r: &Row) -> String {
    format!("{}/{}/{}", r.device, r.lattice, r.pattern)
}

fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = obs::json::parse(&src)?;
    let rows = doc
        .get("rows")
        .ok_or_else(|| format!("{path}: no `rows` array"))?;
    let mut out = Vec::new();
    for r in rows.items() {
        let field = |k: &str| -> Result<String, String> {
            r.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: row missing `{k}`"))
        };
        let speedup = r
            .get("speedup_vs_st")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: row missing `speedup_vs_st`"))?;
        if speedup == 0.0 {
            continue;
        }
        out.push(Row {
            device: field("device")?,
            lattice: field("lattice")?,
            pattern: field("pattern")?,
            speedup,
        });
    }
    Ok(out)
}

fn write_baseline(path: &str, rows: &[Row]) -> Result<(), String> {
    let entries = rows
        .iter()
        .filter(|r| r.pattern != "st")
        .map(|r| {
            Value::obj(vec![
                ("device", Value::str(r.device.clone())),
                ("lattice", Value::str(r.lattice.clone())),
                ("pattern", Value::str(r.pattern.clone())),
                ("speedup_vs_st", Value::num(r.speedup)),
            ])
        })
        .collect();
    let doc = Value::obj(vec![("rows", Value::Arr(entries))]);
    std::fs::write(path, doc.to_json()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let bench_path = args.next().unwrap_or_else(|| "BENCH_bench.json".into());
    let base_path = args.next().unwrap_or_else(|| "perf_baseline.json".into());

    let rows = read_rows(&bench_path)?;
    if rows.is_empty() {
        return Err(format!("{bench_path}: no timed rows"));
    }
    println!("== perf-trend: MR speedup vs ST ({bench_path}) ==");
    for r in &rows {
        println!(
            "{:<12} {:<6} {:<6} {:>6.2}x vs ST",
            r.device, r.lattice, r.pattern, r.speedup
        );
    }

    let baseline = match read_rows(&base_path) {
        Ok(b) => b,
        Err(_) => {
            println!("no baseline at {base_path}; seeding it from this run");
            write_baseline(&base_path, &rows)?;
            return Ok(true);
        }
    };

    let mut ok = true;
    for r in rows.iter().filter(|r| r.pattern != "st") {
        let Some(b) = baseline.iter().find(|b| key(b) == key(r)) else {
            println!("note: {} has no baseline entry (new row)", key(r));
            continue;
        };
        let floor = REGRESSION_FRACTION * b.speedup;
        if r.speedup < floor {
            println!(
                "REGRESSION {}: {:.2}x < {:.2}x ({}% of baseline {:.2}x)",
                key(r),
                r.speedup,
                floor,
                (REGRESSION_FRACTION * 100.0) as u32,
                b.speedup
            );
            ok = false;
        }
    }
    if ok {
        println!("perf-trend: all speedups within {REGRESSION_FRACTION} of baseline");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_trend: {e}");
            ExitCode::FAILURE
        }
    }
}

//! CI gate: validate that observability JSON artifacts parse.
//!
//! Usage: `obs-validate FILE...` — parses each file with the strict
//! in-crate JSON parser and, for Chrome traces (a top-level `traceEvents`
//! array), additionally checks span nesting: on every tid, each `E` must
//! close an open `B` and none may remain open at the end. `BENCH_slo.json`
//! records (`"section": "slo"`) get a full schema check: per-class
//! quantiles monotone, burn rates in [0, 1], a lossless event log whose
//! admit count covers every job, trace-span coverage, and roofline
//! attribution rows for at least two device models. Bench-style records
//! (`smoke` / `aa` / `bench-record` / `sparse`) get a row-schema check:
//! pattern names limited to the known set (`st`, `mr-p`, `mr-r`, the
//! in-place `st-aa` / `mr-t`, and the fluid-compacted `sparse-st` /
//! `sparse-mr`), byte-exact halved residency in `aa`, and both sparse
//! drivers plus a porosity sweep whose sparse residency shrinks with the
//! fluid count in `sparse`. Exits non-zero on the first failure.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every pattern name a BENCH row may carry: the three two-lattice
/// patterns of the paper, the in-place single-lattice variants
/// (AA-pattern ST and parity-twist MR), and the fluid-compacted sparse
/// drivers.
const KNOWN_PATTERNS: [&str; 7] = [
    "st",
    "mr-p",
    "mr-r",
    "st-aa",
    "mr-t",
    "sparse-st",
    "sparse-mr",
];

/// Schema check for any bench record carrying a `rows` array: pattern
/// names must come from the known set; `sparse` records must carry both
/// sparse drivers and a shrinking porosity sweep, `aa` records the
/// byte-exact halving.
fn validate_bench(v: &obs::json::Value, section: &str) -> Result<String, String> {
    let rows = v.get("rows").ok_or("missing rows")?.items();
    let mut seen = std::collections::BTreeSet::new();
    for (i, r) in rows.iter().enumerate() {
        let pat = r
            .get("pattern")
            .and_then(|p| p.as_str())
            .ok_or(format!("rows[{i}] missing pattern"))?;
        if !KNOWN_PATTERNS.contains(&pat) {
            return Err(format!(
                "rows[{i}] has unknown pattern '{pat}' (expected one of {KNOWN_PATTERNS:?})"
            ));
        }
        seen.insert(pat.to_string());
    }
    if section == "sparse" {
        for required in ["sparse-st", "sparse-mr"] {
            if !seen.contains(required) {
                return Err(format!("sparse record has no '{required}' rows"));
            }
        }
        let sweep = v
            .get("porosity_sweep")
            .ok_or("sparse record missing porosity_sweep")?
            .items();
        if sweep.len() < 2 {
            return Err("porosity_sweep needs at least two porosities".into());
        }
        let mut prev_fluid = f64::INFINITY;
        let mut prev_st = f64::INFINITY;
        for (i, r) in sweep.iter().enumerate() {
            let num = |k: &str| -> Result<f64, String> {
                r.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or(format!("porosity_sweep[{i}] missing {k}"))
            };
            let fluid = num("fluid_nodes")?;
            let st = num("sparse_st_bytes")?;
            let mr = num("sparse_mr_bytes")?;
            if mr >= st {
                return Err(format!(
                    "porosity_sweep[{i}]: sparse MR ({mr} B) not below sparse ST ({st} B)"
                ));
            }
            // Rock is free: more solid → fewer fluid nodes → fewer bytes.
            if fluid >= prev_fluid || st >= prev_st {
                return Err(format!(
                    "porosity_sweep[{i}]: residency not shrinking with the fluid count"
                ));
            }
            prev_fluid = fluid;
            prev_st = st;
        }
    }
    if section == "aa" {
        let resident = v
            .get("in_place_resident")
            .ok_or("aa record missing in_place_resident")?
            .items();
        if resident.is_empty() {
            return Err("in_place_resident is empty".into());
        }
        for (i, r) in resident.iter().enumerate() {
            let num = |k: &str| -> Result<f64, String> {
                r.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or(format!("in_place_resident[{i}] missing {k}"))
            };
            let one = num("resident_bytes")?;
            let two = num("two_lattice_bytes")?;
            if 2.0 * one != two {
                return Err(format!(
                    "in_place_resident[{i}]: {one} B resident is not an exact halving of {two} B"
                ));
            }
        }
    }
    Ok(format!(
        "{section} ok ({} rows, patterns {:?})",
        rows.len(),
        seen
    ))
}

/// Schema check for the `reproduce slo` bench record.
fn validate_slo(v: &obs::json::Value) -> Result<String, String> {
    let num = |path: &[&str]| -> Result<f64, String> {
        let mut cur = v;
        for k in path {
            cur = cur.get(k).ok_or(format!("missing {}", path.join(".")))?;
        }
        cur.as_f64()
            .ok_or(format!("{} is not a number", path.join(".")))
    };
    for class in ["interactive", "batch"] {
        let p50 = num(&["adaptive", class, "p50_ms"])?;
        let p90 = num(&["adaptive", class, "p90_ms"])?;
        let p99 = num(&["adaptive", class, "p99_ms"])?;
        if !(p50 <= p90 && p90 <= p99) {
            return Err(format!(
                "adaptive.{class} quantiles not monotone: p50 {p50} p90 {p90} p99 {p99}"
            ));
        }
        let burn = num(&["adaptive", class, "burn_rate"])?;
        if !(0.0..=1.0).contains(&burn) {
            return Err(format!("adaptive.{class}.burn_rate {burn} outside [0, 1]"));
        }
        num(&["adaptive", class, "count"])?;
        num(&["adaptive", class, "breaches"])?;
        num(&["adaptive", class, "mean_ms"])?;
    }
    num(&["adaptive", "target_p99_ms"])?;
    num(&["adaptive", "tunes"])?;
    num(&["adaptive", "slice_steps"])?;
    num(&["adaptive", "batch_max"])?;
    num(&["static", "interactive_p50_ms"])?;
    num(&["static", "interactive_p99_ms"])?;
    num(&["adaptive_pooled", "interactive_p99_ms"])?;
    num(&["interactive_p99_improvement_pct"])?;
    let jobs = num(&["jobs"])?;
    let total = num(&["events", "total"])?;
    let dropped = num(&["events", "dropped"])?;
    if dropped != 0.0 {
        return Err(format!("event ring dropped {dropped} events"));
    }
    let admits = num(&["events", "counts", "admit"])?;
    if admits < jobs {
        return Err(format!("{admits} admit events for {jobs} jobs"));
    }
    let spans = num(&["jobs_with_trace_spans"])?;
    if spans < jobs {
        return Err(format!("{spans} jobs with trace spans, expected >= {jobs}"));
    }
    let rows = v.get("roofline").ok_or("missing roofline")?.items();
    if rows.is_empty() {
        return Err("roofline attribution is empty".into());
    }
    let mut devices = std::collections::BTreeSet::new();
    for (i, r) in rows.iter().enumerate() {
        let dev = r
            .get("device")
            .and_then(|d| d.as_str())
            .ok_or(format!("roofline[{i}] missing device"))?;
        r.get("kernel")
            .and_then(|k| k.as_str())
            .ok_or(format!("roofline[{i}] missing kernel"))?;
        let gbps = r
            .get("achieved_gbps")
            .and_then(|g| g.as_f64())
            .ok_or(format!("roofline[{i}] missing achieved_gbps"))?;
        let pct = r
            .get("roofline_pct")
            .and_then(|p| p.as_f64())
            .ok_or(format!("roofline[{i}] missing roofline_pct"))?;
        if !(gbps > 0.0 && pct > 0.0 && pct <= 100.0) {
            return Err(format!(
                "roofline[{i}] out of range: {gbps} GB/s, {pct}% of roofline"
            ));
        }
        devices.insert(dev.to_string());
    }
    if devices.len() < 2 {
        return Err(format!(
            "roofline covers {} device model(s), expected both",
            devices.len()
        ));
    }
    Ok(format!(
        "slo ok ({} roofline gauges on {} devices, {total} events)",
        rows.len(),
        devices.len()
    ))
}

fn validate(path: &str) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let v = obs::json::parse(&src).map_err(|e| format!("invalid JSON: {e}"))?;
    if let Some(events) = v.get("traceEvents") {
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        let mut last_ts = 0.0f64;
        for (i, e) in events.items().iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(|p| p.as_str())
                .ok_or(format!("event {i} missing ph"))?;
            let ts = e
                .get("ts")
                .and_then(|t| t.as_f64())
                .ok_or(format!("event {i} missing ts"))?;
            if ts < last_ts {
                return Err(format!("event {i}: timestamp {ts} < previous {last_ts}"));
            }
            last_ts = ts;
            let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap_or(0.0) as u64;
            match ph {
                "B" => *open.entry(tid).or_insert(0) += 1,
                "E" => {
                    let depth = open.entry(tid).or_insert(0);
                    if *depth == 0 {
                        return Err(format!("event {i}: 'E' with no open 'B' on tid {tid}"));
                    }
                    *depth -= 1;
                }
                _ => {}
            }
        }
        if let Some((tid, depth)) = open.iter().find(|(_, &d)| d > 0) {
            return Err(format!("{depth} span(s) left open on tid {tid}"));
        }
        Ok(format!("trace ok ({} events)", events.items().len()))
    } else if let Some(metrics) = v.get("metrics") {
        Ok(format!("metrics ok ({} entries)", metrics.items().len()))
    } else if v.get("section").and_then(|s| s.as_str()) == Some("slo") {
        validate_slo(&v)
    } else if let Some(section @ ("smoke" | "aa" | "bench-record" | "sparse")) =
        v.get("section").and_then(|s| s.as_str())
    {
        validate_bench(&v, section)
    } else {
        Ok("json ok".to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: obs-validate FILE...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &args {
        match validate(path) {
            Ok(msg) => println!("obs-validate: {path}: {msg}"),
            Err(msg) => {
                eprintln!("obs-validate: {path}: FAIL: {msg}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The benchmark's metric names, units and directions — one table shared by
//! the program's output, `BENCHMARK.json` (checked by a unit test) and the
//! README glossary. Later issues refer to these names verbatim.

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (see README, "Bounds").
    pub bound: f64,
    /// Simulated quantities repeat exactly for one seed; `aa` compares
    /// them bit for bit instead of against `bound`.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// Bound of every host-time metric: the contract's cap. Identical runs on
/// the reference box spread 3–13 % (README, "Bounds"), and the driver wants
/// a bound of three times the spread.
const HOST_BOUND: f64 = 0.25;

const fn host(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: HOST_BOUND,
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        // Exact for one seed; across seeds the fluid count moves the
        // per-node figures by up to 1 %.
        bound: 0.05,
        exact: true,
    }
}

/// The sixteen end-to-end metrics. Host = wall-clock of this simulator;
/// sim = what the modelled V100 would do.
pub const END_TO_END: [EndToEnd; 16] = [
    host("setup_s", "s", Lower),
    host("mflups_mr", "MFLUPS", Higher),
    host("mflups_st", "MFLUPS", Higher),
    host("mflups_inplace", "MFLUPS", Higher),
    host("mr_vs_st", "ratio", Higher),
    host("step_ms_p90", "ms", Lower),
    host("shard_eff", "ratio", Higher),
    host("jobs_per_s", "1/s", Higher),
    host("serve_mflups", "MFLUPS", Higher),
    host("job_ms_p50_interactive", "ms", Lower),
    host("job_ms_p90_interactive", "ms", Lower),
    host("job_ms_p50_batch", "ms", Lower),
    sim("sim_bpf_mr", "B/FLUP", Lower),
    sim("sim_mflups_mr", "MFLUPS", Higher),
    sim("resident_bytes_per_node", "B", Lower),
    host("host_roofline_pct", "%", Higher),
];

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = ["dense2d", "dense3d", "sharded", "porous", "serve"];

/// The per-layer ledger: `(name, unit, better)`, prefix = module. A row
/// the current workload does not exercise reads 0 (see README).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // lattice: per-node Hermite maps (init and boundary rows only).
    ("lattice.from_f_ns_per_node.d2q9", "ns", Lower),
    ("lattice.from_f_ns_per_node.d3q19", "ns", Lower),
    ("lattice.f_from_moments_ns_per_node.d2q9", "ns", Lower),
    ("lattice.f_from_moments_ns_per_node.d3q19", "ns", Lower),
    // core: chunk kernels without the substrate, the plain reference
    // solver, and the checkpoint codec.
    ("core.kernels.mr_p_ns_per_node.d2q9", "ns", Lower),
    ("core.kernels.mr_p_ns_per_node.d3q19", "ns", Lower),
    ("core.kernels.mr_r_ns_per_node.d2q9", "ns", Lower),
    ("core.kernels.mr_r_ns_per_node.d3q19", "ns", Lower),
    ("core.kernels.moments_from_f_ns_per_node.d2q9", "ns", Lower),
    ("core.kernels.moments_from_f_ns_per_node.d3q19", "ns", Lower),
    ("core.kernels.bgk_soa_ns_per_node.d2q9", "ns", Lower),
    ("core.kernels.bgk_soa_ns_per_node.d3q19", "ns", Lower),
    ("core.solver.ref_mflups.d2q9", "MFLUPS", Higher),
    ("core.solver.ref_mflups.d3q19", "MFLUPS", Higher),
    ("core.io.ckpt_encode_mb_s", "MB/s", Higher),
    ("core.io.ckpt_decode_mb_s", "MB/s", Higher),
    // gpu-sim: counted memory, launch/dispatch cost, exact ledgers.
    ("gpu-sim.memory.read_span_ns_per_kb", "ns", Lower),
    ("gpu-sim.memory.write_span_ns_per_kb", "ns", Lower),
    ("gpu-sim.memory.read_span_touch_ns_per_kb", "ns", Lower),
    ("gpu-sim.memory.gather_ns_per_kb", "ns", Lower),
    ("gpu-sim.exec.launch_ns_inline", "ns", Lower),
    ("gpu-sim.exec.launch_ns_pooled", "ns", Lower),
    ("gpu-sim.exec.phase_barrier_ns", "ns", Lower),
    ("gpu-sim.pool.run_ns_per_block", "ns", Lower),
    ("gpu-sim.interconnect.transfer_ns", "ns", Lower),
    ("gpu-sim.dram_bytes_per_flup.st", "B/FLUP", Lower),
    ("gpu-sim.l2_hit_rate.st", "ratio", Higher),
    ("gpu-sim.l2_hit_rate.mr", "ratio", Higher),
    ("gpu-sim.launches_per_step.st", "count", Lower),
    ("gpu-sim.launches_per_step.mr", "count", Lower),
    // lbm-gpu: the single-device drivers.
    ("lbm-gpu.step_ns_per_node.st.2d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.mr-p.2d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.mr-t.2d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.mr-r.2d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.st-aa.2d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.st.3d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.mr-p.3d", "ns", Lower),
    ("lbm-gpu.step_ns_per_node.mr-t.3d", "ns", Lower),
    ("lbm-gpu.self_ns_per_node.mr-p.2d", "ns", Lower),
    ("lbm-gpu.self_ns_per_node.mr-p.3d", "ns", Lower),
    ("lbm-gpu.self_ns_per_node.st.2d", "ns", Lower),
    ("lbm-gpu.self_ns_per_node.st.3d", "ns", Lower),
    ("lbm-gpu.substrate_tax.2d", "ratio", Lower),
    ("lbm-gpu.substrate_tax.3d", "ratio", Lower),
    ("lbm-gpu.build_s.dense", "s", Lower),
    ("lbm-gpu.build_s.sparse", "s", Lower),
    ("lbm-gpu.checkpoint_ms", "ms", Lower),
    ("lbm-gpu.restore_ms", "ms", Lower),
    ("lbm-gpu.checkpoint_bytes_per_node", "B", Lower),
    // lbm-multi: sharding.
    ("lbm-multi.step_ns_per_node.st.x4", "ns", Lower),
    ("lbm-multi.step_ns_per_node.mr-p.x4", "ns", Lower),
    ("lbm-multi.shard_overhead_us_per_step", "us", Lower),
    ("lbm-multi.halo_bytes_per_step.st", "B", Lower),
    ("lbm-multi.halo_bytes_per_step.mr", "B", Lower),
    ("lbm-multi.halo_bytes_per_step.sparse-mr", "B", Lower),
    ("lbm-multi.overlap_efficiency", "ratio", Higher),
    ("lbm-multi.link_bytes_per_step", "B", Lower),
    ("lbm-multi.halo_retries", "count", Lower),
    // lbm-serve: the fleet.
    ("lbm-serve.submit_us_p50", "us", Lower),
    ("lbm-serve.build_ms_p50.interactive", "ms", Lower),
    ("lbm-serve.build_ms_p50.batch", "ms", Lower),
    ("lbm-serve.solo_ms_p50.interactive", "ms", Lower),
    ("lbm-serve.solo_ms_p50.batch", "ms", Lower),
    ("lbm-serve.queue_wait_ms_p50.interactive", "ms", Lower),
    ("lbm-serve.queue_wait_ms_p50.batch", "ms", Lower),
    ("lbm-serve.slowdown_p50.interactive", "ratio", Lower),
    ("lbm-serve.executor_busy_share", "ratio", Higher),
    ("lbm-serve.evictions_per_job", "count", Lower),
    ("lbm-serve.job_ms_p99_interactive", "ms", Lower),
    ("lbm-serve.slices_per_job", "count", Lower),
    ("lbm-serve.mean_group_width", "count", Higher),
    ("lbm-serve.evict_resume_ms_p50", "ms", Lower),
    // obs: what observing costs.
    ("obs.span_ns", "ns", Lower),
    ("obs.counter_add_ns", "ns", Lower),
    ("obs.event_record_ns", "ns", Lower),
    ("obs.traced_overhead_pct.dense2d", "%", Lower),
    ("obs.traced_overhead_pct.dense3d", "%", Lower),
    ("obs.traced_overhead_pct.sharded", "%", Lower),
    ("obs.traced_overhead_pct.porous", "%", Lower),
    ("obs.traced_overhead_pct.serve", "%", Lower),
    ("obs.spans_per_step", "count", Lower),
    ("obs.dropped_events", "count", Lower),
    // host: the machine under the simulator.
    ("host.triad_gb_s", "GB/s", Higher),
    ("host.stall_share", "ratio", Lower),
    ("host.calib_ms", "ms", Lower),
];

/// Unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
        .1
}

/// Fill a per-layer row. Panics on a name the registry does not have, so a
/// typo cannot add a row `BENCHMARK.json` does not declare.
pub fn set(out: &mut Values, name: &str, x: f64) {
    assert!(
        out.insert(name.to_string(), x).is_some(),
        "{name} is not a per-layer row"
    );
}

/// Every per-layer row, zeroed: the rows a workload exercises overwrite
/// their entry, the rest stay 0.
pub fn per_layer_zeroed() -> Values {
    PER_LAYER.iter().map(|m| (m.0.to_string(), 0.0)).collect()
}

/// Bring every measured time and rate in `values` to nominal machine
/// speed: times are multiplied by `speed` (see `crate::calib::speed`),
/// rates divided; ratios, counts and bytes are left alone.
pub fn at_nominal_speed(values: &mut Values, speed: f64) {
    for (name, v) in values.iter_mut() {
        match unit_of(name) {
            "ns" | "us" | "ms" | "s" => *v *= speed,
            "MFLUPS" | "MB/s" | "GB/s" | "1/s" => *v /= speed,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_registry() {
        let m = manifest();
        let e2e = m.get("end_to_end").expect("end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(have, "name"), want.name);
            assert_eq!(field(have, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(have, "better"), want.better.label(), "{}", want.name);
            let bound = have.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, Some(want.bound), "{}", want.name);
            assert!(want.bound <= 0.25);
        }
        let layers = m.get("per_layer").expect("per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (have, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(have, "name"), want.0);
            assert_eq!(field(have, "unit"), want.1, "{}", want.0);
            assert_eq!(field(have, "better"), want.2.label(), "{}", want.0);
        }
        let names: Vec<&str> = m
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS);
        for n in &all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}

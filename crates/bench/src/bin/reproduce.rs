//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! reproduce [table1|table2|table3|table4|figure2|figure3|footprint|speedups|occupancy
//!            |profile|futurework|smoke|aa|sparse|resilience|serve|slo|all]
//!           [--quick]
//!           [--inject=nan|abort|link|all] [--checkpoint-every=<n>]
//!           [--jobs=<n>] [--seed=<n>]
//!           [--trace=<path>] [--metrics=<path>] [--events=<path>]
//! ```
//!
//! The section is the one positional argument (default `all`); any other
//! argument prints the usage and exits 2. With `--quick` the measurement
//! domains are smaller (CI-friendly). Every section prints the paper's
//! reference numbers next to the reproduced ones; `EXPERIMENTS.md` records
//! a captured run. Outside `serve` / `slo` (fleet latency is their
//! subject) nothing here reads a clock, so every `BENCH_*.json` repeats
//! byte for byte from run to run; wall-clock time of the substrate is
//! measured by `benchmark/` (see `benchmark/README.md`). The `aa` section
//! is the in-place smoke: bitwise equivalence to the two-lattice drivers
//! and byte-exact `Q·8` / `M·8` residency through the metrics registry.
//! The `sparse` section gates the fluid-compacted drivers: porosity-swept
//! footprints on the fluid-count model, the indirect-addressing B/F,
//! bitwise equality with the dense drivers, and exact sparse halo bytes.

use gpu_sim::efficiency::{bandwidth_fraction, modeled_bandwidth_gbps, Pattern};
use gpu_sim::roofline::{bytes_per_flup_mr, bytes_per_flup_st, mflups_max_on};
use gpu_sim::DeviceSpec;
use lbm_bench::{figure_sizes, run, run_3d_q39_st, RunResult};
use lbm_gpu::footprint::footprint_table;
use std::sync::Arc;

fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::v100(), DeviceSpec::mi100()]
}

const PATTERNS: [Pattern; 3] = [
    Pattern::Standard,
    Pattern::MomentProjective,
    Pattern::MomentRecursive,
];

fn table1() {
    println!("== Table 1: device features =========================================");
    println!("{:<16} {:>16} {:>16}", "", "NVIDIA V100", "AMD MI100");
    let [v, m] = devices();
    let rows: Vec<(&str, String, String)> = vec![
        (
            "Frequency",
            format!("{} MHz", v.frequency_mhz),
            format!("{} MHz", m.frequency_mhz),
        ),
        ("CUDA/HIP cores", v.cores.to_string(), m.cores.to_string()),
        (
            "SM/CU count",
            v.sm_count.to_string(),
            m.sm_count.to_string(),
        ),
        (
            "Shared mem",
            format!("{} KB/SM", v.shared_mem_per_sm / 1024),
            format!("{} KB/CU", m.shared_mem_per_sm / 1024),
        ),
        (
            "L1",
            format!("{} KB/SM", v.l1_per_sm / 1024),
            format!("{} KB/CU", m.l1_per_sm / 1024),
        ),
        (
            "L2 (unified)",
            format!("{} KB", v.l2_bytes / 1024),
            format!("{} KB", m.l2_bytes / 1024),
        ),
        (
            "Memory",
            format!("HBM2 {} GB", v.memory_bytes >> 30),
            format!("HBM2 {} GB", m.memory_bytes >> 30),
        ),
        (
            "Bandwidth",
            format!("{} GB/s", v.bandwidth_gbps),
            format!("{} GB/s", m.bandwidth_gbps),
        ),
        ("Compiler", v.compiler.to_string(), m.compiler.to_string()),
    ];
    for (k, a, b) in rows {
        println!("{k:<16} {a:>16} {b:>16}");
    }
    println!();
}

/// Measure B/F for every pattern/lattice on moderate domains.
fn measure_all(quick: bool) -> Vec<RunResult> {
    use lbm_lattice::{D2Q9, D3Q19};
    let (n2, s2) = if quick { ((96, 48), 2) } else { ((192, 96), 3) };
    let (n3, s3) = if quick {
        ((24, 16, 16), 2)
    } else {
        ((48, 24, 24), 3)
    };
    let mut out = Vec::new();
    for pattern in PATTERNS {
        // B/F is device-independent; measure once, reuse for both devices.
        out.push(run::<D2Q9>(
            DeviceSpec::v100(),
            pattern,
            (n2.0, n2.1, 1),
            s2,
        ));
        out.push(run::<D3Q19>(DeviceSpec::v100(), pattern, n3, s3));
    }
    out
}

fn find<'a>(results: &'a [RunResult], p: Pattern, lattice: &str) -> &'a RunResult {
    results
        .iter()
        .find(|r| r.pattern == p && r.lattice == lattice)
        .expect("missing measurement")
}

fn table2(results: &[RunResult]) {
    println!("== Table 2: bytes per fluid lattice update (B/F) ====================");
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>12} {:>12}",
        "pattern", "model", "D2Q9", "D3Q19", "meas. D2Q9", "meas. D3Q19"
    );
    let st2 = find(results, Pattern::Standard, "D2Q9").measured_bpf;
    let st3 = find(results, Pattern::Standard, "D3Q19").measured_bpf;
    let mr2 = find(results, Pattern::MomentProjective, "D2Q9").measured_bpf;
    let mr3 = find(results, Pattern::MomentProjective, "D3Q19").measured_bpf;
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>12.1} {:>12.1}",
        "ST",
        "2Q*double",
        bytes_per_flup_st(9),
        bytes_per_flup_st(19),
        st2,
        st3
    );
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>12.1} {:>12.1}",
        "MR",
        "2M*double",
        bytes_per_flup_mr(6),
        bytes_per_flup_mr(10),
        mr2,
        mr3
    );
    println!("(measured = DRAM bytes from the traffic ledger; halo re-reads hit the modeled L2)");
    println!();
}

fn table3() {
    println!("== Table 3: roofline MFLUPS (eq. 15) ================================");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "model", "V100 D2Q9", "V100 D3Q19", "MI100 D2Q9", "MI100 D3Q19"
    );
    let [v, m] = devices();
    println!(
        "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
        "ST",
        mflups_max_on(&v, 144.0),
        mflups_max_on(&v, 304.0),
        mflups_max_on(&m, 144.0),
        mflups_max_on(&m, 304.0),
    );
    println!(
        "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
        "MR",
        mflups_max_on(&v, 96.0),
        mflups_max_on(&v, 160.0),
        mflups_max_on(&m, 96.0),
        mflups_max_on(&m, 160.0),
    );
    println!("(paper: ST 6250/2960 and 8533/4042; MR 9375/5625 and 12800/7680)");
    println!();
}

fn table4() {
    println!("== Table 4: sustained bandwidth (GB/s, modeled at 16M nodes) ========");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "model", "V100 D2Q9", "V100 D3Q19", "MI100 D2Q9", "MI100 D3Q19"
    );
    let n = 16_000_000;
    for (label, p) in [
        ("ST", Pattern::Standard),
        ("MR-P", Pattern::MomentProjective),
        ("MR-R", Pattern::MomentRecursive),
    ] {
        let [v, m] = devices();
        println!(
            "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            label,
            modeled_bandwidth_gbps(&v, p, 2, n),
            modeled_bandwidth_gbps(&v, p, 3, n),
            modeled_bandwidth_gbps(&m, p, 2, n),
            modeled_bandwidth_gbps(&m, p, 3, n),
        );
    }
    println!("(paper §4.2–4.3: V100 ST ≈ 790, MR ≈ 664 GB/s in 2D; MI100 ST ≈ 665, MR ≈ 614)");
    println!();
}

fn figure(results: &[RunResult], dim: usize) {
    let (lat, fig) = if dim == 2 { ("D2Q9", 2) } else { ("D3Q19", 3) };
    println!("== Figure {fig}: {lat} MFLUPS vs problem size =========================");
    for dev in devices() {
        println!("-- {} --", dev.name);
        print!("{:>12}", "nodes");
        for p in PATTERNS {
            print!(" {:>10}", p.label());
        }
        println!(" {:>12} {:>12}", "roof ST", "roof MR");
        let roof_st = mflups_max_on(&dev, bytes_per_flup_st(if dim == 2 { 9 } else { 19 }));
        let roof_mr = mflups_max_on(&dev, bytes_per_flup_mr(if dim == 2 { 6 } else { 10 }));
        for n in figure_sizes() {
            print!("{n:>12}");
            for p in PATTERNS {
                let r = find(results, p, lat);
                print!(" {:>10.0}", r.modeled_mflups(&dev, n));
            }
            println!(" {roof_st:>12.0} {roof_mr:>12.0}");
        }
    }
    if dim == 2 {
        println!(
            "(paper sustained: V100 ST≈5300, MR-P≈7000; MI100 ST≈6200, MR-P≈8600; MR-R ≈ MR-P)"
        );
    } else {
        println!("(paper sustained: V100 ST≈2600, MR-P≈3800, MR-R≈3000; MI100 ST≈2800, MR-P≈3200, MR-R≈2500)");
    }
    println!();
}

fn footprint() {
    println!("== §4.1: memory footprint for 15M fluid nodes =======================");
    const GIB: f64 = (1u64 << 30) as f64;
    println!(
        "{:<8} {:>10} {:>15} {:>16} {:>12} {:>12} {:>12} {:>12}",
        "lattice",
        "ST (GiB)",
        "MR paper (GiB)",
        "MR single (GiB)",
        "AA-ST (GiB)",
        "MR-T (GiB)",
        "single red.",
        "twist red."
    );
    for r in footprint_table(15_000_000) {
        println!(
            "{:<8} {:>10.2} {:>15.2} {:>16.2} {:>12.2} {:>12.2} {:>11.1}% {:>11.1}%",
            r.lattice,
            r.st_bytes as f64 / GIB,
            r.mr_paper_bytes as f64 / GIB,
            r.mr_single_bytes as f64 / GIB,
            r.aa_st_bytes as f64 / GIB,
            r.mr_twist_bytes as f64 / GIB,
            100.0 * r.single_reduction(),
            100.0 * r.twist_reduction(),
        );
        assert_eq!(2 * r.aa_st_bytes, r.st_bytes);
        assert_eq!(2 * r.mr_twist_bytes, r.mr_paper_bytes);
    }
    println!("(paper: 2 GB vs 1.3 GB (~35% less) in 2D; 4.2 GB vs 2.23 GB (~47% less) in 3D;");
    println!(" in-place AA-ST/MR-T halve their two-lattice counterparts byte-exactly)");
    println!();
}

fn speedups(results: &[RunResult]) {
    println!("== §5: MR-P vs ST speedups at 16M nodes =============================");
    let n = 16_000_000;
    println!(
        "{:<12} {:>8} {:>10} {:>8}",
        "device", "lattice", "speedup", "paper"
    );
    let paper = [
        ("NVIDIA V100", "D2Q9", 1.32),
        ("AMD MI100", "D2Q9", 1.38),
        ("NVIDIA V100", "D3Q19", 1.46),
        ("AMD MI100", "D3Q19", 1.14),
    ];
    for dev in devices() {
        for lat in ["D2Q9", "D3Q19"] {
            let st = find(results, Pattern::Standard, lat);
            let mr = find(results, Pattern::MomentProjective, lat);
            let s = mr.modeled_mflups(&dev, n) / st.modeled_mflups(&dev, n);
            let p = paper
                .iter()
                .find(|(d, l, _)| *d == dev.name && *l == lat)
                .map(|(_, _, v)| *v)
                .unwrap_or(f64::NAN);
            println!("{:<12} {:>8} {:>10.2} {:>8.2}", dev.name, lat, s, p);
        }
    }
    println!();
}

fn future_work(quick: bool) {
    println!("== §5 future work: D3Q27 through the same kernels ===================");
    let (dims, steps) = if quick {
        ((16, 12, 12), 2)
    } else {
        ((32, 16, 16), 2)
    };
    let q27 = |pattern| run::<lbm_lattice::D3Q27>(DeviceSpec::v100(), pattern, dims, steps);
    let st = q27(Pattern::Standard);
    let mrp = q27(Pattern::MomentProjective);
    let mrr = q27(Pattern::MomentRecursive);
    println!(
        "measured B/F: ST {:.1} (model 2Q·8 = 432), MR-P {:.1} (2M·8 = 160), MR-R {:.1}",
        st.measured_bpf, mrp.measured_bpf, mrr.measured_bpf
    );
    let [v, m] = devices();
    for dev in [&v, &m] {
        let roof_st = mflups_max_on(dev, st.measured_bpf);
        let roof_mr = mflups_max_on(dev, mrp.measured_bpf);
        println!(
            "{:<12} roofline: ST {:>5.0} vs MR {:>5.0} MFLUPS → potential ×{:.2} (D3Q19 was ×1.90)",
            dev.name,
            roof_st,
            roof_mr,
            roof_mr / roof_st
        );
    }
    println!("(the paper cites D3Q27's runtime cost as a reason it is avoided; MR closes most of the gap)");

    // Multi-speed D3Q39: ST measured for real. MR-D3Q39 remains future
    // work here too: the sliding window needs reach-1 streaming.
    let q39 = run_3d_q39_st(DeviceSpec::v100(), if quick { 12 } else { 20 }, 2);
    println!(
        "D3Q39 (multi-speed, c_s² = 2/3): measured ST B/F {:.1} (model 624)",
        q39.measured_bpf
    );
    // Table 3's rooflines assume *direct* addressing; the indirect
    // (fluid-compacted) alternative of refs [4]/[15] pays for its links.
    println!("-- direct vs indirect addressing (ST, measured B/F) --");
    {
        use lbm_core::collision::Bgk;
        use lbm_gpu::StSparseSim;
        use lbm_lattice::D2Q9;
        let n = if quick { (48, 24) } else { (96, 48) };
        let mut sp: StSparseSim<D2Q9, _> = StSparseSim::new(
            DeviceSpec::v100(),
            lbm_core::Geometry::walls_y_periodic_x(n.0, n.1),
            Bgk::new(lbm_bench::TAU),
        );
        sp.run(2);
        println!(
            "D2Q9 indirect B/F {:.1} (direct 144; the Q·4 B link penalty) → roofline {:.0} vs {:.0} MFLUPS on the V100",
            sp.measured_bpf(),
            mflups_max_on(&DeviceSpec::v100(), sp.measured_bpf()),
            mflups_max_on(&DeviceSpec::v100(), 144.0),
        );
    }

    // §5 also points at emerging architectures with larger caches.
    println!("-- emerging devices (roofline projections only; no calibration exists) --");
    for dev in [DeviceSpec::a100(), DeviceSpec::mi250x_gcd()] {
        let st19 = mflups_max_on(&dev, 304.0);
        let mr19 = mflups_max_on(&dev, 160.0);
        println!(
            "{:<18} L2 {:>3} MB, {:>6.0} GB/s: D3Q19 roofline ST {:>5.0} vs MR {:>5.0} MFLUPS",
            dev.name,
            dev.l2_bytes / (1024 * 1024),
            dev.bandwidth_gbps,
            st19,
            mr19
        );
    }
    println!();
}

fn profile(quick: bool) {
    println!("== Kernel profile (nvvp/rocprof analog) =============================");
    use lbm_bench::TAU;
    use lbm_core::collision::Bgk;
    use lbm_core::Geometry;
    use lbm_gpu::{MrScheme, MrSim2D, MrSim3D, StSim};
    use lbm_lattice::{D2Q9, D3Q19};
    let hub = obs::Obs::shared();
    let (n2, n3) = if quick {
        ((48, 24), (16, 12, 12))
    } else {
        ((96, 48), (32, 16, 16))
    };
    let mut st: StSim<D2Q9, _> = StSim::new(
        DeviceSpec::v100(),
        Geometry::channel_2d(n2.0, n2.1, 0.04),
        Bgk::new(TAU),
    )
    .with_obs(hub.clone());
    st.run(2);
    let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        Geometry::walls_y_periodic_x(n2.0, n2.1),
        MrScheme::projective(),
        TAU,
    )
    .with_obs(hub.clone());
    mr.run(2);
    let mut mr3: MrSim3D<D3Q19> = MrSim3D::new(
        DeviceSpec::v100(),
        Geometry::duct(n3.0, n3.1, n3.2),
        MrScheme::recursive::<D3Q19>(),
        TAU,
    )
    .with_obs(hub.clone());
    mr3.run(2);
    // One row per kernel the hub saw launched, read from its counters.
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>14} {:>12}",
        "kernel", "launches", "bytes read", "bytes written", "DRAM bytes", "L2 read hits"
    );
    let m = &hub.metrics;
    for (key, _) in m.snapshot().iter().filter(|(k, _)| k.name == "launches") {
        let labels: Vec<(&str, &str)> = key
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let kernel = labels
            .iter()
            .find(|(k, _)| *k == "kernel")
            .map_or("", |l| l.1);
        let c = |name| m.counter(name, &labels).unwrap_or(0);
        println!(
            "{:<24} {:>8} {:>14} {:>14} {:>14} {:>12}",
            kernel,
            c("launches"),
            c("bytes_read"),
            c("bytes_written"),
            c("dram_bytes"),
            c("l2_read_hits")
        );
    }
    // Table 2's quantity: DRAM bytes per fluid lattice update, per driver.
    for (driver, bpf) in [
        ("ST D2Q9", st.measured_bpf()),
        ("MR-P D2Q9", mr.measured_bpf()),
        ("MR-R D3Q19", mr3.measured_bpf()),
    ] {
        println!("{driver:<24} B/F {bpf:.1}");
    }
    println!();
}

fn occupancy_report() {
    println!("== §3.2: MR shared memory and occupancy =============================");
    for dev in devices() {
        // 2D: column width 32, tile height 1 → 32·3·9 doubles shared.
        let sh2 = 32 * 3 * 9 * 8;
        let o2 = gpu_sim::occupancy::occupancy(&dev, 34, sh2);
        // 3D: 8×8 footprint → 8·8·3·19 doubles shared.
        let sh3 = 8 * 8 * 3 * 19 * 8;
        let o3 = gpu_sim::occupancy::occupancy(&dev, 100, sh3);
        println!(
            "{:<12} 2D: {:>6} B shared, {} blocks/SM ({:?})   3D: {:>6} B shared, {} blocks/SM ({:?})",
            dev.name, sh2, o2.blocks_per_sm, o2.limiter, sh3, o3.blocks_per_sm, o3.limiter
        );
    }
    println!("(the paper's guidance: two or more thread blocks per SM)");
    println!();
}

/// One multi-device measurement: exact halo traffic, overlap, modeled
/// throughput, and the deviation from the single-device run.
struct ScaleRow {
    n: usize,
    repr: &'static str,
    halo_per_step: u64,
    efficiency: f64,
    mflups: f64,
    diff: f64,
}

fn scale_row(
    n: usize,
    repr: &'static str,
    halo_per_step: u64,
    stats: &lbm_multi::OverlapStats,
    fluid: usize,
    diff: f64,
) -> ScaleRow {
    ScaleRow {
        n,
        repr,
        halo_per_step,
        efficiency: stats.overlap_efficiency(),
        mflups: stats.modeled_mflups(fluid),
        diff,
    }
}

/// The wire-traffic half of Table 2: every halo node costs `M·8` bytes in
/// moment space vs `Q·8` in distribution space, so per-step halo bytes must
/// relate by exactly `M/Q` on identical geometry.
fn check_halo_ratio(rows: &[ScaleRow], m: u64, q: u64, lattice: &str) {
    for n in rows
        .iter()
        .map(|r| r.n)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let st = rows.iter().find(|r| r.n == n && r.repr == "ST").unwrap();
        for mr in rows.iter().filter(|r| r.n == n && r.repr != "ST") {
            assert_eq!(
                mr.halo_per_step * q,
                st.halo_per_step * m,
                "{lattice} N={n}: {} halo bytes must be exactly M/Q = {m}/{q} of ST's",
                mr.repr
            );
        }
    }
    println!(
        "(halo-byte ratio MR/ST verified byte-exact: {m}/{q} = {}·8/{}·8 B per halo node)",
        m, q
    );
}

fn max_udiff(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| (0..3).map(move |k| (x[k] - y[k]).abs()))
        .fold(0.0, f64::max)
}

fn init_2d(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
    (
        1.0 + 0.01 * ((x as f64 * 0.37 + y as f64 * 0.61).sin()),
        [
            0.02 * (y as f64 * 0.5).sin(),
            0.01 * (x as f64 * 0.3).cos(),
            0.0,
        ],
    )
}

fn init_3d(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
    (
        1.0 + 0.01 * ((x as f64 * 0.37 + z as f64 * 0.41).sin()),
        [
            0.02 * (y as f64 * 0.5).sin() * (z as f64 * 0.4).cos(),
            0.01 * (x as f64 * 0.3).cos(),
            0.01 * (y as f64 * 0.7).sin(),
        ],
    )
}

/// Run all three representations sharded N ways on one 2D geometry and
/// compare each against its own single-device run.
fn scale_2d(geom: &lbm_core::Geometry, n: usize, steps: usize) -> Vec<ScaleRow> {
    use lbm_core::collision::Projective;
    use lbm_gpu::{MrScheme, MrSim2D, StSim};
    use lbm_lattice::D2Q9;
    use lbm_multi::{MultiMrSim2D, MultiStSim};
    let dev = DeviceSpec::v100();
    let tau = lbm_bench::TAU;
    let fluid = geom.fluid_count();
    let mut rows = Vec::new();

    let mut st: MultiStSim<D2Q9, _> =
        MultiStSim::new(dev.clone(), geom.clone(), Projective::new(tau), n);
    st.init_with(init_2d);
    st.run(steps);
    let mut st1: StSim<D2Q9, _> = StSim::new(dev.clone(), geom.clone(), Projective::new(tau));
    st1.init_with(init_2d);
    st1.run(steps);
    rows.push(scale_row(
        n,
        "ST",
        st.halo_bytes_per_step(),
        st.stats(),
        fluid,
        max_udiff(&st.velocity_field(), &st1.velocity_field()),
    ));

    for (label, mk) in [
        ("MR-P", MrScheme::projective as fn() -> MrScheme),
        ("MR-R", MrScheme::recursive::<D2Q9>),
    ] {
        let mut mr: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(dev.clone(), geom.clone(), mk(), tau, n);
        mr.init_with(init_2d);
        mr.run(steps);
        let mut mr1: MrSim2D<D2Q9> = MrSim2D::new(dev.clone(), geom.clone(), mk(), tau);
        mr1.init_with(init_2d);
        mr1.run(steps);
        rows.push(scale_row(
            n,
            label,
            mr.halo_bytes_per_step(),
            mr.stats(),
            fluid,
            max_udiff(&mr.velocity_field(), &mr1.velocity_field()),
        ));
    }
    rows
}

/// Same for 3D on a periodic-x duct.
fn scale_3d(geom: &lbm_core::Geometry, n: usize, steps: usize) -> Vec<ScaleRow> {
    use lbm_core::collision::Projective;
    use lbm_gpu::{MrScheme, MrSim3D, StSim};
    use lbm_lattice::D3Q19;
    use lbm_multi::{MultiMrSim3D, MultiStSim};
    let dev = DeviceSpec::v100();
    let tau = lbm_bench::TAU;
    let fluid = geom.fluid_count();
    let mut rows = Vec::new();

    let mut st: MultiStSim<D3Q19, _> =
        MultiStSim::new(dev.clone(), geom.clone(), Projective::new(tau), n);
    st.init_with(init_3d);
    st.run(steps);
    let mut st1: StSim<D3Q19, _> = StSim::new(dev.clone(), geom.clone(), Projective::new(tau));
    st1.init_with(init_3d);
    st1.run(steps);
    rows.push(scale_row(
        n,
        "ST",
        st.halo_bytes_per_step(),
        st.stats(),
        fluid,
        max_udiff(&st.velocity_field(), &st1.velocity_field()),
    ));

    for (label, mk) in [
        ("MR-P", MrScheme::projective as fn() -> MrScheme),
        ("MR-R", MrScheme::recursive::<D3Q19>),
    ] {
        let mut mr: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(dev.clone(), geom.clone(), mk(), tau, n);
        mr.init_with(init_3d);
        mr.run(steps);
        let mut mr1: MrSim3D<D3Q19> = MrSim3D::new(dev.clone(), geom.clone(), mk(), tau);
        mr1.init_with(init_3d);
        mr1.run(steps);
        rows.push(scale_row(
            n,
            label,
            mr.halo_bytes_per_step(),
            mr.stats(),
            fluid,
            max_udiff(&mr.velocity_field(), &mr1.velocity_field()),
        ));
    }
    rows
}

/// One ideal-pattern run on the shared hub, traced, metered and
/// monitor-verified: Table 2's B/F must come out byte-exact both from the
/// driver's ledger and through the registry — the change in the hub's
/// `dram_bytes` counter of `kernel` over the run, per fluid update (runs
/// share the hub and some share a kernel name, hence the difference) — and
/// the run records a BENCH row.
fn ideal_run<B: lbm_gpu::DriverBody<Dev = gpu_sim::Gpu>>(
    hub: &Arc<obs::Obs>,
    rec: &mut obs::BenchRecord,
    sim: lbm_gpu::Sim<B>,
    init: fn(usize, usize, usize) -> (f64, [f64; 3]),
    steps: u64,
    (pattern, lattice, kernel): (&str, &str, &str),
    ideal_bpf: f64,
) {
    use lbm_core::Simulation as _;
    let dev = DeviceSpec::v100();
    let labels = [("kernel", kernel), ("device", dev.name)];
    let dram = || hub.metrics.counter("dram_bytes", &labels).unwrap_or(0);
    let before = dram();
    let mut sim = sim.with_obs(hub.clone()).with_monitor(obs::MonitorConfig {
        cadence: 1,
        ..Default::default()
    });
    sim.init_with(init);
    sim.run(steps as usize);
    let fluid = sim.fluid_nodes() as u64;
    let bpf = sim.measured_bpf();
    assert!(
        (bpf - ideal_bpf).abs() < 1e-9,
        "{pattern}/{lattice}: measured B/F {bpf} != Table 2 ideal {ideal_bpf}"
    );
    let monitor = sim.monitor().unwrap();
    assert!(
        monitor.is_ok(),
        "{pattern}/{lattice} monitor violations: {:?}",
        monitor.violations()
    );
    assert!(
        monitor.mass_drift() <= 1e-10,
        "{pattern}/{lattice} mass drift {}",
        monitor.mass_drift()
    );
    let per_update = (dram() - before) as f64 / (fluid * steps) as f64;
    assert!(
        (per_update - ideal_bpf).abs() < 1e-9,
        "{kernel} hub dram_bytes per update {per_update} != ideal {ideal_bpf}"
    );
    rec.push(obs::BenchRow {
        device: dev.name.to_string(),
        lattice: lattice.to_string(),
        pattern: pattern.to_string(),
        fluid_nodes: fluid,
        steps,
        mflups_modeled: mflups_max_on(&dev, bpf),
        dram_bytes_per_item: bpf,
        l2_hit_rate: sim.traffic().l2_hit_rate(),
        halo_bytes_per_step: 0,
        overlap_efficiency: 0.0,
    });
}

/// Every pattern a BENCH row may name: the paper's three two-lattice
/// patterns, the in-place `st-aa` / `mr-t` and the fluid-compacted
/// `sparse-st` / `sparse-mr`.
const KNOWN_PATTERNS: [&str; 7] = [
    "st",
    "mr-p",
    "mr-r",
    "st-aa",
    "mr-t",
    "sparse-st",
    "sparse-mr",
];

/// The one place a section writes its record: assert every row names a
/// known pattern, then write `BENCH_<section>.json` here; returns the path.
fn write_record(rec: &obs::BenchRecord) -> String {
    for r in rec.rows() {
        assert!(
            KNOWN_PATTERNS.contains(&r.pattern.as_str()),
            "{}: row has unknown pattern '{}'",
            rec.section(),
            r.pattern
        );
    }
    rec.write(".")
        .unwrap_or_else(|e| panic!("write {}: {e}", rec.file_name()))
}

/// Ideal-pattern observability runs: geometries where Table 2's B/F is
/// byte-exact on the substrate (periodic boxes for ST, wall-bounded bench
/// domains for MR).
fn obs_pass(hub: &Arc<obs::Obs>, rec: &mut obs::BenchRecord) {
    use lbm_bench::TAU;
    use lbm_core::collision::Bgk;
    use lbm_core::Geometry;
    use lbm_gpu::{MrScheme, MrSim2D, MrSim3D, StSim};
    use lbm_lattice::{D2Q9, D3Q19};
    let dev = DeviceSpec::v100();
    let st2: StSim<D2Q9, _> = StSim::new(dev.clone(), Geometry::periodic_2d(32, 16), Bgk::new(TAU));
    ideal_run(hub, rec, st2, init_2d, 3, ("st", "D2Q9", "st-bulk"), 144.0);
    let st3: StSim<D3Q19, _> =
        StSim::new(dev.clone(), Geometry::periodic_3d(12, 8, 8), Bgk::new(TAU));
    ideal_run(hub, rec, st3, init_3d, 2, ("st", "D3Q19", "st-bulk"), 304.0);
    let mr2 = MrSim2D::<D2Q9>::new(
        dev.clone(),
        Geometry::walls_y_periodic_x(32, 16),
        MrScheme::projective(),
        TAU,
    );
    ideal_run(hub, rec, mr2, init_2d, 3, ("mr-p", "D2Q9", "mr2d-p"), 96.0);
    let mr3 = MrSim3D::<D3Q19>::new(dev, Geometry::duct(12, 12, 10), MrScheme::projective(), TAU);
    ideal_run(
        hub,
        rec,
        mr3,
        init_3d,
        2,
        ("mr-p", "D3Q19", "mr3d-p"),
        160.0,
    );
}

/// A multi-device ScaleRow as a BENCH row (halo traffic + overlap columns).
fn scale_to_bench(r: &ScaleRow, lattice: &str, fluid: usize, steps: usize) -> obs::BenchRow {
    let bpf = match (lattice, r.repr) {
        ("D2Q9", "ST") => 144.0,
        ("D2Q9", _) => 96.0,
        (_, "ST") => 304.0,
        _ => 160.0,
    };
    obs::BenchRow {
        device: "NVIDIA V100".to_string(),
        lattice: lattice.to_string(),
        pattern: r.repr.to_lowercase(),
        fluid_nodes: fluid as u64,
        steps: steps as u64,
        mflups_modeled: r.mflups,
        dram_bytes_per_item: bpf,
        l2_hit_rate: 0.0,
        halo_bytes_per_step: r.halo_per_step,
        overlap_efficiency: r.efficiency,
    }
}

/// Minimal correctness pass for CI: the multi-device bitwise claim, the
/// exact M/Q halo-byte ratio, Table 2's B/F byte-exact through the metrics
/// registry, and monitor-verified conservation — all on tiny domains.
fn smoke(hub: &Arc<obs::Obs>) {
    let steps = 3;
    let g2 = lbm_core::Geometry::walls_y_periodic_x(16, 8);
    let rows: Vec<ScaleRow> = [1usize, 2]
        .iter()
        .flat_map(|&n| scale_2d(&g2, n, steps))
        .collect();
    check_halo_ratio(&rows, 6, 9, "D2Q9");
    let g3 = lbm_core::Geometry::duct(8, 6, 6);
    let rows3: Vec<ScaleRow> = [1usize, 2]
        .iter()
        .flat_map(|&n| scale_3d(&g3, n, steps))
        .collect();
    check_halo_ratio(&rows3, 10, 19, "D3Q19");
    for r in rows.iter().chain(&rows3) {
        assert_eq!(
            r.diff, 0.0,
            "{} N={} deviates from single device",
            r.repr, r.n
        );
    }

    // Observability: byte-exact B/F through tracer + metrics + monitors.
    let mut rec = obs::BenchRecord::new("smoke");
    obs_pass(hub, &mut rec);

    // One four-shard run with the hub attached so the trace nests
    // step → halo-exchange spans on this thread beside the shards' kernel
    // spans (told apart by their `dev` arg) on the device threads.
    {
        use lbm_core::collision::Projective;
        use lbm_lattice::D2Q9;
        use lbm_multi::MultiStSim;
        let mut multi: MultiStSim<D2Q9, _> = MultiStSim::new(
            DeviceSpec::v100(),
            g2.clone(),
            Projective::new(lbm_bench::TAU),
            4,
        )
        .with_obs(hub.clone())
        .with_monitor(obs::MonitorConfig {
            cadence: 1,
            ..Default::default()
        });
        multi.init_with(init_2d);
        multi.run(steps);
        let mon = multi.monitor().unwrap();
        assert!(mon.is_ok(), "sharded monitor: {:?}", mon.violations());
        assert!(mon.mass_drift() <= 1e-10);
    }
    for r in rows.iter().filter(|r| r.n == 2) {
        rec.push(scale_to_bench(r, "D2Q9", g2.fluid_count(), steps));
    }
    for r in rows3.iter().filter(|r| r.n == 2) {
        rec.push(scale_to_bench(r, "D3Q19", g3.fluid_count(), steps));
    }

    rec.set_extra("mass_drift_tol", obs::json::Value::num(1e-10));
    let path = write_record(&rec);
    println!("smoke OK: multi-device runs bitwise-match single device; halo ratios exact");
    println!("smoke OK: Table 2 B/F byte-exact through the metrics registry (144/304/96/160);");
    println!("          monitors clean (drift <= 1e-10); wrote {path}");
}

/// In-place (single-lattice) smoke: the AA-pattern ST and parity-twist MR
/// drivers must match their two-lattice counterparts bitwise after any even
/// number of steps, and their resident footprints must be exact halvings —
/// `Q·8` vs `2Q·8` and `M·8` vs `2M·8` bytes per node — asserted byte-exact
/// *through the metrics registry* (published as `resident_bytes` gauges and
/// read back), so the same plumbing the fleet bills quotas on is what CI
/// checks.
fn in_place_pass(hub: &Arc<obs::Obs>, rec: &mut obs::BenchRecord) {
    use gpu_sim::roofline::{
        footprint_aa_st, footprint_mr_double, footprint_mr_twist, footprint_st,
    };
    use lbm_bench::TAU;
    use lbm_core::collision::Bgk;
    use lbm_gpu::{AaStSim, MrScheme, MrSim2D, MrSim3D, StSim};
    use lbm_lattice::{Lattice, D2Q9, D3Q19};

    let steps = 4; // even: the AA cycle is back in natural slot order
    let dev = DeviceSpec::v100();
    let g2 = lbm_core::Geometry::walls_y_periodic_x(16, 8);
    let g3 = lbm_core::Geometry::duct(8, 6, 6);
    let (n2, n3) = (g2.len(), g3.len());

    // 2D: AA-ST vs ST and twist-MR vs shift-MR, bitwise at even steps.
    let mut st2: StSim<D2Q9, _> = StSim::new(dev.clone(), g2.clone(), Bgk::new(TAU));
    let mut aa2: AaStSim<D2Q9, _> = AaStSim::new(dev.clone(), g2.clone(), Bgk::new(TAU));
    let mut mr2: MrSim2D<D2Q9> = MrSim2D::new(dev.clone(), g2.clone(), MrScheme::projective(), TAU);
    let mut tw2: MrSim2D<D2Q9> =
        MrSim2D::new(dev.clone(), g2.clone(), MrScheme::projective(), TAU).with_twist();
    st2.init_with(init_2d);
    st2.run(steps);
    aa2.init_with(init_2d);
    aa2.run(steps);
    mr2.init_with(init_2d);
    mr2.run(steps);
    tw2.init_with(init_2d);
    tw2.run(steps);
    assert_eq!(
        aa2.field_checksum(),
        st2.field_checksum(),
        "AA-ST diverged from two-lattice ST at even step {steps} (D2Q9)"
    );
    assert_eq!(
        tw2.field_checksum(),
        mr2.field_checksum(),
        "twist-MR diverged from shift-MR at step {steps} (D2Q9)"
    );

    // 3D: same contract on the walled duct.
    let mut st3: StSim<D3Q19, _> = StSim::new(dev.clone(), g3.clone(), Bgk::new(TAU));
    let mut aa3: AaStSim<D3Q19, _> = AaStSim::new(dev.clone(), g3.clone(), Bgk::new(TAU));
    let mut mr3: MrSim3D<D3Q19> =
        MrSim3D::new(dev.clone(), g3.clone(), MrScheme::projective(), TAU);
    let mut tw3: MrSim3D<D3Q19> =
        MrSim3D::new(dev.clone(), g3.clone(), MrScheme::projective(), TAU).with_twist();
    st3.init_with(init_3d);
    st3.run(steps);
    aa3.init_with(init_3d);
    aa3.run(steps);
    mr3.init_with(init_3d);
    mr3.run(steps);
    tw3.init_with(init_3d);
    tw3.run(steps);
    assert_eq!(
        aa3.field_checksum(),
        st3.field_checksum(),
        "AA-ST diverged from two-lattice ST at even step {steps} (D3Q19)"
    );
    assert_eq!(
        tw3.field_checksum(),
        mr3.field_checksum(),
        "twist-MR diverged from shift-MR at step {steps} (D3Q19)"
    );

    // Residency: publish each driver's actual allocation as a gauge, read
    // it back through the registry, and assert the byte-exact contract.
    // (pattern, lattice, actual bytes, in-place ideal, two-lattice model)
    let cases: [(&str, &str, usize, usize, usize); 4] = [
        (
            "st-aa",
            "D2Q9",
            aa2.footprint_bytes(),
            footprint_aa_st(n2, D2Q9::Q),
            footprint_st(n2, D2Q9::Q),
        ),
        (
            "mr-t",
            "D2Q9",
            tw2.footprint_bytes(),
            footprint_mr_twist(n2, D2Q9::M),
            footprint_mr_double(n2, D2Q9::M),
        ),
        (
            "st-aa",
            "D3Q19",
            aa3.footprint_bytes(),
            footprint_aa_st(n3, D3Q19::Q),
            footprint_st(n3, D3Q19::Q),
        ),
        (
            "mr-t",
            "D3Q19",
            tw3.footprint_bytes(),
            footprint_mr_twist(n3, D3Q19::M),
            footprint_mr_double(n3, D3Q19::M),
        ),
    ];
    let mut resident = Vec::new();
    for (pattern, lattice, actual, ideal, two_lattice) in cases {
        let labels = [("pattern", pattern), ("lattice", lattice)];
        hub.metrics
            .gauge_set("resident_bytes", &labels, actual as f64);
        let seen = hub
            .metrics
            .gauge("resident_bytes", &labels)
            .expect("resident_bytes gauge readable") as usize;
        assert_eq!(seen, actual, "{pattern}/{lattice}: gauge round-trip lossy");
        assert_eq!(
            seen, ideal,
            "{pattern}/{lattice}: resident bytes differ from the single-lattice ideal"
        );
        assert_eq!(
            2 * seen,
            two_lattice,
            "{pattern}/{lattice}: residency is not an exact halving of the two-lattice model"
        );
        resident.push(obs::json::Value::obj(vec![
            ("pattern", obs::json::Value::str(pattern)),
            ("lattice", obs::json::Value::str(lattice)),
            ("resident_bytes", obs::json::Value::int(seen as u64)),
            (
                "two_lattice_bytes",
                obs::json::Value::int(two_lattice as u64),
            ),
        ]));
    }
    rec.set_extra("in_place_resident", obs::json::Value::Arr(resident));

    // Bench rows for the new pattern names (measured B/F is Table 2's
    // two-lattice shape: in-place storage halves residency, not traffic).
    for (pattern, lattice, bpf, fluid) in [
        ("st-aa", "D2Q9", aa2.measured_bpf(), g2.fluid_count()),
        ("mr-t", "D2Q9", tw2.measured_bpf(), g2.fluid_count()),
        ("st-aa", "D3Q19", aa3.measured_bpf(), g3.fluid_count()),
        ("mr-t", "D3Q19", tw3.measured_bpf(), g3.fluid_count()),
    ] {
        rec.push(obs::BenchRow {
            device: dev.name.to_string(),
            lattice: lattice.to_string(),
            pattern: pattern.to_string(),
            fluid_nodes: fluid as u64,
            steps: steps as u64,
            mflups_modeled: mflups_max_on(&dev, bpf),
            dram_bytes_per_item: bpf,
            ..Default::default()
        });
    }
    println!(
        "in-place OK: AA-ST/twist-MR bitwise-match their two-lattice drivers at step {steps};"
    );
    println!(
        "             resident bytes Q*8 / M*8 per node, exact halvings, via metrics registry"
    );
}

/// The `aa` CI section: in-place propagation smoke as its own record.
fn aa_section(hub: &Arc<obs::Obs>) {
    println!("== aa: in-place single-lattice propagation smoke ====================");
    let mut rec = obs::BenchRecord::new("aa");
    in_place_pass(hub, &mut rec);
    let path = write_record(&rec);
    println!("wrote {path}");
    println!();
}

/// The `sparse` CI section: the fluid-compacted driver family's gate.
///
/// A porosity sweep (25 / 50 / 75 % rock on the same box) asserts the
/// resident footprint equals the roofline sparse model on the *fluid*
/// count exactly — published as `resident_bytes` / `bytes_per_flup`
/// gauges and read back through the metrics registry, the same plumbing
/// the fleet bills byte quotas on. The measured per-update traffic must
/// match the indirect-addressing B/F (`2Q·8 + Q·4` = 180 ST, `2M·8 + Q·4`
/// = 132 MR for D2Q9; 380 / 236 for D3Q19), the sparse drivers must stay
/// FNV-bitwise equal to the dense drivers on the shared fluid nodes, and
/// the sharded sparse halo tally must be byte-exact against the analytic
/// per-step cost.
fn sparse_section(hub: &Arc<obs::Obs>) {
    use gpu_sim::roofline::{
        bytes_per_flup_sparse_mr, bytes_per_flup_sparse_st, footprint_sparse_mr,
        footprint_sparse_st,
    };
    use lbm_bench::TAU;
    use lbm_core::collision::Bgk;
    use lbm_gpu::{MrScheme, MrSim2D, SparseMrSim2D, SparseMrSim3D, StSim, StSparseSim};
    use lbm_lattice::{Lattice, D2Q9, D3Q19};
    use lbm_multi::MultiSparseMrSim;
    use lbm_serve::Scenario;

    println!("== sparse: fluid-compacted ST + MR drivers ==========================");
    let mut rec = obs::BenchRecord::new("sparse");
    let dev = DeviceSpec::v100();
    let steps = 4usize;

    // Porosity sweep: same bounding box, three rock fractions.
    let mut sweep = Vec::new();
    let mut prev = (usize::MAX, usize::MAX);
    for solid_pct in [25u8, 50, 75] {
        let geom = Scenario::Porous2D {
            nx: 24,
            ny: 12,
            solid_pct,
        }
        .geometry();
        let nf = geom.fluid_count();
        let mut st: StSparseSim<D2Q9, _> =
            StSparseSim::new(dev.clone(), geom.clone(), Bgk::new(TAU));
        let mut mr: SparseMrSim2D =
            SparseMrSim2D::new(dev.clone(), geom, MrScheme::projective(), TAU);
        st.init_with(init_2d);
        mr.init_with(init_2d);
        st.run(steps);
        mr.run(steps);
        assert_eq!(
            st.footprint_bytes(),
            footprint_sparse_st(nf, D2Q9::Q),
            "sparse ST footprint off the fluid-count model at {solid_pct}% rock"
        );
        assert_eq!(
            mr.footprint_bytes(),
            footprint_sparse_mr(nf, D2Q9::M, D2Q9::Q),
            "sparse MR footprint off the fluid-count model at {solid_pct}% rock"
        );
        // Rock is free: more rock, fewer fluid nodes, fewer bytes; and MR
        // stays below ST at every porosity.
        let (st_bytes, mr_bytes) = (st.footprint_bytes(), mr.footprint_bytes());
        assert!(
            mr_bytes < st_bytes,
            "sparse MR ({mr_bytes} B) not below sparse ST ({st_bytes} B) at {solid_pct}% rock"
        );
        assert!(
            nf < prev.0 && st_bytes < prev.1,
            "residency not shrinking with the fluid count at {solid_pct}% rock"
        );
        prev = (nf, st_bytes);
        let pct = solid_pct.to_string();
        for (pattern, bytes, bpf, model) in [
            (
                "sparse-st",
                st.footprint_bytes(),
                st.measured_bpf(),
                bytes_per_flup_sparse_st(D2Q9::Q),
            ),
            (
                "sparse-mr",
                mr.footprint_bytes(),
                mr.measured_bpf(),
                bytes_per_flup_sparse_mr(D2Q9::M, D2Q9::Q),
            ),
        ] {
            let labels = [
                ("pattern", pattern),
                ("lattice", "D2Q9"),
                ("solid_pct", pct.as_str()),
            ];
            hub.metrics
                .gauge_set("resident_bytes", &labels, bytes as f64);
            let seen = hub
                .metrics
                .gauge("resident_bytes", &labels)
                .expect("resident_bytes gauge readable") as usize;
            assert_eq!(
                seen, bytes,
                "{pattern} @ {solid_pct}%: gauge round-trip lossy"
            );
            hub.metrics.gauge_set("bytes_per_flup", &labels, bpf);
            let seen_bpf = hub
                .metrics
                .gauge("bytes_per_flup", &labels)
                .expect("bytes_per_flup gauge readable");
            assert!(
                (seen_bpf - model).abs() < 1.0,
                "{pattern} @ {solid_pct}%: measured B/F {seen_bpf:.2} off the model {model}"
            );
            rec.push(obs::BenchRow {
                device: dev.name.to_string(),
                lattice: "D2Q9".to_string(),
                pattern: pattern.to_string(),
                fluid_nodes: nf as u64,
                steps: steps as u64,
                mflups_modeled: mflups_max_on(&dev, bpf),
                dram_bytes_per_item: bpf,
                ..Default::default()
            });
        }
        sweep.push(obs::json::Value::obj(vec![
            ("solid_pct", obs::json::Value::int(solid_pct as u64)),
            ("box_nodes", obs::json::Value::int((24 * 12) as u64)),
            ("fluid_nodes", obs::json::Value::int(nf as u64)),
            (
                "sparse_st_bytes",
                obs::json::Value::int(st.footprint_bytes() as u64),
            ),
            (
                "sparse_mr_bytes",
                obs::json::Value::int(mr.footprint_bytes() as u64),
            ),
        ]));
    }
    rec.set_extra("porosity_sweep", obs::json::Value::Arr(sweep));

    // Dense equivalence on the half-rock slab: the dense drivers treat the
    // rock as interior walls, and the sparse link table must reproduce
    // their streaming bitwise. The sharded sparse MR build matches too,
    // with a halo tally byte-exact against the analytic per-step cost.
    let geom = Scenario::Porous2D {
        nx: 24,
        ny: 12,
        solid_pct: 50,
    }
    .geometry();
    let mut sst: StSparseSim<D2Q9, _> = StSparseSim::new(dev.clone(), geom.clone(), Bgk::new(TAU));
    let mut dst: StSim<D2Q9, _> = StSim::new(dev.clone(), geom.clone(), Bgk::new(TAU));
    let mut smr: SparseMrSim2D =
        SparseMrSim2D::new(dev.clone(), geom.clone(), MrScheme::projective(), TAU);
    let mut dmr: MrSim2D<D2Q9> =
        MrSim2D::new(dev.clone(), geom.clone(), MrScheme::projective(), TAU);
    sst.init_with(init_2d);
    sst.run(steps);
    dst.init_with(init_2d);
    dst.run(steps);
    smr.init_with(init_2d);
    smr.run(steps);
    dmr.init_with(init_2d);
    dmr.run(steps);
    assert_eq!(
        sst.field_checksum(),
        dst.field_checksum(),
        "sparse ST diverged from dense ST on the porous slab"
    );
    assert_eq!(
        smr.field_checksum(),
        dmr.field_checksum(),
        "sparse MR diverged from dense MR on the porous slab"
    );
    let mut multi: MultiSparseMrSim<D2Q9> =
        MultiSparseMrSim::new(dev.clone(), geom, MrScheme::projective(), TAU, 2);
    multi.init_with(init_2d);
    multi.run(steps);
    assert_eq!(
        multi.interconnect().total_link_bytes(),
        steps as u64 * multi.halo_bytes_per_step(),
        "sharded sparse halo tally not byte-exact"
    );
    assert_eq!(
        multi.field_checksum(),
        smr.field_checksum(),
        "sharded sparse MR diverged from the single-device build"
    );

    // The D3Q19 sparse B/F on the walled duct: 2Q·8 + Q·4 = 380 (ST) and
    // 2M·8 + Q·4 = 236 (MR).
    let g3 = lbm_core::Geometry::duct(8, 6, 6);
    let nf3 = g3.fluid_count();
    let mut st3: StSparseSim<D3Q19, _> = StSparseSim::new(dev.clone(), g3.clone(), Bgk::new(TAU));
    let mut mr3: SparseMrSim3D = SparseMrSim3D::new(dev.clone(), g3, MrScheme::projective(), TAU);
    st3.init_with(init_3d);
    mr3.init_with(init_3d);
    st3.run(steps);
    mr3.run(steps);
    for (pattern, bpf, model) in [
        (
            "sparse-st",
            st3.measured_bpf(),
            bytes_per_flup_sparse_st(D3Q19::Q),
        ),
        (
            "sparse-mr",
            mr3.measured_bpf(),
            bytes_per_flup_sparse_mr(D3Q19::M, D3Q19::Q),
        ),
    ] {
        assert!(
            (bpf - model).abs() < 1.0,
            "{pattern} D3Q19: measured B/F {bpf:.2} off the model {model}"
        );
        rec.push(obs::BenchRow {
            device: dev.name.to_string(),
            lattice: "D3Q19".to_string(),
            pattern: pattern.to_string(),
            fluid_nodes: nf3 as u64,
            steps: steps as u64,
            mflups_modeled: mflups_max_on(&dev, bpf),
            dram_bytes_per_item: bpf,
            ..Default::default()
        });
    }

    let path = write_record(&rec);
    println!("sparse OK: footprints == fluid-count model at 25/50/75% rock (registry-checked);");
    println!("           B/F 180/132 (D2Q9) and 380/236 (D3Q19); bitwise vs dense; halo exact");
    println!("wrote {path}");
    println!();
}

/// Resilience demonstration: checkpoint/rollback recovery under injected
/// faults, verified bitwise (FNV field checksums against fault-free runs)
/// and emitted as `BENCH_resilience.json`. `--inject=nan|abort|link|all`
/// picks the fault set; `--checkpoint-every=N` sets the cadence.
fn resilience(hub: &Arc<obs::Obs>, inject: &str, every: u64) {
    use lbm_core::collision::Projective;
    use lbm_gpu::StSim;
    use lbm_lattice::D2Q9;
    use lbm_multi::recovery::{run_with_recovery, RecoveryConfig};
    use lbm_multi::MultiMrSim2D;
    use obs::json::Value;

    println!("== resilience: checkpoint/rollback recovery under injected faults ===");
    let geom = lbm_core::Geometry::walls_y_periodic_x(32, 16);
    let target = 24u64;
    let mut rec = obs::BenchRecord::new("resilience");
    rec.set_extra("checkpoint_every", Value::int(every));
    rec.set_extra("target_steps", Value::int(target));

    let mk_st = |geom: &lbm_core::Geometry| {
        let mut s: StSim<D2Q9, _> = StSim::new(
            DeviceSpec::v100(),
            geom.clone(),
            Projective::new(lbm_bench::TAU),
        )
        .with_cpu_threads(2);
        s.init_with(init_2d);
        s
    };

    // Single-device scenarios: a NaN memory fault and a launch abort, both
    // detected by the recovery loop's fault watch and rolled back to the
    // last checkpoint.
    for (name, plan) in [("nan", 0u8), ("abort", 1u8)] {
        if inject != "all" && inject != name {
            continue;
        }
        let mut clean = mk_st(&geom);
        clean.run(target as usize);
        let want = clean.field_checksum();

        let mut fp = gpu_sim::FaultPlan::new();
        match plan {
            // Node (5, 8) direction 0: one counted write per step, so the
            // NaN lands on step 6 — past the first checkpoint.
            0 => fp.inject_nan(8 * geom.nx + 5, 5),
            // One bulk launch per step on the wall-bounded domain: the 8th
            // is skipped, leaving stale-but-finite fields.
            _ => fp.abort_launch(7),
        };
        let fp = std::sync::Arc::new(fp);
        let mut faulted = mk_st(&geom).with_fault_plan(fp.clone());
        let cfg = RecoveryConfig {
            checkpoint_every: every,
            max_rollbacks: 8,
            fault_watch: Some(fp.clone()),
            obs: Some(hub.clone()),
            ctx: None,
        };
        let stats = run_with_recovery(&mut faulted, target, &cfg).expect("recovery failed");
        let got = faulted.field_checksum();
        assert_eq!(got, want, "{name}: recovered run diverged from fault-free");
        println!(
            "  {name:<6} ST 32x16: {} fault(s) fired, {} rollback(s), {} step(s) replayed, \
             checksum {got:016x} == fault-free",
            fp.total_fired(),
            stats.rollbacks,
            stats.steps_replayed,
        );
        let mut summary = stats.summary();
        if let Value::Obj(map) = &mut summary {
            map.insert("checksum_match".to_string(), Value::int(1));
            map.insert("faults_fired".to_string(), Value::int(fp.total_fired()));
        }
        rec.set_extra(name, summary);
    }

    // Multi-device scenario: a transient link failure in a 4-device ring,
    // absorbed by the driver's bounded-backoff halo retry with
    // byte-identical link tallies.
    if inject == "all" || inject == "link" {
        let mk_multi = |geom: &lbm_core::Geometry| {
            let mut s: MultiMrSim2D<D2Q9> = MultiMrSim2D::new(
                DeviceSpec::v100(),
                geom.clone(),
                lbm_gpu::scheme::MrScheme::projective(),
                lbm_bench::TAU,
                4,
            )
            .with_cpu_threads(2);
            s.init_with(init_2d);
            s
        };
        let mut clean = mk_multi(&geom);
        clean.run(target as usize);

        let mut fp = gpu_sim::FaultPlan::new();
        fp.fail_link(0, 1, 2);
        let fp = std::sync::Arc::new(fp);
        let mut faulted = mk_multi(&geom)
            .with_obs(hub.clone())
            .with_fault_plan(fp.clone());
        faulted.run(target as usize);
        assert_eq!(
            faulted.field_checksum(),
            clean.field_checksum(),
            "link: retried run diverged from fault-free"
        );
        assert_eq!(
            faulted.interconnect().total_link_bytes(),
            clean.interconnect().total_link_bytes(),
            "link: retries perturbed the byte tallies"
        );
        println!(
            "  link   MR 32x16 x4 ring: {} transient failure(s), {} retry(ies), \
             link tallies byte-identical ({} B), checksum {:016x} == fault-free",
            fp.link_faults_fired(),
            faulted.halo_retries(),
            faulted.interconnect().total_link_bytes(),
            faulted.field_checksum(),
        );
        rec.set_extra(
            "link",
            Value::obj(vec![
                ("faults_fired", Value::int(fp.link_faults_fired())),
                ("halo_retries", Value::int(faulted.halo_retries())),
                ("checksum_match", Value::int(1)),
                ("tallies_match", Value::int(1)),
                (
                    "link_bytes",
                    Value::int(faulted.interconnect().total_link_bytes()),
                ),
            ]),
        );
    }

    let path = write_record(&rec);
    println!(
        "  recovery counters: rollbacks={:?} checkpoints={:?} halo_retries(0->1)={:?}",
        hub.metrics.counter("recovery_rollbacks_total", &[]),
        hub.metrics.counter("recovery_checkpoints_total", &[]),
        hub.metrics.counter("halo_retries", &[("link", "0->1")]),
    );
    println!("resilience OK: every recovered run is bitwise-identical; wrote {path}");
    println!();
}

/// Fleet load test: enqueue `jobs` mixed-size simulations from the seeded
/// deterministic arrival process into the multi-tenant scheduler, then
/// verify zero lost/duplicated jobs and bitwise agreement with solo runs
/// while reporting sustained aggregate MFLUPS, queue depth over time, and
/// p50/p99 job latency per priority class (`BENCH_serve.json`).
fn serve_load(hub: &Arc<obs::Obs>, jobs: usize, seed: u64) {
    use lbm_serve::{solo_checksum, ArrivalProcess, JobState, Priority, Serve, ServeConfig};
    use obs::json::Value;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    println!("=== serve: multi-tenant fleet load test ({jobs} jobs, seed {seed}) ===");
    let executors = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).clamp(2, 6))
        .unwrap_or(2);
    let fleet = Serve::start(ServeConfig {
        executors,
        obs: Some(hub.clone()),
        ..Default::default()
    });

    let specs: Vec<lbm_serve::JobSpec> = ArrivalProcess::new(seed, jobs).collect();
    let t0 = Instant::now();
    let stop_sampler = AtomicBool::new(false);
    let mut depth_samples: Vec<(f64, usize)> = Vec::new();
    let mut peak_depth = 0usize;
    let mut ids = Vec::with_capacity(jobs);

    std::thread::scope(|s| {
        // Queue-depth sampler: poll while the fleet works.
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !stop_sampler.load(Ordering::Relaxed) {
                samples.push((t0.elapsed().as_secs_f64() * 1e3, fleet.queue_depth()));
                std::thread::sleep(Duration::from_millis(2));
            }
            samples
        });
        for spec in &specs {
            ids.push(fleet.submit(spec.clone()).expect("admitted"));
        }
        peak_depth = fleet.queue_depth();
        fleet.drain();
        stop_sampler.store(true, Ordering::Relaxed);
        depth_samples = sampler.join().expect("sampler thread");
    });
    let wall = t0.elapsed().as_secs_f64();
    peak_depth = peak_depth.max(depth_samples.iter().map(|&(_, d)| d).max().unwrap_or(0));

    // Gate 1: zero lost or duplicated jobs.
    let mut seen = std::collections::HashSet::new();
    assert!(ids.iter().all(|id| seen.insert(*id)), "duplicate job IDs");
    assert_eq!(ids.len(), jobs, "lost submissions");

    // Gate 2: every job completed, every checksum bitwise-equal to a solo
    // run of its spec (memoized per unique physics).
    let mut oracle: HashMap<_, u64> = HashMap::new();
    let mut fluid_cache: HashMap<_, usize> = HashMap::new();
    let mut flups = 0f64;
    let mut lat_ms: HashMap<Priority, Vec<f64>> = HashMap::new();
    let mut evictions = 0u64;
    for (spec, id) in specs.iter().zip(&ids) {
        let status = fleet.status(*id).expect("known job");
        assert_eq!(status.state, JobState::Completed, "job {id} not completed");
        let result = fleet.result(*id).expect("completed job has a result");
        let want = *oracle
            .entry(spec.physics_key())
            .or_insert_with(|| solo_checksum(spec));
        assert_eq!(result.checksum, want, "checksum diverged for {spec:?}");
        let fluid = *fluid_cache
            .entry(spec.scenario)
            .or_insert_with(|| spec.scenario.geometry().fluid_count());
        flups += result.steps as f64 * fluid as f64;
        lat_ms
            .entry(spec.priority)
            .or_default()
            .push(result.latency_ms);
        evictions += result.evictions;
    }
    let mflups = flups / wall / 1e6;

    let pct = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    };
    let mut rec = obs::BenchRecord::new("serve");
    rec.set_extra("jobs", Value::int(jobs as u64));
    rec.set_extra("seed", Value::int(seed));
    rec.set_extra("executors", Value::int(executors as u64));
    rec.set_extra("wall_seconds", Value::num(wall));
    rec.set_extra("aggregate_mflups", Value::num(mflups));
    rec.set_extra("peak_queue_depth", Value::int(peak_depth as u64));
    rec.set_extra("evictions", Value::int(evictions));
    rec.set_extra("checksums_verified", Value::int(jobs as u64));
    rec.set_extra("unique_physics", Value::int(oracle.len() as u64));
    println!(
        "  {jobs} jobs on {executors} executors in {wall:.2}s: {mflups:.2} aggregate MFLUPS, \
         peak queue depth {peak_depth}, {evictions} eviction(s)"
    );
    for (class, lats) in lat_ms.iter_mut() {
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p99) = (pct(lats, 0.50), pct(lats, 0.99));
        println!(
            "  {:<12} {} jobs: p50 {:.1} ms, p99 {:.1} ms",
            class.label(),
            lats.len(),
            p50,
            p99
        );
        rec.set_extra(
            &format!("latency_{}", class.label()),
            Value::obj(vec![
                ("jobs", Value::int(lats.len() as u64)),
                ("p50_ms", Value::num(p50)),
                ("p99_ms", Value::num(p99)),
            ]),
        );
    }
    // Queue depth over time, downsampled to <= 200 points.
    let stride = (depth_samples.len() / 200).max(1);
    rec.set_extra(
        "queue_depth_over_time",
        Value::Arr(
            depth_samples
                .iter()
                .step_by(stride)
                .map(|&(t, d)| {
                    Value::obj(vec![
                        ("t_ms", Value::num(t)),
                        ("depth", Value::int(d as u64)),
                    ])
                })
                .collect(),
        ),
    );
    let path = write_record(&rec);
    println!("serve OK: zero lost/duplicated jobs, all checksums match solo runs; wrote {path}");
    println!();
}

/// SLO comparison run: the same seeded workload through (a) a statically
/// mis-configured fleet (wide groups, long slices, no observability) and
/// (b) the same configuration with the full observability plane and the
/// AIMD feedback controller enabled. Gates: adaptive interactive p99 beats
/// static, every checksum still matches the solo oracle, every job leaves
/// a `serve` span naming its job and tenant, the event log replays cleanly and
/// agrees with the scheduler's reported results, and roofline-attribution
/// gauges exist for both device models (`BENCH_slo.json`).
fn slo_load(jobs: usize, seed: u64, events_path: Option<&str>) {
    use lbm_serve::{
        solo_checksum, ArrivalProcess, JobId, JobState, Priority, Serve, ServeConfig, SloPolicy,
    };
    use obs::json::Value;
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

    println!(
        "=== slo: adaptive feedback controller vs static config ({jobs} jobs, seed {seed}) ==="
    );
    let specs: Vec<lbm_serve::JobSpec> = ArrivalProcess::new(seed, jobs).collect();

    // Deliberately latency-hostile starting point: wide lockstep groups and
    // long slices keep batch work in front of interactive arrivals.
    let executors = 2;
    let hostile = |obs: Option<Arc<obs::Obs>>, slo: Option<SloPolicy>| ServeConfig {
        executors,
        batch_max: 6,
        slice_steps: 64,
        // Strict priority: keep the aging threshold out of reach so
        // interactive latency is governed by preemption granularity — the
        // dimension the controller tunes — not by aged-batch immunity.
        interactive_base: 1_000_000,
        obs,
        slo,
        ..Default::default()
    };
    // Paced submission so interactive jobs arrive while batch groups are
    // already holding the executors (the scenario the controller fixes).
    let run = |fleet: &Serve, wave: &[lbm_serve::JobSpec]| -> (Vec<JobId>, f64) {
        let t0 = Instant::now();
        let ids = wave
            .iter()
            .map(|spec| {
                let id = fleet.submit(spec.clone()).expect("admitted");
                std::thread::sleep(Duration::from_micros(300));
                id
            })
            .collect();
        fleet.drain();
        (ids, t0.elapsed().as_secs_f64())
    };
    let class_lat = |fleet: &Serve,
                     wave: &[lbm_serve::JobSpec],
                     ids: &[JobId]|
     -> HashMap<Priority, Vec<f64>> {
        let mut m: HashMap<Priority, Vec<f64>> = HashMap::new();
        for (spec, id) in wave.iter().zip(ids) {
            let r = fleet.result(*id).expect("completed job has a result");
            m.entry(spec.priority).or_default().push(r.latency_ms);
        }
        m
    };
    let pct = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
    };

    // Floors keep the controller from collapsing to degenerate knobs:
    // resilient jobs checkpoint every slice, so the slice floor bounds the
    // checkpoint overhead the controller is allowed to trade for latency.
    // Zero cooldown lets the first burst of breaches converge the knobs
    // within a handful of completions instead of dragging the static
    // configuration's latencies through the first quarter of the run.
    let policy = SloPolicy {
        interactive_p99_target_ms: 5.0,
        min_slice_steps: 16,
        min_batch_max: 2,
        cooldown: 0,
        ..Default::default()
    };

    // The workload is split into interleaved waves — (static, adaptive)
    // back to back — through two long-lived fleets: one with frozen knobs,
    // one with the controller. The static fleet gets its own (discarded)
    // hub so span/event overhead is identical across arms — the only delta
    // is the feedback loop. Pooling latencies over waves keeps one
    // OS-noise spike in either arm's tail from deciding the comparison,
    // and the controller's warmup transient is paid once per service
    // lifetime, not once per wave — exactly how a fleet runs in
    // production.
    const ROUNDS: usize = 3;
    let wave_len = jobs.div_ceil(ROUNDS);
    let mut pooled_static: Vec<f64> = Vec::new();
    let mut pooled_adaptive: Vec<f64> = Vec::new();
    let (mut static_walls, mut adaptive_walls) = (Vec::new(), Vec::new());
    let static_fleet = Serve::start(hostile(Some(obs::Obs::shared()), None));
    let hub = obs::Obs::shared();
    let fleet = Serve::start(hostile(Some(hub.clone()), Some(policy.clone())));
    let mut ids: Vec<JobId> = Vec::new();
    for wave in specs.chunks(wave_len) {
        let (static_ids, static_wall) = run(&static_fleet, wave);
        let mut lat = class_lat(&static_fleet, wave, &static_ids);
        pooled_static.extend(lat.remove(&Priority::Interactive).unwrap_or_default());
        static_walls.push(static_wall);

        let (wave_ids, wall) = run(&fleet, wave);
        let mut lat = class_lat(&fleet, wave, &wave_ids);
        pooled_adaptive.extend(lat.remove(&Priority::Interactive).unwrap_or_default());
        adaptive_walls.push(wall);
        ids.extend(wave_ids);
    }
    drop(static_fleet);
    pooled_static.sort_by(|a, b| a.partial_cmp(b).unwrap());
    pooled_adaptive.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let static_p99 = pct(&pooled_static, 0.99);
    let static_p50 = pct(&pooled_static, 0.50);
    let p99 = pct(&pooled_adaptive, 0.99);
    let p50 = pct(&pooled_adaptive, 0.50);
    let (tuned_slice, tuned_batch) = fleet.tuned();
    println!(
        "  static   ({executors} executors, slice 64, batch 6): interactive p50 {static_p50:.1} ms, \
         p99 {static_p99:.1} ms over {ROUNDS} rounds"
    );
    println!(
        "  adaptive (target p99 {} ms): interactive p50 {p50:.1} ms, p99 {p99:.1} ms over \
         {ROUNDS} rounds; knobs tuned to slice {tuned_slice}, batch {tuned_batch}",
        policy.interactive_p99_target_ms
    );

    // Gate 1: the controller must actually help — same seed, same pacing,
    // same executors, so the only difference is the feedback loop.
    assert!(
        p99 < static_p99,
        "adaptive interactive p99 {p99:.2} ms not better than static {static_p99:.2} ms"
    );
    assert!(
        (tuned_slice, tuned_batch) != (64, 6),
        "controller never moved the knobs off the static configuration"
    );

    // Gate 2: observability is free of side effects — every checksum still
    // bitwise-equal to a solo run (memoized per unique physics).
    let mut oracle: HashMap<_, u64> = HashMap::new();
    let mut evictions_by_job: HashMap<u64, u64> = HashMap::new();
    for (spec, id) in specs.iter().zip(&ids) {
        assert_eq!(
            fleet.status(*id).expect("known job").state,
            JobState::Completed,
            "job {id} not completed"
        );
        let result = fleet.result(*id).expect("completed job has a result");
        let want = *oracle
            .entry(spec.physics_key())
            .or_insert_with(|| solo_checksum(spec));
        assert_eq!(result.checksum, want, "checksum diverged for {spec:?}");
        evictions_by_job.insert(id.0, result.evictions);
    }

    // Gate 3: job identity — every job leaves a span carrying its job id
    // and tenant: the scheduler's `serve` slice spans state them once, and
    // the driver/kernel spans a slice runs nest under that span.
    let mut span_tenant: HashMap<String, String> = HashMap::new();
    for e in hub.tracer.events() {
        if e.ph != 'B' {
            continue;
        }
        let find = |k: &str| {
            e.args
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        if let (Some(j), Some(t)) = (find("job"), find("tenant")) {
            span_tenant.insert(j, t);
        }
    }
    for (spec, id) in specs.iter().zip(&ids) {
        assert_eq!(
            span_tenant.get(&format!("job-{}", id.0)),
            Some(&spec.tenant),
            "job {id} left no span carrying its trace context"
        );
    }

    // Gate 4: the event log is a faithful record — zero drops, replays
    // through the lifecycle state machine, and agrees with the scheduler's
    // own reported results job by job.
    assert_eq!(hub.events.dropped(), 0, "event ring overflowed");
    let events = hub.events.snapshot();
    let replayed = obs::events::replay(&events).expect("event log replays");
    assert_eq!(replayed.len(), ids.len(), "replay lost jobs");
    for (spec, id) in specs.iter().zip(&ids) {
        let r = &replayed[&id.0];
        assert_eq!(r.tenant, spec.tenant, "job {id} tenant mismatch in log");
        assert_eq!(
            r.terminal,
            Some(obs::EventKind::Complete),
            "job {id} terminal mismatch"
        );
        assert_eq!(
            r.evictions, evictions_by_job[&id.0],
            "job {id} eviction count disagrees with the scheduler"
        );
        assert_eq!(r.resumes, r.evictions, "job {id} evict/resume imbalance");
        assert!(r.slices >= 1, "job {id} completed without a slice event");
    }

    // Gate 5: roofline attribution for both device models. Fleet jobs run
    // on the V100 spec; a small solo run on the MI100 spec shares the hub.
    {
        use lbm_core::collision::Bgk;
        use lbm_gpu::StSim;
        use lbm_lattice::D2Q9;
        let g = lbm_core::Geometry::walls_y_periodic_x(32, 16);
        let mut sim: StSim<D2Q9, _> = StSim::new(DeviceSpec::mi100(), g, Bgk::new(0.8))
            .with_cpu_threads(1)
            .with_obs(hub.clone());
        sim.init_with(lbm_serve::JobSpec::init);
        for _ in 0..8 {
            sim.step();
        }
    }
    let mut roofline_rows: Vec<Value> = Vec::new();
    let mut devices_seen = std::collections::BTreeSet::new();
    for (key, metric) in hub.metrics.snapshot() {
        if key.name != "roofline_attained_pct" {
            continue;
        }
        let label = |k: &str| {
            key.labels
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        let (kernel, device) = (label("kernel"), label("device"));
        let pct_v = match metric {
            obs::Metric::Gauge(g) => g,
            other => panic!("roofline_attained_pct is not a gauge: {other:?}"),
        };
        let gbps = hub
            .metrics
            .gauge("achieved_gbps", &[("kernel", &kernel), ("device", &device)])
            .expect("achieved_gbps gauge paired with roofline gauge");
        assert!(
            pct_v > 0.0 && pct_v <= 100.0 && gbps > 0.0,
            "roofline attribution out of range for {kernel} on {device}: \
             {gbps} GB/s, {pct_v}% of roofline"
        );
        devices_seen.insert(device.clone());
        roofline_rows.push(Value::obj(vec![
            ("kernel", Value::str(&kernel)),
            ("device", Value::str(&device)),
            ("achieved_gbps", Value::num(gbps)),
            ("roofline_pct", Value::num(pct_v)),
        ]));
    }
    for dev in devices() {
        assert!(
            devices_seen.contains(dev.name),
            "no roofline attribution for {}",
            dev.name
        );
    }
    println!(
        "  roofline attribution: {} kernel/device gauges across {:?}",
        roofline_rows.len(),
        devices_seen
    );

    let walls = |w: &[f64]| Value::Arr(w.iter().map(|&s| Value::num(s)).collect());
    let mut rec = obs::BenchRecord::new("slo");
    rec.set_extra("jobs", Value::int(jobs as u64));
    rec.set_extra("seed", Value::int(seed));
    rec.set_extra("executors", Value::int(executors as u64));
    rec.set_extra("rounds", Value::int(ROUNDS as u64));
    rec.set_extra(
        "static",
        Value::obj(vec![
            ("slice_steps", Value::int(64)),
            ("batch_max", Value::int(6)),
            ("wall_seconds", walls(&static_walls)),
            ("interactive_p50_ms", Value::num(static_p50)),
            ("interactive_p99_ms", Value::num(static_p99)),
        ]),
    );
    rec.set_extra(
        "adaptive",
        fleet.slo_summary().expect("controller summary present"),
    );
    rec.set_extra(
        "adaptive_pooled",
        Value::obj(vec![
            ("wall_seconds", walls(&adaptive_walls)),
            ("interactive_p50_ms", Value::num(p50)),
            ("interactive_p99_ms", Value::num(p99)),
        ]),
    );
    rec.set_extra(
        "interactive_p99_improvement_pct",
        Value::num(100.0 * (static_p99 - p99) / static_p99),
    );
    rec.set_extra(
        "events",
        Value::obj(vec![
            ("total", Value::int(hub.events.total())),
            ("dropped", Value::int(hub.events.dropped())),
            (
                "counts",
                Value::Obj(
                    hub.events
                        .counts()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::int(v)))
                        .collect(),
                ),
            ),
        ]),
    );
    rec.set_extra(
        "jobs_with_trace_spans",
        Value::int(span_tenant.len() as u64),
    );
    rec.set_extra("roofline", Value::Arr(roofline_rows));
    let path = write_record(&rec);
    if let Some(p) = events_path {
        hub.events.write_json(p).expect("write events JSON");
        println!("  wrote fleet event log to {p}");
    }
    println!(
        "slo OK: adaptive p99 {p99:.1} ms beats static {static_p99:.1} ms \
         ({:.0}% better), event log replays, checksums unchanged; wrote {path}",
        100.0 * (static_p99 - p99) / static_p99
    );
    println!();
}

const USAGE: &str = "usage: reproduce [table1|table2|table3|table4|figure2|figure3|footprint|speedups|occupancy|profile|futurework|smoke|aa|sparse|resilience|serve|slo|all] [--quick] [--inject=nan|abort|link|all] [--checkpoint-every=<n>] [--jobs=<n>] [--seed=<n>] [--trace=<path>] [--metrics=<path>] [--events=<path>]";

/// Flags that carry a value (`--name=value`).
const VALUE_FLAGS: [&str; 7] = [
    "--inject=",
    "--checkpoint-every=",
    "--jobs=",
    "--seed=",
    "--trace=",
    "--metrics=",
    "--events=",
];

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One positional section; every other argument must be a known flag.
    let mut sections = args.iter().filter(|a| !a.starts_with("--"));
    let what = sections.next().map_or("all", String::as_str);
    let known_flag = |a: &str| a == "--quick" || VALUE_FLAGS.iter().any(|f| a.starts_with(f));
    if let Some(bad) = sections
        .next()
        .or_else(|| args.iter().find(|a| a.starts_with("--") && !known_flag(a)))
    {
        usage_exit(&format!("unrecognised argument '{bad}'"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let trace_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--trace="))
        .map(String::from);
    let metrics_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--metrics="))
        .map(String::from);
    let events_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--events="))
        .map(String::from);
    let inject = args
        .iter()
        .find_map(|a| a.strip_prefix("--inject="))
        .unwrap_or("all")
        .to_string();
    if !matches!(inject.as_str(), "all" | "nan" | "abort" | "link") {
        eprintln!("unknown --inject value '{inject}' (expected nan|abort|link|all)");
        std::process::exit(2);
    }
    let ckpt_every = match args
        .iter()
        .find_map(|a| a.strip_prefix("--checkpoint-every="))
    {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--checkpoint-every expects a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => 4,
    };
    let serve_jobs = match args.iter().find_map(|a| a.strip_prefix("--jobs=")) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--jobs expects a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => 1200,
    };
    let serve_seed = match args.iter().find_map(|a| a.strip_prefix("--seed=")) {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => n,
            _ => {
                eprintln!("--seed expects an integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => 2023,
    };
    let hub = obs::Obs::shared();
    let needs_measure = matches!(what, "all" | "table2" | "figure2" | "figure3" | "speedups");
    let results = if needs_measure {
        eprintln!("measuring B/F on the substrate (this runs real kernels)...");
        measure_all(quick)
    } else {
        Vec::new()
    };

    match what {
        "table1" => table1(),
        "table2" => table2(&results),
        "table3" => table3(),
        "table4" => table4(),
        "figure2" => figure(&results, 2),
        "figure3" => figure(&results, 3),
        "footprint" => footprint(),
        "speedups" => speedups(&results),
        "occupancy" => occupancy_report(),
        "profile" => profile(quick),
        "futurework" => future_work(quick),
        "smoke" => smoke(&hub),
        "aa" => aa_section(&hub),
        "sparse" => sparse_section(&hub),
        "resilience" => resilience(&hub, &inject, ckpt_every),
        "serve" => serve_load(&hub, serve_jobs, serve_seed),
        "slo" => slo_load(serve_jobs, serve_seed, events_path.as_deref()),
        "all" => {
            table1();
            table2(&results);
            table3();
            table4();
            figure(&results, 2);
            figure(&results, 3);
            footprint();
            speedups(&results);
            occupancy_report();
            profile(quick);
            future_work(quick);
            aa_section(&hub);
            sparse_section(&hub);
            resilience(&hub, &inject, ckpt_every);
            serve_load(&hub, serve_jobs, serve_seed);
            slo_load(serve_jobs, serve_seed, events_path.as_deref());
            let [v, _] = devices();
            debug_assert!(bandwidth_fraction(&v, Pattern::Standard, 2) > 0.0);
        }
        other => usage_exit(&format!("unknown section '{other}'")),
    }

    if let Some(p) = &trace_path {
        hub.tracer.write_chrome_json(p).expect("write trace JSON");
        eprintln!("wrote Chrome trace to {p} (load in chrome://tracing or Perfetto)");
    }
    if let Some(p) = &metrics_path {
        hub.metrics.write_json(p).expect("write metrics JSON");
        eprintln!("wrote metrics to {p}");
    }
    // The slo section writes its own (fresh) hub's event log to the path;
    // every other section logs fleet events on the shared hub.
    if let Some(p) = &events_path {
        if !matches!(what, "slo" | "all") {
            hub.events.write_json(p).expect("write events JSON");
            eprintln!("wrote fleet event log to {p}");
        }
    }
}

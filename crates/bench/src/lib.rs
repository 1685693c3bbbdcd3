//! Harness utilities of the `reproduce` binary: run one configuration of
//! (device, pattern, lattice, size), collect the measured B/F from the
//! traffic ledger, and map it through the roofline/efficiency models to the
//! modeled MFLUPS the paper reports.
//!
//! Absolute figure/table sizes in the paper reach tens of millions of
//! nodes; the harness measures B/F on a moderate domain (B/F is
//! size-independent up to boundary effects — verified by a test below) and
//! evaluates the size sweep through the saturation model. Nothing here
//! reads a clock: wall-clock time of the substrate is measured by
//! `benchmark/` only.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod codegen_probe;
use gpu_sim::efficiency::{modeled_mflups, Pattern};
use gpu_sim::DeviceSpec;
use lbm_core::collision::Bgk;
use lbm_core::Geometry;
use lbm_gpu::{AaStSim, MrScheme, MrSim, Sim, SoloBody, StSim};
use lbm_lattice::{Lattice, D3Q39};

/// Result of one harness run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub device: &'static str,
    pub pattern: Pattern,
    pub lattice: &'static str,
    pub fluid_nodes: usize,
    pub steps: usize,
    /// DRAM bytes per fluid lattice update, from the traffic ledger.
    pub measured_bpf: f64,
}

impl RunResult {
    /// Modeled throughput at `nodes` fluid nodes on the run's device.
    pub fn modeled_mflups(&self, dev: &DeviceSpec, nodes: usize) -> f64 {
        let dim = if self.lattice.starts_with("D2") { 2 } else { 3 };
        modeled_mflups(dev, self.pattern, dim, self.measured_bpf, nodes)
    }
}

/// Default relaxation time for the harness flows.
pub const TAU: f64 = 0.8;

fn shear_init_2d(_x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
    (1.0, [0.04 * (y as f64 * 0.37).sin(), 0.0, 0.0])
}

fn shear_init_3d(_x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
    (1.0, [0.03 * ((y + z) as f64 * 0.31).sin(), 0.0, 0.0])
}

/// Bulk-dominated 2D benchmark domain: walls in y, periodic in x.
pub fn bench_geometry_2d(nx: usize, ny: usize) -> Geometry {
    Geometry::walls_y_periodic_x(nx, ny)
}

/// Bulk-dominated 3D benchmark domain: walls in y and z, periodic in x.
pub fn bench_geometry_3d(nx: usize, ny: usize, nz: usize) -> Geometry {
    let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
    for z in 0..nz {
        for x in 0..nx {
            g.set(x, 0, z, lbm_core::NodeType::Wall);
            g.set(x, ny - 1, z, lbm_core::NodeType::Wall);
        }
    }
    for y in 0..ny {
        for x in 0..nx {
            g.set(x, y, 0, lbm_core::NodeType::Wall);
            g.set(x, y, nz - 1, lbm_core::NodeType::Wall);
        }
    }
    g
}

/// Measured B/F of `steps` steps of `sim` from `init`.
fn bpf_of<B: SoloBody>(
    mut sim: Sim<B>,
    init: fn(usize, usize, usize) -> (f64, [f64; 3]),
    steps: usize,
) -> f64 {
    sim.init_with(init);
    sim.run(steps);
    sim.measured_bpf()
}

/// Run `pattern` on lattice `L` over the bulk-dominated benchmark domain of
/// that dimension (`nz` is ignored in 2D) and collect its measurements.
/// D3Q27 goes through the same kernels (paper §5 future work: "lattices
/// with a large number of components, such as the single-speed D3Q27") and
/// the MR advantage grows: 2Q·8 = 432 vs 2M·8 = 160 B/F.
pub fn run<L: Lattice>(
    device: DeviceSpec,
    pattern: Pattern,
    (nx, ny, nz): (usize, usize, usize),
    steps: usize,
) -> RunResult {
    let name = device.name;
    let (geom, init): (_, fn(usize, usize, usize) -> _) = if L::D == 2 {
        (bench_geometry_2d(nx, ny), shear_init_2d)
    } else {
        (bench_geometry_3d(nx, ny, nz), shear_init_3d)
    };
    let fluid = geom.fluid_count();
    let bgk = Bgk::new(TAU);
    let p = MrScheme::projective;
    let measured_bpf = match pattern {
        Pattern::Standard => bpf_of(StSim::<L, _>::new(device, geom, bgk), init, steps),
        Pattern::StandardAa => bpf_of(AaStSim::<L, _>::new(device, geom, bgk), init, steps),
        Pattern::MomentProjective => bpf_of(MrSim::<L>::new(device, geom, p(), TAU), init, steps),
        Pattern::MomentRecursive => {
            let scheme = MrScheme::recursive::<L>();
            bpf_of(MrSim::<L>::new(device, geom, scheme, TAU), init, steps)
        }
        Pattern::MomentTwist => {
            let sim = MrSim::<L>::new(device, geom, p(), TAU).with_twist();
            bpf_of(sim, init, steps)
        }
    };
    RunResult {
        device: name,
        pattern,
        lattice: L::NAME,
        fluid_nodes: fluid,
        steps,
        measured_bpf,
    }
}

/// Run the multi-speed D3Q39 lattice through the ST pattern on a fully
/// periodic box (multi-speed wall treatment is out of scope — the paper
/// names D3Q39 only as future work). The measured B/F should be
/// 2Q·8 = 624; the moment representation would still need only
/// 2M·8 = 160, a projected ×3.9.
pub fn run_3d_q39_st(device: DeviceSpec, n: usize, steps: usize) -> RunResult {
    let name = device.name;
    let geom = Geometry::periodic_3d(n, n, n);
    let fluid = geom.fluid_count();
    let mut sim: StSim<D3Q39, _> = StSim::new(device, geom, Bgk::new(TAU));
    sim.init_with(|_, y, z| (1.0, [0.02 * ((y + z) as f64 * 0.4).sin(), 0.0, 0.0]));
    sim.run(steps);
    RunResult {
        device: name,
        pattern: Pattern::Standard,
        lattice: "D3Q39",
        fluid_nodes: fluid,
        steps,
        measured_bpf: sim.measured_bpf(),
    }
}

/// The problem-size sweep of Figures 2–3 (fluid nodes).
pub fn figure_sizes() -> Vec<usize> {
    vec![
        250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 30_000_000,
    ]
}

/// Render a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (c, w) in cells.iter().zip(widths) {
        s.push_str(&format!("{c:>w$}  ", w = w));
    }
    s.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_lattice::{D2Q9, D3Q19};

    /// B/F is size-independent for the bulk-dominated domains (the whole
    /// point of measuring it at moderate size and extrapolating).
    #[test]
    fn bpf_is_size_independent_2d() {
        let a = run::<D2Q9>(
            DeviceSpec::v100(),
            Pattern::MomentProjective,
            (32, 16, 1),
            2,
        );
        let b = run::<D2Q9>(
            DeviceSpec::v100(),
            Pattern::MomentProjective,
            (64, 32, 1),
            2,
        );
        assert!(
            (a.measured_bpf - b.measured_bpf).abs() < 2.0,
            "{} vs {}",
            a.measured_bpf,
            b.measured_bpf
        );
    }

    #[test]
    fn st_and_mr_bpf_match_table2() {
        let st = run::<D2Q9>(DeviceSpec::v100(), Pattern::Standard, (48, 24, 1), 2);
        assert!((st.measured_bpf - 144.0).abs() < 2.0, "{}", st.measured_bpf);
        let mr = run::<D2Q9>(
            DeviceSpec::v100(),
            Pattern::MomentProjective,
            (48, 24, 1),
            2,
        );
        assert!((mr.measured_bpf - 96.0).abs() < 2.0, "{}", mr.measured_bpf);
        let st3 = run::<D3Q19>(DeviceSpec::mi100(), Pattern::Standard, (16, 12, 12), 2);
        assert!(
            (st3.measured_bpf - 304.0).abs() < 3.0,
            "{}",
            st3.measured_bpf
        );
        let mr3 = run::<D3Q19>(
            DeviceSpec::mi100(),
            Pattern::MomentRecursive,
            (16, 12, 12),
            2,
        );
        assert!(
            (mr3.measured_bpf - 160.0).abs() < 4.0,
            "{}",
            mr3.measured_bpf
        );
    }

    /// The in-place patterns keep Table 2's bytes-per-update — residency
    /// halves, traffic does not.
    #[test]
    fn aa_and_twist_bpf_match_table2() {
        let aa = run::<D2Q9>(DeviceSpec::v100(), Pattern::StandardAa, (48, 24, 1), 2);
        assert!((aa.measured_bpf - 144.0).abs() < 2.0, "{}", aa.measured_bpf);
        let tw = run::<D2Q9>(DeviceSpec::v100(), Pattern::MomentTwist, (48, 24, 1), 2);
        assert!((tw.measured_bpf - 96.0).abs() < 2.0, "{}", tw.measured_bpf);
        let aa3 = run::<D3Q19>(DeviceSpec::mi100(), Pattern::StandardAa, (16, 12, 12), 2);
        assert!(
            (aa3.measured_bpf - 304.0).abs() < 3.0,
            "{}",
            aa3.measured_bpf
        );
        let tw3 = run::<D3Q19>(DeviceSpec::mi100(), Pattern::MomentTwist, (16, 12, 12), 2);
        assert!(
            (tw3.measured_bpf - 160.0).abs() < 4.0,
            "{}",
            tw3.measured_bpf
        );
    }

    /// The modeled speedups reproduce the paper's conclusions from the
    /// *measured* B/F.
    #[test]
    fn modeled_speedups_from_measured_bpf() {
        let v100 = DeviceSpec::v100();
        let st = run::<D2Q9>(v100.clone(), Pattern::Standard, (48, 24, 1), 2);
        let mr = run::<D2Q9>(v100.clone(), Pattern::MomentProjective, (48, 24, 1), 2);
        let n = 16_000_000;
        let speedup = mr.modeled_mflups(&v100, n) / st.modeled_mflups(&v100, n);
        assert!((speedup - 1.32).abs() < 0.06, "2D V100 speedup {speedup}");
    }
}

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
use gpu_sim::efficiency::{modeled_mflups, Pattern};
use gpu_sim::DeviceSpec;
use lbm_core::collision::Bgk;
use lbm_core::Geometry;
use lbm_gpu::{AaStSim, MrScheme, MrSim2D, MrSim3D, StSim};
use lbm_lattice::{D2Q9, D3Q19, D3Q27, D3Q39};

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

/// Run a 2D configuration and collect its measurements.
pub fn run_2d(
    device: DeviceSpec,
    pattern: Pattern,
    nx: usize,
    ny: usize,
    steps: usize,
) -> RunResult {
    let name = device.name;
    let geom = bench_geometry_2d(nx, ny);
    let fluid = geom.fluid_count();
    let measured_bpf = match pattern {
        Pattern::Standard => {
            let mut sim: StSim<D2Q9, _> = StSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_2d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::StandardAa => {
            let mut sim: AaStSim<D2Q9, _> = AaStSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_2d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentProjective | Pattern::MomentRecursive => {
            let scheme = if pattern == Pattern::MomentProjective {
                MrScheme::projective()
            } else {
                MrScheme::recursive::<D2Q9>()
            };
            let mut sim: MrSim2D<D2Q9> = MrSim2D::new(device, geom, scheme, TAU);
            sim.init_with(shear_init_2d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentTwist => {
            let mut sim: MrSim2D<D2Q9> =
                MrSim2D::new(device, geom, MrScheme::projective(), TAU).with_twist();
            sim.init_with(shear_init_2d);
            sim.run(steps);
            sim.measured_bpf()
        }
    };
    RunResult {
        device: name,
        pattern,
        lattice: "D2Q9",
        fluid_nodes: fluid,
        steps,
        measured_bpf,
    }
}

/// Run a 3D configuration and collect its measurements.
pub fn run_3d(
    device: DeviceSpec,
    pattern: Pattern,
    nx: usize,
    ny: usize,
    nz: usize,
    steps: usize,
) -> RunResult {
    let name = device.name;
    let geom = bench_geometry_3d(nx, ny, nz);
    let fluid = geom.fluid_count();
    let measured_bpf = match pattern {
        Pattern::Standard => {
            let mut sim: StSim<D3Q19, _> = StSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::StandardAa => {
            let mut sim: AaStSim<D3Q19, _> = AaStSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentProjective | Pattern::MomentRecursive => {
            let scheme = if pattern == Pattern::MomentProjective {
                MrScheme::projective()
            } else {
                MrScheme::recursive::<D3Q19>()
            };
            let mut sim: MrSim3D<D3Q19> = MrSim3D::new(device, geom, scheme, TAU);
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentTwist => {
            let mut sim: MrSim3D<D3Q19> =
                MrSim3D::new(device, geom, MrScheme::projective(), TAU).with_twist();
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
    };
    RunResult {
        device: name,
        pattern,
        lattice: "D3Q19",
        fluid_nodes: fluid,
        steps,
        measured_bpf,
    }
}

/// Run a 3D configuration on the D3Q27 lattice (paper §5 future work:
/// "lattices with a large number of components, such as the single-speed
/// D3Q27"). The MR advantage grows: 2Q·8 = 432 vs 2M·8 = 160 B/F.
pub fn run_3d_q27(
    device: DeviceSpec,
    pattern: Pattern,
    nx: usize,
    ny: usize,
    nz: usize,
    steps: usize,
) -> RunResult {
    let name = device.name;
    let geom = bench_geometry_3d(nx, ny, nz);
    let fluid = geom.fluid_count();
    let measured_bpf = match pattern {
        Pattern::Standard => {
            let mut sim: StSim<D3Q27, _> = StSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::StandardAa => {
            let mut sim: AaStSim<D3Q27, _> = AaStSim::new(device, geom, Bgk::new(TAU));
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentProjective | Pattern::MomentRecursive => {
            let scheme = if pattern == Pattern::MomentProjective {
                MrScheme::projective()
            } else {
                MrScheme::recursive::<D3Q27>()
            };
            let mut sim: MrSim3D<D3Q27> = MrSim3D::new(device, geom, scheme, TAU);
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
        Pattern::MomentTwist => {
            let mut sim: MrSim3D<D3Q27> =
                MrSim3D::new(device, geom, MrScheme::projective(), TAU).with_twist();
            sim.init_with(shear_init_3d);
            sim.run(steps);
            sim.measured_bpf()
        }
    };
    RunResult {
        device: name,
        pattern,
        lattice: "D3Q27",
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

    /// B/F is size-independent for the bulk-dominated domains (the whole
    /// point of measuring it at moderate size and extrapolating).
    #[test]
    fn bpf_is_size_independent_2d() {
        let a = run_2d(DeviceSpec::v100(), Pattern::MomentProjective, 32, 16, 2);
        let b = run_2d(DeviceSpec::v100(), Pattern::MomentProjective, 64, 32, 2);
        assert!(
            (a.measured_bpf - b.measured_bpf).abs() < 2.0,
            "{} vs {}",
            a.measured_bpf,
            b.measured_bpf
        );
    }

    #[test]
    fn st_and_mr_bpf_match_table2() {
        let st = run_2d(DeviceSpec::v100(), Pattern::Standard, 48, 24, 2);
        assert!((st.measured_bpf - 144.0).abs() < 2.0, "{}", st.measured_bpf);
        let mr = run_2d(DeviceSpec::v100(), Pattern::MomentProjective, 48, 24, 2);
        assert!((mr.measured_bpf - 96.0).abs() < 2.0, "{}", mr.measured_bpf);
        let st3 = run_3d(DeviceSpec::mi100(), Pattern::Standard, 16, 12, 12, 2);
        assert!(
            (st3.measured_bpf - 304.0).abs() < 3.0,
            "{}",
            st3.measured_bpf
        );
        let mr3 = run_3d(DeviceSpec::mi100(), Pattern::MomentRecursive, 16, 12, 12, 2);
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
        let aa = run_2d(DeviceSpec::v100(), Pattern::StandardAa, 48, 24, 2);
        assert!((aa.measured_bpf - 144.0).abs() < 2.0, "{}", aa.measured_bpf);
        let tw = run_2d(DeviceSpec::v100(), Pattern::MomentTwist, 48, 24, 2);
        assert!((tw.measured_bpf - 96.0).abs() < 2.0, "{}", tw.measured_bpf);
        let aa3 = run_3d(DeviceSpec::mi100(), Pattern::StandardAa, 16, 12, 12, 2);
        assert!(
            (aa3.measured_bpf - 304.0).abs() < 3.0,
            "{}",
            aa3.measured_bpf
        );
        let tw3 = run_3d(DeviceSpec::mi100(), Pattern::MomentTwist, 16, 12, 12, 2);
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
        let st = run_2d(v100.clone(), Pattern::Standard, 48, 24, 2);
        let mr = run_2d(v100.clone(), Pattern::MomentProjective, 48, 24, 2);
        let n = 16_000_000;
        let speedup = mr.modeled_mflups(&v100, n) / st.modeled_mflups(&v100, n);
        assert!((speedup - 1.32).abs() < 0.06, "2D V100 speedup {speedup}");
    }
}

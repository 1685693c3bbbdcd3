//! Shards stepped side by side change nothing but the wall clock.
//!
//! For every sharded driver × {2, 3, 4} devices × a host-thread budget of
//! {1, 2, 3, 8}: the FNV field checksum after every step, every device's
//! launch count and DRAM bytes, the analytic halo payload, the bytes the
//! interconnect carried and the modeled overlap ledger are exactly those of
//! the one-thread run, which steps the shards one after another on the
//! calling thread. The budgets cover a team smaller than the ring (2 on 3
//! and 4, 3 on 4), one thread per device (2 on 2, 3 on 3) and device
//! threads that each own launch threads (8 on 2, 3 and 4; every launch is
//! forced onto its device's pool, so those cells nest pools under the team).

use gpu_sim::DeviceSpec;
use lbm_core::collision::Projective;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::Simulation;
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::{D2Q9, D3Q19};
use lbm_multi::{
    MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiSparseStSim, MultiStSim,
    OverlapStats,
};

const STEPS: usize = 6;

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

/// Everything a run leaves behind that must not depend on the budget.
#[derive(Debug, PartialEq)]
struct Cell {
    fnv_per_step: Vec<u64>,
    /// `(launches, DRAM bytes)` of each device.
    per_device: Vec<(u64, u64)>,
    halo_bytes_per_step: u64,
    link_bytes: u64,
    overlap: Option<OverlapStats>,
}

fn cell<S: Simulation>(
    mut sim: S,
    devices: usize,
    ledger: impl Fn(&S) -> (u64, u64, Option<OverlapStats>),
) -> Cell {
    let hub = obs::Obs::shared();
    sim.set_obs(hub.clone());
    let fnv_per_step = (0..STEPS)
        .map(|_| {
            sim.step();
            sim.field_checksum()
        })
        .collect();
    let per_device = (0..devices)
        .map(|r| {
            let dev = r.to_string();
            let labels = [("device", "NVIDIA V100"), ("dev", dev.as_str())];
            let count = |name| hub.metrics.counter(name, &labels).unwrap_or(0);
            (count("device_launches"), count("device_dram_bytes"))
        })
        .collect();
    assert_eq!(hub.tracer.open_spans_total(), 0, "a span was left open");
    let (halo_bytes_per_step, link_bytes, overlap) = ledger(&sim);
    Cell {
        fnv_per_step,
        per_device,
        halo_bytes_per_step,
        link_bytes,
        overlap,
    }
}

fn matrix<S: Simulation>(
    name: &str,
    mk: impl Fn(usize, usize) -> S,
    ledger: impl Fn(&S) -> (u64, u64, Option<OverlapStats>),
) {
    for devices in [2, 3, 4] {
        let base = cell(mk(devices, 1), devices, &ledger);
        assert!(
            base.per_device.iter().all(|&(launches, _)| launches > 0),
            "{name} x{devices}: a device launched nothing: {base:?}"
        );
        for threads in [2, 3, 8] {
            let got = cell(mk(devices, threads), devices, &ledger);
            assert_eq!(got, base, "{name} x{devices} at {threads} threads");
        }
    }
}

/// Inlet/outlet channels, so the boundary-condition stage runs on the edge
/// shards as well as the strip and interior stages on all of them.
#[test]
fn multi_st_is_budget_invariant() {
    matrix(
        "st",
        |devices, threads| {
            let geom = Geometry::channel_2d(24, 10, 0.04);
            let mut s: MultiStSim<D2Q9, _> =
                MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), devices)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_step(), link, Some(*s.stats()))
        },
    );
}

#[test]
fn multi_mr2d_is_budget_invariant() {
    matrix(
        "mr2d",
        |devices, threads| {
            let geom = Geometry::channel_2d(24, 10, 0.04);
            let scheme = MrScheme::recursive::<D2Q9>();
            let mut s: MultiMrSim2D<D2Q9> =
                MultiMrSim2D::new(DeviceSpec::v100(), geom, scheme, 0.8, devices)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_step(), link, Some(*s.stats()))
        },
    );
}

#[test]
fn multi_mr3d_is_budget_invariant() {
    matrix(
        "mr3d",
        |devices, threads| {
            let geom = Geometry::channel_3d(12, 7, 7, 0.03);
            let scheme = MrScheme::projective();
            let mut s: MultiMrSim3D<D3Q19> =
                MultiMrSim3D::new(DeviceSpec::v100(), geom, scheme, 0.8, devices)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_step(), link, Some(*s.stats()))
        },
    );
}

/// Moving lid: the AA pattern takes no inlet/outlet nodes.
#[test]
fn multi_aa_is_budget_invariant() {
    matrix(
        "aa",
        |devices, threads| {
            let mut geom = Geometry::walls_y_periodic_x(24, 8);
            for x in 0..24 {
                geom.set(x, 7, 0, NodeType::MovingWall([0.05, 0.0, 0.0]));
            }
            let mut s: MultiAaStSim<D2Q9, _> =
                MultiAaStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), devices)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_cycle(), link, Some(*s.stats()))
        },
    );
}

fn obstacle() -> Geometry {
    Geometry::walls_y_periodic_x(24, 12).with_cylinder(10.5, 5.5, 2.6)
}

#[test]
fn multi_sparse_st_is_budget_invariant() {
    matrix(
        "sparse-st",
        |devices, threads| {
            let mut s: MultiSparseStSim<D2Q9, _> = MultiSparseStSim::new(
                DeviceSpec::v100(),
                obstacle(),
                Projective::new(0.8),
                devices,
            )
            .with_cpu_threads(threads)
            .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_step(), link, None)
        },
    );
}

#[test]
fn multi_sparse_mr_is_budget_invariant() {
    matrix(
        "sparse-mr",
        |devices, threads| {
            let scheme = MrScheme::projective();
            let mut s: MultiSparseMrSim<D2Q9> =
                MultiSparseMrSim::new(DeviceSpec::v100(), obstacle(), scheme, 0.8, devices)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            s.init_with(shear_init);
            s
        },
        |s| {
            let link = s.interconnect().total_link_bytes();
            (s.halo_bytes_per_step(), link, None)
        },
    );
}

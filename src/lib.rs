//! # lbm-mr — moment representation of regularized lattice Boltzmann methods
//!
//! Facade crate for the workspace reproducing *"Moment Representation of
//! Regularized Lattice Boltzmann Methods on NVIDIA and AMD GPUs"*
//! (Valero-Lara, Vetter, Gounley, Randles — SC 2023). It re-exports the
//! public API of the member crates:
//!
//! * [`lattice`] — velocity sets, Hermite machinery, moment space;
//! * [`core`] — collision operators, boundaries, reference solvers;
//! * [`gpu`] — the software-GPU substrate (devices, kernels, traffic
//!   ledger, roofline/efficiency models);
//! * [`kernels`] — the ST and MR propagation patterns on that substrate,
//!   the one driver host, and (`kernels::multi`) multi-device domain
//!   decomposition with moment-space halo exchange over the simulated
//!   interconnect;
//! * [`multi`] — the checkpoint/rollback recovery loop (and the sharded
//!   driver names under their former path);
//! * [`serve`] — the multi-tenant simulation service: batched scheduling,
//!   checkpoint-backed preemption, and per-tenant byte-denominated quotas
//!   over every driver, including the in-place AA/twist patterns and the
//!   fluid-compacted sparse drivers (porous domains billed on fluid
//!   nodes, not bounding-box volume).
//!
//! ## Quickstart
//!
//! ```
//! use lbm_mr::prelude::*;
//!
//! // A small 2D channel on the simulated V100, moment representation with
//! // projective regularization (the paper's MR-P).
//! let geom = Geometry::channel_2d_poiseuille(32, 16, 0.05);
//! let mut sim: MrSim2D<D2Q9> =
//!     MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
//! sim.run(50);
//! assert!((sim.measured_bpf() - 96.0).abs() < 10.0); // Table 2: 2M·8 = 96
//! ```

pub use gpu_sim as gpu;
pub use lbm_core as core;
pub use lbm_gpu as kernels;
pub use lbm_lattice as lattice;
pub use lbm_multi as multi;
pub use lbm_serve as serve;
pub use obs;

/// Convenient single import for examples and applications.
pub mod prelude {
    pub use gpu_sim::efficiency::{self, Pattern};
    pub use gpu_sim::interconnect::{LinkSpec, MultiGpu};
    pub use gpu_sim::{occupancy, roofline, DeviceSpec, Gpu};
    pub use lbm_core::collision::{Bgk, Collision, Projective, Recursive};
    pub use lbm_core::{analytic, diagnostics, io, units, Geometry, NodeType, Solver};
    pub use lbm_core::{Simulation, StepError};
    pub use lbm_gpu::multi::{
        MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiSparseStSim, MultiStSim,
        OverlapStats, SlabDecomp,
    };
    pub use lbm_gpu::{
        AaStSim, MrScheme, MrSim2D, MrSim3D, SparseMrSim2D, SparseMrSim3D, StSim, StSparseSim,
    };
    pub use lbm_lattice::{Lattice, D2Q9, D3Q15, D3Q19, D3Q27, D3Q39};
    pub use lbm_serve::{JobSpec, Serve, ServeConfig, TenantQuota};
    pub use obs::{
        BenchRecord, BenchRow, MetricsRegistry, MonitorConfig, Obs, PhysicsMonitor, Tracer,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let geom = Geometry::channel_2d(16, 8, 0.03);
        let mut sim: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8));
        sim.run(3);
        assert_eq!(sim.steps(), 3);
    }
}

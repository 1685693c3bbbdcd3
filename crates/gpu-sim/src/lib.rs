//! A software GPU substrate for algorithm studies.
//!
//! This crate stands in for the CUDA/HIP runtime of the paper's evaluation
//! (no GPU is available in this environment — see `DESIGN.md` for the
//! substitution argument). It executes *real kernels over real data* while
//! measuring exactly the quantity the paper's performance model is built on:
//! bytes moved to and from global memory per fluid lattice update.
//!
//! Components:
//!
//! * [`device`] — device descriptors with the paper's Table 1 presets
//!   (NVIDIA V100, AMD MI100).
//! * [`memory`] — [`memory::GlobalBuffer`], a shared global-memory array
//!   whose reads/writes are tallied per launch, with an optional
//!   [`racecheck`] layer that validates the circular-array-shifting
//!   race-freedom argument of Algorithm 2.
//! * [`exec`] — the execution engine: grids of thread blocks with per-block
//!   shared memory and barrier-phased execution; blocks run in parallel on
//!   CPU threads. A *lockstep* launch mode runs all blocks phase by phase
//!   (bulk-synchronous), the deterministic over-approximation of SIMT
//!   progress that the moment-representation kernels are verified under.
//! * [`occupancy`] — blocks-per-SM calculator (the paper's "two or more
//!   thread blocks per SM" guidance).
//! * [`coalesce`] — warp-level coalescing analysis (sectors per request),
//!   standing in for the nvvp/nsight/rocprof measurements.
//! * [`roofline`] — eq. (15): `MFLUPS_max = BW / (10⁶ · B/F)`.
//! * [`efficiency`] — achieved-bandwidth-fraction model calibrated from the
//!   paper's measurements, mapping measured byte counts to modeled MFLUPS.
//! * [`profiler`] — per-kernel launch statistics reports.
//! * [`interconnect`] — N devices joined by byte-counted links (NVLink /
//!   Infinity Fabric presets), the substrate for multi-device sharding.
//! * [`fault`] — deterministic fault injection (corrupted writes, launch
//!   aborts, link failures) consumed by the resilience tests.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod coalesce;
pub mod device;
pub mod efficiency;
pub mod exec;
pub mod fault;
pub mod interconnect;
pub mod memory;
pub mod occupancy;
pub mod pool;
pub mod profiler;
pub mod racecheck;
pub mod roofline;

pub use device::DeviceSpec;
pub use exec::{Gpu, Kernel, Launch, LaunchStats, PhasedKernel};
pub use fault::{Element, FaultPlan};
pub use interconnect::{Link, LinkError, LinkSpec, MultiGpu};
pub use memory::GlobalBuffer;

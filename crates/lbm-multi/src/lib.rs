//! The checkpoint/rollback recovery loop, and the sharded driver names
//! under the path the benchmark imports them from.
//!
//! Sharding itself is [`lbm_gpu::multi`]: the sharded drivers are aliases
//! of `lbm_gpu::Sim<Slabs<body>>`, hosted by the same `Sim` as every
//! single-device driver, and Rust only allows the inherent
//! `MultiStSim::<L, _>::new(..)` in the crate that defines `Sim`. What is
//! left here is
//!
//! * [`recovery`] — the recovery loop, which drives any
//!   [`lbm_core::Simulation`] and so needs no driver crate at all, and
//! * a `pub use` of the sharded names, because `benchmark/` (which a PR
//!   that touches the drivers may not edit) imports them as `lbm_multi::…`.
//!   The facade goes when a `benchmark`-archetype PR can point those imports
//!   at `lbm_gpu::multi`.

pub mod recovery;

pub use lbm_gpu::multi::{
    HaloRetryPolicy, MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiSparseStSim,
    MultiStSim, OverlapStats, SlabDecomp,
};
pub use recovery::{run_with_recovery, RecoveryConfig, RecoveryError, RecoveryStats};

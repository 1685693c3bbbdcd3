//! Multi-device domain decomposition with moment-space halo exchange.
//!
//! Runs one simulation sharded across N simulated GPUs ([`gpu_sim`]'s
//! [`MultiGpu`](gpu_sim::interconnect::MultiGpu)), extending the paper's
//! bandwidth argument from device memory to the interconnect: a halo node
//! costs `M·8` bytes to exchange in moment space instead of `Q·8` in
//! distribution space — the exact `M/Q` ratio of Table 2 (96/144 for
//! D2Q9, 160/304 for D3Q19 in two-lattice B/F terms; 80 vs 152 on the
//! wire per D3Q19 halo node).
//!
//! A shard is the *single-device* body of its pattern (`st::St`,
//! `aa::AaSt`, `mr::Mr`, `sparse::SparseSt`, `sparse_mr::SparseMr`) built on
//! a slab's local geometry, of which it computes the owned columns; the
//! pattern's own module is the only place that knows how its state is laid
//! out, initialised, read back and checkpointed. This module knows
//! coordinates, links and the schedule, and its drivers are hosted by the
//! same [`Sim`](crate::Sim) as every other: the `Multi*Sim` names are
//! aliases of `Sim<Slabs<body>>`.
//!
//! * [`decomp`] — 1D slab decomposition along `x` with one-node ghost
//!   columns, local geometries that mirror global node types, and the
//!   directed transfers of every cut.
//! * [`slabs`] — the one sharded body, [`Slabs<B>`]: init through global
//!   coordinates, fields by copying owned columns, one blob array per
//!   shard, the halo plan compiled at construction, the one whole-node
//!   exchange and the one two-phase overlap schedule.
//! * [`st`], [`aa`], [`mr`], [`sparse`] — per pattern, what is specific to
//!   it: the constructor of its alias ([`MultiStSim`], [`MultiAaStSim`],
//!   [`MultiMrSim`] also named [`MultiMrSim2D`] / [`MultiMrSim3D`],
//!   [`MultiSparseStSim`], [`MultiSparseMrSim`]) and what its exchange does
//!   differently — nothing for ST (`Q·8` bytes per halo node) and MR
//!   (`M·8`); a parity-aware pre/post protocol moving only the
//!   cut-crossing slots for AA; a per-tile plan whose wire bytes scale with
//!   the cut columns' *fluid* count for the sparse pair.
//! * [`ring`] — the [`Ring`] a sharded body runs on (devices, halo-retry
//!   policy, retry counter) and what only a host on a ring can answer:
//!   typed link errors, `with_halo_retry`, `interconnect`.
//! * [`stats`] — the two-phase overlap schedule's timing model
//!   (`t_step = t_boundary + max(t_interior, t_exchange) + t_bc`) and
//!   overlap efficiency.
//!
//! All of them are *bitwise* identical to their single-device
//! counterparts: ghosts carry exact doubles and every kernel's per-node
//! arithmetic is decomposition-independent. The test suite asserts
//! equality with `==`, not a tolerance.

pub mod aa;
pub mod decomp;
pub mod mr;
pub mod ring;
pub mod slabs;
pub mod sparse;
pub mod st;
pub mod stats;

pub use aa::MultiAaStSim;
pub use decomp::{Cut, HaloTransfer, Slab, SlabDecomp};
pub use mr::{MultiMrSim, MultiMrSim2D, MultiMrSim3D};
pub use ring::{HaloRetryPolicy, Ring};
pub use slabs::Slabs;
pub use sparse::{MultiSparseMrSim, MultiSparseStSim};
pub use st::MultiStSim;
pub use stats::OverlapStats;

//! GPU-substrate implementations of the paper's three propagation patterns.
//!
//! * [`st`] — the **standard distribution representation** (Algorithm 1):
//!   two full lattices, SoA layout, pull scheme, one thread per node.
//! * [`mr`] — the **moment representation** (Algorithm 2): one moment
//!   lattice in global memory, column decomposition with per-column thread
//!   blocks, collision in moment space, mapping to distribution space
//!   inside shared memory for exact streaming, sliding-window tiles with a
//!   two-layer write lag, and in-place global updates protected by circular
//!   array time shifting ([`moment_lattice`]). One column walker serves
//!   every dimension: a 2D domain is the one-row-deep case of the 3D walk
//!   frame. The collision kernel is either projective (**MR-P**) or
//!   recursive (**MR-R**) regularization ([`scheme`]).
//! * [`aa`] — the in-place AA-pattern ST variant; [`sparse`] /
//!   [`sparse_mr`] — the fluid-compacted (indirect-addressing) ST and MR.
//! * [`driver`] — the chassis every driver shares: a [`DriverCore`]
//!   (step counter, tally, obs hub, monitor, checkpoint envelope), the
//!   [`DriverBody`] a pattern implements, and the **one** generic host
//!   [`Sim`] that carries every common builder/accessor and the one
//!   `Simulation` impl — for a body on one [`gpu_sim::Gpu`] and for a slab
//!   decomposition on a ring alike. What only one kind of device can answer
//!   sits in `impl` blocks bounded by the body's device type: `traffic` /
//!   `measured_bpf` on a `Gpu`; `try_step`, `with_halo_retry`,
//!   `halo_retries`, `interconnect`, `num_devices` on a [`multi::Ring`].
//!   `StSim`, `AaStSim`, `MrSim` (also named `MrSim2D` / `MrSim3D`),
//!   `StSparseSim` and `SparseMrSim` are aliases of `Sim<body>`; each
//!   pattern module keeps its storage, kernels, constructors and own
//!   switches. A body computes the [`Owned`] x-span of its geometry —
//!   everything on one device, a slab between ghost columns as a shard —
//!   and how a pattern's state is laid out, initialised, read back and
//!   checkpointed is known to its module here and nowhere else.
//! * [`multi`] — sharding: [`multi::Slabs<B>`], the one sharded body (a
//!   slab decomposition of single-device bodies `B`), its halo exchange and
//!   overlap schedule, and the `Multi*Sim` aliases of `Sim<Slabs<body>>`.
//!   It is a module of this crate and not a crate of its own because an
//!   alias's inherent `MultiStSim::new(..)` can only be written in the
//!   crate that defines `Sim`; the crate `lbm-multi` is left as the
//!   recovery loop plus a re-export of these names for `benchmark/`.
//! * [`boundary`] — the finite-difference inlet/outlet kernels for both
//!   representations.
//! * [`footprint`] — device-memory footprint accounting (§4.1's 35 % / 47 %
//!   reduction claims).
//!
//! All kernels run on the [`gpu_sim`] substrate, which measures their global
//! memory traffic byte-exactly; the drivers expose the measured B/F that
//! feeds the roofline/efficiency models. Numerical results are validated
//! against the `lbm-core` reference solver to floating-point roundoff — the
//! moment representation is a *lossless* compression of the regularized
//! state, and the test suite proves it.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod aa;
pub mod boundary;
pub mod driver;
pub mod footprint;
pub mod moment_lattice;
pub mod mr;
pub mod multi;
pub mod scheme;
pub mod sparse;
pub mod sparse_mr;
pub mod st;

pub use aa::AaStSim;
pub use driver::{DriverBody, DriverCore, Owned, Sim, SoloBody};
pub use moment_lattice::MomentLattice;
pub use mr::{MrSim, MrSim2D, MrSim3D};
pub use scheme::MrScheme;
pub use sparse::{FluidIndex, SparseBuildError, StSparseSim};
pub use sparse_mr::{SparseMrSim, SparseMrSim2D, SparseMrSim3D};
pub use st::StSim;

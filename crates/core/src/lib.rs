//! Reference lattice Boltzmann solvers and physics.
//!
//! This crate implements the paper's numerics independently of any GPU
//! concern:
//!
//! * [`collision`] — the three collision operators evaluated in the paper:
//!   BGK (eq. 6), projective regularization (eqs. 8–11, "MR-P"), and
//!   recursive regularization (eqs. 12–14, "MR-R"), plus the moment-space
//!   collision (eq. 10) used by the moment-representation kernels.
//! * [`boundary`] — halfway bounce-back walls, moving walls, and the
//!   Latt-2008 finite-difference inlet/outlet conditions the paper uses for
//!   its channel flows.
//! * [`geometry`] — node classification and domain builders (2D/3D channel,
//!   fully periodic box, lid-driven cavity).
//! * [`solver`] (with the [`solver2d`] / [`solver3d`] aliases) — the
//!   *standard distribution representation* reference solver (two lattices,
//!   pull scheme — Algorithm 1 of the paper), split over scoped CPU threads
//!   by a helper private to it. It is the ground truth the GPU-substrate
//!   kernels are validated against, bit-for-bit up to floating-point
//!   roundoff. The GPU-substrate drivers never use those threads: they run,
//!   set-up included, on `gpu-sim`'s per-device worker pools.
//! * [`kernels`] — the per-node and lane-chunked update arithmetic the
//!   GPU-substrate drivers launch.
//! * [`analytic`] — closed-form solutions (plane Poiseuille, Taylor–Green
//!   vortex) used by the validation tests and examples.
//! * [`diagnostics`] / [`io`] / [`units`] — observables, field output, and
//!   lattice-unit conversions.
//! * [`sim`] — the [`Simulation`] trait: the uniform driver surface
//!   (step/checkpoint/restore/checksum/observe) implemented by all six
//!   GPU-substrate drivers and consumed by the recovery loop and the
//!   `lbm-serve` fleet scheduler.

#![allow(clippy::needless_range_loop)] // indexed loops are the idiom in stencil kernels
pub mod analytic;
pub mod boundary;
pub mod collision;
pub mod diagnostics;
pub mod geometry;
pub mod io;
pub mod kernels;
pub mod sim;
pub mod solver;
pub mod solver2d;
pub mod solver3d;
pub mod units;

pub use geometry::{Geometry, NodeType};
pub use sim::{Simulation, StepError};
pub use solver::Solver;
pub use solver2d::Solver2D;
pub use solver3d::Solver3D;

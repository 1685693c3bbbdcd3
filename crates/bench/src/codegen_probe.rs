//! Codegen probes: the lane kernels of [`lbm_core::kernels`] instantiated
//! behind `#[no_mangle] #[inline(never)]` symbols, so `ci.sh` can emit this
//! crate's assembly and check that "vectorized" is true of the machine code
//! and not only of the module docs. Nothing calls these; each body is one
//! generic kernel call on a full chunk (`len = LANES`, `j0 = 0` — the case
//! the hot loops run; the ragged-tail loads and stores fold away), so what
//! the guard reads is the kernel.
//!
//! The guard (`ci.sh`, x86-64 only) fails if a probe calls anything but a
//! panic path or the once-per-chunk `Lattice::h2map` table fetch, or if
//! packed `pd` arithmetic does not outnumber scalar `sd` arithmetic at
//! least 4 : 1 in it.

use lbm_core::kernels::{self, LANES};
use lbm_lattice::{D2Q9, D3Q19};

/// `mr_p_collide_chunk::<D2Q9>`, full and restricted direction loops.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_mr_p_d2q9(moms: &[f64], omega: f64, dirs: &[usize], out: &mut [[f64; LANES]]) {
    kernels::mr_p_collide_chunk::<D2Q9>(moms, LANES, 0, omega, dirs, out)
}

/// `mr_p_collide_chunk::<D3Q19>`, full and restricted direction loops.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_mr_p_d3q19(
    moms: &[f64],
    omega: f64,
    dirs: &[usize],
    out: &mut [[f64; LANES]],
) {
    kernels::mr_p_collide_chunk::<D3Q19>(moms, LANES, 0, omega, dirs, out)
}

/// `moments_from_f_lanes::<D3Q19>`.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_moments_from_f_d3q19(f: &[[f64; LANES]], moms: &mut [f64]) {
    kernels::moments_from_f_lanes::<D3Q19>(f, moms, LANES, 0)
}

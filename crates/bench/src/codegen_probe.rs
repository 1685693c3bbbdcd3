//! Codegen probes: the lane kernels of [`lbm_core::kernels`] instantiated
//! behind `#[no_mangle] #[inline(never)]` symbols, so `ci.sh` can emit this
//! crate's assembly and check that "vectorized" is true of the machine code
//! and not only of the module docs. Nothing calls these; each body is one
//! generic kernel call on a full chunk (`len = LANES`, `j0 = 0` — the case
//! the hot loops run; the ragged-tail loads and stores fold away), so what
//! the guard reads is the kernel.
//!
//! The guard (`ci.sh`, x86-64 only) fails if a probe calls or jumps to
//! anything outside itself but a panic path — so the kernel must be inlined
//! into the probe, not tail-called — or if packed `pd` arithmetic does not
//! outnumber scalar `sd` arithmetic at least 4 : 1 in it.

use lbm_core::kernels::{self, DirMask, LANES};
use lbm_lattice::{Lattice, D2Q9, D3Q19};

/// The directions a D3Q19 column kernel reconstructs on its lower y-halo
/// row (`c_y = 1`): five of nineteen.
const Y_HALO_D3Q19: DirMask = {
    let (mut mask, mut i) = (0, 0);
    while i < D3Q19::Q {
        if D3Q19::C[i][1] == 1 {
            mask |= 1 << i;
        }
        i += 1;
    }
    mask
};

/// `mr_p_collide_chunk::<D2Q9>` on a run-time direction mask.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_mr_p_d2q9(moms: &[f64], omega: f64, dirs: DirMask, out: &mut [[f64; LANES]]) {
    kernels::mr_p_collide_chunk::<D2Q9>(moms, LANES, 0, omega, &dirs, out)
}

/// `mr_p_collide_chunk::<D3Q19>` on a run-time direction mask.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_mr_p_d3q19(moms: &[f64], omega: f64, dirs: DirMask, out: &mut [[f64; LANES]]) {
    kernels::mr_p_collide_chunk::<D3Q19>(moms, LANES, 0, omega, &dirs, out)
}

/// `mr_p_collide_chunk::<D3Q19>` on the y-halo mask.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_mr_p_d3q19_y_halo(moms: &[f64], omega: f64, out: &mut [[f64; LANES]]) {
    kernels::mr_p_collide_chunk::<D3Q19>(moms, LANES, 0, omega, &Y_HALO_D3Q19, out)
}

/// `moments_from_f_lanes::<D2Q9>`.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_moments_from_f_d2q9(f: &[[f64; LANES]], moms: &mut [f64]) {
    kernels::moments_from_f_lanes::<D2Q9>(f, moms, LANES, 0)
}

/// `moments_from_f_lanes::<D3Q19>`.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_moments_from_f_d3q19(f: &[[f64; LANES]], moms: &mut [f64]) {
    kernels::moments_from_f_lanes::<D3Q19>(f, moms, LANES, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn y_halo_mask_has_five_directions() {
        assert_eq!(Y_HALO_D3Q19.count_ones(), 5);
    }
}

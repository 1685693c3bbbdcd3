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
//! outnumber scalar `sd` arithmetic at least 4 : 1 in it. The data-movement
//! probes (`codegen_probe_row_io_*`) do no arithmetic and are held to the
//! first rule only: a counted row moves without a `memcpy` call.

use gpu_sim::memory::{GlobalBuffer, Tally};
use gpu_sim::racecheck::Epoch;
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

/// The sparse MR kernel's chunk: `gather_lanes::<D2Q9>` out of a slab
/// through slab-address links (`LANES`-strided rows) into `f`, then
/// `moments_from_f_lanes::<D2Q9>`.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_sparse_gather_d2q9(
    slab: &[f64],
    links: &[u32],
    f: &mut [[f64; LANES]],
    moms: &mut [f64],
) {
    kernels::gather_lanes::<D2Q9>(slab, links, LANES, 0, LANES, f);
    kernels::moments_from_f_lanes::<D2Q9>(f, moms, LANES, 0)
}

/// Moment planes of a D3Q19 lattice.
const ROW_IO_PLANES: usize = 10;

/// One MR row's counted I/O on a D3Q19 moment lattice under an exclusive
/// (inline) launch: a read of 10 planes × `len_in` nodes, `plane` apart,
/// into `row` (rows `len_in` apart), then a write of 10 × `len_out` from
/// `row[1..]`. The walker moves 16 in and 14 out; the lengths are run-time
/// values here as there, bounded by a row (16), so a short copy that falls
/// back to a `memcpy` call shows. `lattice` is touch-tracked in use, so the
/// packed first-touch pass is part of what the guard reads. An
/// instrumented buffer returns at once: its race checker and fault plan
/// are per-cell calls by design, and the benchmark times neither.
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_row_io_d3q19(
    lattice: &GlobalBuffer<f64>,
    tally: &mut Tally,
    launch: u32,
    plane: usize,
    (len_in, len_out): (usize, usize),
    row: &mut [f64],
) {
    if lattice.is_instrumented() || len_in > 16 || len_out >= len_in {
        return;
    }
    let ep = Epoch {
        launch,
        phase: 0,
        block: 0,
        exclusive: true,
    };
    let (p, n) = (ROW_IO_PLANES, len_in);
    lattice.read_spans_into(tally, ep, 0, plane, p, n, row, n, false);
    lattice.write_spans_from(tally, ep, 1, plane, p, len_out, &row[1..], n, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn y_halo_mask_has_five_directions() {
        assert_eq!(Y_HALO_D3Q19.count_ones(), 5);
    }

    #[test]
    fn row_io_probe_moves_and_counts_one_row() {
        let (plane, n_in, n_out) = (20, 16, 14);
        let b: GlobalBuffer<f64> =
            GlobalBuffer::from_vec((0..ROW_IO_PLANES * plane).map(|i| i as f64).collect())
                .with_touch_tracking();
        let (mut t, mut row) = (Tally::default(), [0.0; ROW_IO_PLANES * 16]);
        codegen_probe_row_io_d3q19(&b, &mut t, 1, plane, (n_in, n_out), &mut row);
        assert_eq!(row[n_in + 3], (plane + 3) as f64);
        assert_eq!(
            b.get(plane + 5),
            (plane + 5) as f64,
            "the write returns what was read"
        );
        let (reads, writes) = (
            (ROW_IO_PLANES * n_in) as u64,
            (ROW_IO_PLANES * n_out) as u64,
        );
        assert_eq!(
            (t.reads, t.dram_bytes_read, t.writes),
            (reads, 8 * reads, writes)
        );
    }
}

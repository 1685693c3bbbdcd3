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
//! probes (`codegen_probe_row_io_*`, `codegen_probe_window_io_*`) do no
//! arithmetic and are held to the first rule only: a counted row or window
//! moves without a `memcpy` call.

use gpu_sim::memory::{GlobalBuffer, Selection, Tally};
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
/// (inline) launch, through the counted family pair with no selection (its
/// unmasked arm): a read of 10 planes × `len_in` nodes, `plane` apart, into
/// `row` (rows `len_in` apart), then a write of 10 × `len_out` from
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
    lattice.read_window_into(tally, ep, (0, plane, p, n), None, row, n, false);
    lattice.write_window_from(tally, ep, (1, plane, p, len_out), None, &row[1..], n, false);
}

/// Moment planes of a D2Q9 lattice.
const WINDOW_IO_PLANES: usize = 6;

/// One rock-row's counted window I/O on a D2Q9 moment lattice under an
/// exclusive (inline) launch, as the MR walker moves a footprint row of
/// several fluid runs: a window read of 6 planes × `len_in` cells, `plane`
/// apart, into `row` (rows `len_in` apart) under the run-time selection
/// `sel` (the family pair's masked arm), then a window write of 6 ×
/// `len_out` from `row[1..]` under the same bits one cell on. The walker
/// moves up to 34 in and 32 out; the lengths are run-time values bounded
/// by that row. `lattice` is
/// touch-tracked in use, so the masked first-touch pass is part of what
/// the guard reads. An instrumented buffer returns at once, as in
/// [`codegen_probe_row_io_d3q19`].
#[no_mangle]
#[inline(never)]
pub fn codegen_probe_window_io_d2q9(
    lattice: &GlobalBuffer<f64>,
    tally: &mut Tally,
    (launch, plane): (u32, usize),
    (len_in, len_out): (usize, usize),
    sel: &[u64],
    row: &mut [f64],
) {
    if lattice.is_instrumented() || len_in > 34 || len_out >= len_in {
        return;
    }
    let ep = Epoch {
        launch,
        phase: 0,
        block: 0,
        exclusive: true,
    };
    let (p, n, sel) = (WINDOW_IO_PLANES, len_in, Selection { bits: sel, at: 0 });
    lattice.read_window_into(tally, ep, (0, plane, p, n), Some(sel), row, n, false);
    let out = (1, plane, p, len_out);
    lattice.write_window_from(tally, ep, out, Some(sel.skip(1)), &row[1..], n, false);
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

    #[test]
    fn window_io_probe_counts_the_selected_cells() {
        let (plane, n_in, n_out) = (40, 34, 32);
        let b: GlobalBuffer<f64> =
            GlobalBuffer::from_vec((0..WINDOW_IO_PLANES * plane).map(|i| i as f64).collect())
                .with_touch_tracking();
        // Every third cell of the window, from cell 0.
        let sel = [0x9249_2492_4924_9249u64];
        let (mut t, mut row) = (Tally::default(), [0.0; WINDOW_IO_PLANES * 34]);
        codegen_probe_window_io_d2q9(&b, &mut t, (1, plane), (n_in, n_out), &sel, &mut row);
        assert_eq!(
            row[n_in + 4],
            (plane + 4) as f64,
            "unselected cells are copied too"
        );
        // Cell 3 of a plane is selected and written back from row[3]; cell
        // 2 is not, and keeps its value.
        assert_eq!(
            (b.get(plane + 3), b.get(plane + 2)),
            ((plane + 3) as f64, (plane + 2) as f64)
        );
        let (reads, writes) = (WINDOW_IO_PLANES as u64 * 12, WINDOW_IO_PLANES as u64 * 10);
        assert_eq!(
            (t.reads, t.dram_bytes_read, t.writes),
            (reads, 8 * reads, writes)
        );
    }
}

//! The moment-representation kernel — Algorithm 2 of the paper, one column
//! walker for every dimension.
//!
//! The plane across the walk axis is decomposed into rectangular *column*
//! footprints `wx × wy`, one thread block per column with a one-node halo
//! (Figure 1). Each column is processed bottom-up in tiles of `tile_h`
//! layers; per tile the block
//!
//! 1. reads the moments `{ρ, u, Π}` of the tile layers **and the halo**
//!    from global memory, one halo-extended footprint row at a time, staged
//!    at its positions: a row of several fluid runs as one counted window
//!    whose rock is predicated off (copied, never counted), a single run as
//!    one counted row read (halo re-reads hit the modeled L2, so the DRAM
//!    traffic stays at `M` doubles per node),
//! 2. performs collision in moment space on the whole row, in `LANES`-node
//!    chunks with all-solid chunks skipped (eq. 10; for MR-R also the
//!    recursive higher-order coefficients, eqs. 12–13),
//! 3. maps to distribution space (eq. 11 / 14) and *streams by scatter*
//!    into a shared-memory sliding window of `tile_h + 2` layers, resolving
//!    wall bounce-back on the fly; populations leaving the column are not
//!    stored — the neighbor column computes them from its own halo,
//! 4. after the implicit block barrier, recomputes the moments of the
//!    layers that just became complete (the two-layer write lag) and writes
//!    them back to global memory at the circularly shifted slot for `t + 1`,
//!    row by row as step 1 reads them (rock is never written).
//!
//! The in-place global update is protected by the downward circular shift
//! (see [`crate::moment_lattice`]); under the substrate's lockstep tile
//! phases the strict race checker proves no old value is clobbered before
//! its last read.
//!
//! # Walk frame
//!
//! The walker sees every domain as a frame `(nx, nfy, nw)`: footprints tile
//! the `nx × nfy` plane and blocks walk the `nw` axis. A 3D lattice maps
//! `(nx, ny, nz)` onto it; a 2D lattice is its `nfy = 1` case `(nx, 1, ny)`
//! with direction `i` split as `(C[i][0], 0, C[i][1])`, and the linear index
//! `x + nx·(fy + nfy·w)` is [`Geometry::idx`] either way. With `nfy = 1`
//! the y-halo rows fall outside `[0, nfy)` and are skipped, and the shared
//! slot `((i·win + w mod win)·wy + yl)·wx + xl` is the 2D column slot: the
//! 2D kernel is the 3D kernel, not a copy. `L::D` is a constant, so each
//! such branch folds away per lattice (DESIGN.md, "Walk frame"). A block
//! walks rows: position `p` of a halo-extended row is footprint x `p − 1`,
//! so a wrapped halo lane sits at `−1` or `wx` in the row's first or last
//! chunk, and the row's runs and classes come from a directory built once
//! with the walk. The slot is direction-major with x fastest, so a chunk's
//! stretch of lanes streams direction `i` as one lane-span copy in *frame*
//! x clipped to `xl + cx ∈ [0, wx)`, and a completed row hands
//! `moments_from_f_lanes` full chunks of lane slices. A lane beside resting
//! walls then writes its bounce mask back ([`walk_classes`]); only one
//! beside a moving wall is scattered node by node. Every slot keeps one
//! writer (DESIGN.md, "Clipped-span scatter with a bounce mask").
//!
//! Tiles default to a single layer — the paper notes (§3.2) that taller 3D
//! tiles "consistently underperform those that are a single lattice point
//! high" — but the height stays a parameter of the one walker.

use crate::boundary::{
    boundary_nodes, update_bc_block, walk_classes, BOUNCE, BULK, REFERENCE, SOLID,
};
use crate::driver::{
    advance_solo, DriverBody, Fields, Frame, NodeHalo, Owned, Part, Rec, ScalarKernels, Sim,
    SlabBody, SoloBody,
};
use crate::init::init_rows;
use crate::moment_lattice::{MomentLattice, TimeSlot};
use crate::multi::ring::StepCx;
use crate::multi::Slabs;
use crate::scheme::MrScheme;
use gpu_sim::exec::{BlockCtx, Kernel, Launch, LaunchStats, PhasedKernel};
use gpu_sim::interconnect::LinkError;
use gpu_sim::memory::{copy_short, Selection};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{self, DirMask, KernelConsts, LaneBlock, LANES, MAX_M, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// The walk frame `(nx, nfy, nw)` of a domain (see the module docs).
fn walk_frame<L: Lattice>(geom: &Geometry) -> (usize, usize, usize) {
    if L::D == 3 {
        (geom.nx, geom.ny, geom.nz)
    } else {
        (geom.nx, 1, geom.ny)
    }
}

/// Direction `i` along the frame axes: `(cx, c_fy, c_walk)`.
#[inline(always)]
fn frame_dir<L: Lattice>(i: usize) -> (i64, i64, i64) {
    let c = L::C[i];
    if L::D == 3 {
        (c[0] as i64, c[1] as i64, c[2] as i64)
    } else {
        (c[0] as i64, 0, c[1] as i64)
    }
}

/// Pick the largest column width ≤ `max` that divides `nx`.
fn pick_column_width(nx: usize, max: usize) -> usize {
    for w in (1..=max.min(nx)).rev() {
        if nx.is_multiple_of(w) {
            return w;
        }
    }
    1
}

/// Choose the column footprint that minimizes vectorized collide work.
///
/// Each halo-extended row of `wx + 2` nodes is processed in `LANES`-node
/// chunks (tail lanes replicate, so a partial chunk costs as much as a
/// full one), and a block collides `wy + 2` such rows per layer to own
/// `wx × wy` nodes. The lane-slot redundancy is therefore
/// `ceil((wx+2)/LANES)·LANES·(wy+2) / (wx·wy)`, which this searches over
/// all divisor pairs subject to the device's shared-memory window
/// (`wx·wy·(tile_h+2)·Q` doubles) and thread-block capacity
/// (`(wx+2)(wy+2)·tile_h`). Pass `0` for a coordinate to let it float, or a
/// fixed divisor to pin it.
fn pick_column_footprint<L: Lattice>(
    device: &DeviceSpec,
    nx: usize,
    ny: usize,
    tile_h: usize,
    fix_wx: usize,
    fix_wy: usize,
) -> (usize, usize) {
    let divisors = |n: usize, fixed: usize| -> Vec<usize> {
        if fixed != 0 {
            vec![fixed]
        } else {
            (1..=n).filter(|w| n.is_multiple_of(*w)).collect()
        }
    };
    let mut best = (1usize, 1usize);
    let mut best_cost = f64::INFINITY;
    for &wx in &divisors(nx, fix_wx) {
        for &wy in &divisors(ny, fix_wy) {
            if wx * wy * (tile_h + 2) * L::Q * 8 > device.shared_mem_per_sm {
                continue;
            }
            if (wx + 2) * (wy + 2) * tile_h > device.max_threads_per_block {
                continue;
            }
            let cost = lane_redundancy(wx, wy);
            // Tie-break toward larger blocks: fewer columns amortize the
            // per-block sliding-window setup.
            if cost < best_cost - 1e-12 || (cost < best_cost + 1e-12 && wx * wy > best.0 * best.1) {
                best = (wx, wy);
                best_cost = cost;
            }
        }
    }
    best
}

/// The column footprint `(wx, wy)` for a `width`-wide slab of a domain
/// whose frame is `nfy` deep; `0` lets a coordinate float, anything else
/// pins it. The two pickers encode different constraints (2D: the widest
/// divisor of `width` up to 32; 3D: least lane redundancy that fits the
/// device), and the footprint decides how often a halo cell is re-read, so
/// changing either would move the recorded `reads` / `l2_read_hits`.
fn auto_footprint<L: Lattice>(
    device: &DeviceSpec,
    width: usize,
    nfy: usize,
    tile_h: usize,
    wx: usize,
    wy: usize,
) -> (usize, usize) {
    if L::D == 3 {
        pick_column_footprint::<L>(device, width, nfy, tile_h, wx, wy)
    } else {
        let wx = if wx == 0 {
            pick_column_width(width, 32)
        } else {
            wx
        };
        (wx, wy.max(1))
    }
}

/// Lane-slot redundancy of a `wx × wy` 3D column footprint: vectorized
/// collide slots spent per owned node. This is the cost the 3D picker
/// minimizes; the driver gauges the chosen value into obs so bench records
/// expose when a degenerate domain (e.g. `ny < LANES`) forces a redundant
/// footprint instead of silently eating the slowdown. It counts the y-halo
/// rows, which a 2D footprint does not have.
pub fn lane_redundancy(wx: usize, wy: usize) -> f64 {
    let chunks = (wx + 2).div_ceil(LANES);
    (chunks * LANES * (wy + 2)) as f64 / (wx * wy) as f64
}

/// How a column block walks a domain: footprint, tile height, and what
/// follows from them and the geometry alone — the directions each
/// footprint row can store, the class of every node and the rows a block
/// stages. Built once per driver (or shard) and borrowed by every launch.
struct ColumnWalk {
    wx: usize,
    wy: usize,
    tile_h: usize,
    /// Frame x of the first footprint: column `k` starts at `x_first + k·wx`.
    x_first: usize,
    ncols: usize,
    /// One byte per node ([`walk_classes`]): [`SOLID`] breaks a run,
    /// [`REFERENCE`] lanes are scattered node by node, the others stream
    /// as spans.
    class: Vec<u8>,
    /// The bounce mask of every node ([`walk_classes`]).
    bounce: Vec<u32>,
    /// Masks of the directions a lane can store into the footprint, which
    /// the collide kernels reconstruct, by row: the y halo below, an owned
    /// row, the y halo above. A y-halo lane reaches the footprint only
    /// through the directions pointing at it; an x-halo lane shares its row's
    /// chunks, and the span clip keeps what it stores inside the footprint.
    rows: [DirMask; 3],
    /// Row `i = r·ncols + k`, the halo-extended row of column `k` at frame
    /// row `r = fy + nfy·w`, has `wx + 2` positions, `p` at footprint x
    /// `p − 1`: `row_class[i·(wx + 2) + p]` is the class of the node there
    /// (wrapped past a periodic face, else [`SOLID`] past a face), and
    /// `runs[run_at[i]..run_at[i + 1]]` its runs of consecutive-index fluid
    /// nodes, `[frame x, p, len]`. The geometry is static: no step scans.
    row_class: Vec<u8>,
    runs: Vec<[u32; 3]>,
    run_at: Vec<u32>,
    /// Row `i`'s selection, `(wx + 2).div_ceil(64)` words from
    /// `sel[i·words]`: bit `p` is set iff position `p` holds a fluid node
    /// not wrapped past a periodic face — what a row window counts.
    sel: Vec<u64>,
}

impl ColumnWalk {
    /// The walk of `ncols` columns `wx × wy` from frame x `x_first` over
    /// `geom`, in tiles of `tile_h` layers.
    fn new<L: Lattice>(
        geom: &Geometry,
        (wx, wy, tile_h): (usize, usize, usize),
        x_first: usize,
        ncols: usize,
    ) -> Self {
        assert!(wx >= 1 && wy >= 1 && tile_h >= 1, "empty column tile");
        let dirs = |c_fy: Option<i64>| {
            (0..L::Q)
                .filter(|&i| c_fy.is_none_or(|c| c == frame_dir::<L>(i).1))
                .fold(0, |mask: DirMask, i| mask | 1 << i)
        };
        let (class, bounce) = walk_classes::<L>(geom);
        let (nx, periodic) = (geom.nx, geom.periodic[0]);
        let u32_of = |v: usize| u32::try_from(v).expect("run directory exceeds u32");
        let mut row_class = Vec::with_capacity(class.len() / nx * ncols * (wx + 2));
        let (mut runs, mut run_at) = (Vec::<[u32; 3]>::new(), vec![0]);
        let (mut sel, words) = (Vec::new(), (wx + 2).div_ceil(64));
        for row in class.chunks_exact(nx) {
            for x0 in (0..ncols).map(|k| x_first + k * wx) {
                let bits = sel.len();
                sel.resize(bits + words, 0u64);
                // Frame x of position `p`, wrapped at a periodic face.
                let x_at = |p: usize| match x0 + p {
                    0 if periodic => Some(nx - 1),
                    fx if fx == nx + 1 && periodic => Some(0),
                    fx => (1..=nx).contains(&fx).then(|| fx - 1),
                };
                // `prev`: frame x of the previous position when it is fluid.
                let mut prev = None;
                for p in 0..wx + 2 {
                    let c = x_at(p).map_or(SOLID, |x| row[x]);
                    row_class.push(c);
                    if c != SOLID && (1..=nx).contains(&(x0 + p)) {
                        sel[bits + p / 64] |= 1 << (p % 64);
                    }
                    let x = x_at(p).filter(|_| c != SOLID);
                    match (x, runs.last_mut()) {
                        (Some(x), Some(run)) if prev.is_some_and(|px| px + 1 == x) => run[2] += 1,
                        (Some(x), _) => runs.push([x, p, 1].map(u32_of)),
                        (None, _) => {}
                    }
                    prev = x;
                }
                run_at.push(u32_of(runs.len()));
            }
        }
        ColumnWalk {
            wx,
            wy,
            tile_h,
            x_first,
            ncols,
            class,
            bounce,
            rows: [dirs(Some(1)), dirs(None), dirs(Some(-1))],
            row_class,
            runs,
            run_at,
            sel,
        }
    }

    /// Halo-extended row `(k, r)` ([`ColumnWalk::row_class`]): its class
    /// bytes, its selection and its runs `[x, p, len]`.
    #[inline(always)]
    fn row(&self, k: usize, r: usize) -> RowDir<'_> {
        let (i, n) = (r * self.ncols + k, self.wx + 2);
        let bits = &self.sel[i * n.div_ceil(64)..][..n.div_ceil(64)];
        let runs = &self.runs[self.run_at[i] as usize..self.run_at[i + 1] as usize];
        let class = &self.row_class[i * n..][..n];
        (class, Selection { bits, at: 0 }, runs)
    }

    /// Shared-window slot of direction `i` at footprint cell `(xl, yl)` in
    /// window layer `wl` (a layer index `mod win`): direction-major, x
    /// fastest, so the lanes of an x row are contiguous per direction.
    #[inline(always)]
    fn slot(&self, i: usize, wl: usize, yl: usize, xl: usize) -> usize {
        ((i * (self.tile_h + 2) + wl) * self.wy + yl) * self.wx + xl
    }
}

/// What [`ColumnWalk::row`] knows of a halo-extended row: class bytes,
/// selection (bit `p` for position `p`) and runs `[frame x, p, len]`.
type RowDir<'a> = (&'a [u8], Selection<'a>, &'a [[u32; 3]]);

/// One x row of a block's halo-extended footprint at one layer — what is
/// constant along the row, hoisted out of the lane loops.
struct Row {
    /// Column footprint origin.
    x0: usize,
    y0: usize,
    /// Footprint row, `−1..=wy` (the ends are the y-halo rows).
    yi: i64,
    /// Its frame coordinates.
    fy: usize,
    w: usize,
    /// Window slots (`mod win`) of layers `w − 1`, `w`, `w + 1`.
    wl: [usize; 3],
}

struct MrKernel<'a, L: Lattice> {
    /// Moment lattice read at time `t` (equal to `mom_out` for the in-place
    /// circular-shift variant).
    mom_in: &'a MomentLattice,
    /// Moment lattice written at time `t + 1`.
    mom_out: &'a MomentLattice,
    geom: &'a Geometry,
    scheme: &'a MrScheme,
    consts: &'a KernelConsts,
    /// Time `t` on `mom_in` and `t + 1` on `mom_out`, resolved once per
    /// launch.
    at_in: TimeSlot,
    at_out: TimeSlot,
    walk: &'a ColumnWalk,
    /// Column footprint origins: block `b` processes
    /// `[cols[b].0, cols[b].0 + wx) × [cols[b].1, cols[b].1 + wy)` for all
    /// tiles: every column of a single-device body, the strip or the
    /// interior subset of a shard's owned ones.
    cols: &'a [(usize, usize)],
    _l: PhantomData<L>,
}

impl<L: Lattice> PhasedKernel for MrKernel<'_, L> {
    fn name(&self) -> &str {
        match (L::D, self.scheme) {
            (2, MrScheme::Projective) => "mr2d-p",
            (2, MrScheme::Recursive(_)) => "mr2d-r",
            (_, MrScheme::Projective) => "mr3d-p",
            (_, MrScheme::Recursive(_)) => "mr3d-r",
        }
    }

    fn phases(&self) -> usize {
        walk_frame::<L>(self.geom).2 / self.walk.tile_h
    }

    fn run_phase(&self, k: usize, ctx: &mut BlockCtx) {
        let (nx, nfy, _) = walk_frame::<L>(self.geom);
        let (wx, wy, h) = (self.walk.wx, self.walk.wy, self.walk.tile_h);
        let win = h + 2;
        let (x0, y0) = self.cols[ctx.block_id];
        let col = (x0 - self.walk.x_first) / wx;
        let w_lo = k * h;
        // One lane block per phase: every kernel writes a lane before reading it.
        let mut lanes: LaneBlock = [[0.0f64; LANES]; MAX_Q];

        // --- Collide the tile's layers of the column + full rectangular ---
        // --- halo, stream into the shared window, one x row at a time.  ---
        for w in w_lo..w_lo + h {
            for yi in -1..=(wy as i64) {
                let ys = y0 as i64 + yi;
                if ys < 0 || ys >= nfy as i64 {
                    continue; // wall-terminated y faces
                }
                let row = Row {
                    x0,
                    y0,
                    yi,
                    fy: ys as usize,
                    w,
                    wl: [(w + win - 1) % win, w % win, (w + 1) % win],
                };
                let r = row.fy + nfy * w;
                self.collide_row(ctx, &row, nx * r, self.walk.row(col, r), &mut lanes);
            }
        }

        // --- Finalize the layers completed by this tile (two-layer lag): ---
        // --- layers [k·h − 1, k·h + h − 2] have received every          ---
        // --- population.                                                ---
        for wf in w_lo.saturating_sub(1)..w_lo + h - 1 {
            for yl in 0..wy {
                let r = y0 + yl + nfy * wf;
                let slot0 = self.walk.slot(0, wf % win, yl, 0);
                self.finalize_row(ctx, &mut lanes, nx * r, self.walk.row(col, r), slot0);
            }
        }
    }
}

impl<L: Lattice> MrKernel<'_, L> {
    /// Collide halo-extended row `(class, sel, runs)` ([`ColumnWalk::row`];
    /// `row0` its `x = 0` node) into the shared window: staged at its
    /// positions (plane stride `wx + 2`), two or more in-frame runs as one
    /// counted window (rock copied, not counted), else each run as a family,
    /// then collided in full `LANES`-position chunks, all-solid ones skipped
    /// (a solid lane is computed and discarded). A chunk's bit masks pick
    /// its stretches of bulk and bounce lanes (clipped spans), owned bounce
    /// lanes (fix-up) and [`REFERENCE`] lanes (reference scatter). The
    /// scalar oracle stages each run packed and collides and scatters it
    /// node by node.
    fn collide_row(
        &self,
        ctx: &mut BlockCtx,
        row: &Row,
        row0: usize,
        (class, sel, runs): RowDir<'_>,
        fs: &mut LaneBlock,
    ) {
        let (wx, wy) = (self.walk.wx as i64, self.walk.wy as i64);
        let (stride, scalar, at) = (class.len(), self.consts.scalar, self.at_in);
        let runs = runs.iter().map(|run| run.map(|v| v as usize));
        if scalar {
            for [x, _, len] in runs {
                self.mom_in
                    .read_row_to_scratch(ctx, at, (row0 + x, len), None, (0, len));
                let (mut flat, mut f_star) = ([0.0f64; MAX_M], [0.0f64; MAX_Q]);
                for j in 0..len {
                    for m in 0..L::M {
                        flat[m] = ctx.scratch()[m * len + j];
                    }
                    let m = Moments::unpack::<L>(&flat[..L::M]);
                    self.scheme
                        .collide_and_map::<L>(&m, self.consts.tau, &mut f_star[..L::Q]);
                    self.scatter_node(ctx, row, x + j, |i| f_star[i]);
                }
            }
            return;
        }
        // A run is in the frame unless it wraps past a periodic face, which
        // only a one-node run at either end of the row can.
        let framed = |&[x, p, _]: &[usize; 3]| x + 1 == row.x0 + p;
        for [x, p, len] in runs.clone().filter(|r| !framed(r)) {
            let lat = self.mom_in;
            lat.read_row_to_scratch(ctx, at, (row0 + x, len), None, (p, stride));
        }
        let mut inner = runs.filter(framed);
        if let Some([x, p, len]) = inner.next() {
            let (len, sel) = match inner.next_back() {
                Some([_, q, l]) => (q + l - p, Some(sel.skip(p))),
                None => (len, None),
            };
            let lat = self.mom_in;
            lat.read_row_to_scratch(ctx, at, (row0 + x, len), sel, (p, stride));
        }
        // `kind`: 0 below the footprint, 1 inside it, 2 above.
        let kind = (row.yi >= 0) as usize + (row.yi >= wy) as usize;
        let dirs = self.walk.rows[kind];
        let omega = self.consts.omega;
        for p0 in (0..stride).step_by(LANES) {
            // Lane bits of the chunk: bulk or bounce, bounce, reference.
            let (mut spans, mut bounce, mut refs) = (0u32, 0u32, 0u32);
            for (l, &c) in class[p0..stride.min(p0 + LANES)].iter().enumerate() {
                spans |= u32::from(c == BULK || c == BOUNCE) << l;
                bounce |= u32::from(c == BOUNCE) << l;
                refs |= u32::from(c == REFERENCE) << l;
            }
            if spans | refs == 0 {
                continue; // all solid
            }
            self.scheme
                .collide_chunk::<L>(ctx.scratch(), stride, p0, omega, dirs, fs);
            // Lane 0 sits at footprint x `xc`. A maximal stretch `l0..l1` of
            // bulk and bounce lanes streams direction `i` as one lane-span
            // copy, clipped: a population lands iff its destination row
            // `yi + c_fy` is owned and its destination `xl + cx` lies in
            // `[0, wx)`; any other belongs to a neighbor column (which computes
            // it from its own halo) or to the inlet/outlet kernel, and a store
            // into a solid node's slot is dead — finalize reads fluid only.
            let xc = p0 as i64 - 1;
            while spans != 0 {
                let l0 = spans.trailing_zeros() as i64;
                let l1 = l0 + (!(spans >> l0)).trailing_zeros() as i64;
                spans &= !0 << l1;
                for i in (0..L::Q).filter(|i| (dirs >> i) & 1 != 0) {
                    let (cx, cy, cw) = frame_dir::<L>(i);
                    // Lane `l` lands at footprint x `xd0 + l`, slot `slot0 + l`.
                    let (yd, xd0) = (row.yi + cy, xc + cx);
                    let (lo, hi) = (l0.max(-xd0), l1.min(wx - xd0));
                    if (0..wy).contains(&yd) && lo < hi {
                        let slot0 = self.walk.slot(i, row.wl[(cw + 1) as usize], yd as usize, 0);
                        let d0 = (slot0 as i64 + xd0 + lo) as usize;
                        let dst = &mut ctx.shared()[d0..d0 + (hi - lo) as usize];
                        copy_short(dst, &fs[i][lo as usize..hi as usize]);
                    }
                }
            }
            // Bounce fix-up of the owned lanes: `f*_i` returns to its own
            // slot `OPP[i]`, which only the wall at `x + c_i` could stream to.
            let (lo, hi) = ((-xc).max(0), (wx - xc).min(LANES as i64));
            bounce &= if kind == 1 { !0 << lo & !(!0 << hi) } else { 0 };
            while bounce != 0 {
                let l = bounce.trailing_zeros() as usize;
                bounce &= bounce - 1;
                let (xl, yl) = ((xc + l as i64) as usize, row.yi as usize);
                let mut bits = self.walk.bounce[row0 + row.x0 + xl];
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    ctx.shared()[self.walk.slot(L::OPP[i], row.wl[1], yl, xl)] = fs[i][l];
                }
            }
            while refs != 0 {
                let l = refs.trailing_zeros() as usize;
                refs &= refs - 1;
                let x = (row.x0 as i64 + xc + l as i64).rem_euclid(self.geom.nx as i64);
                self.scatter_node(ctx, row, x as usize, |i| fs[i][l]);
            }
        }
    }

    /// Recompute the moments of completed owned row `(class, sel, runs)`
    /// (positions `1..=wx`; `row0` its `x = 0` node, direction 0 at window
    /// slot `slot0`) and write them to `t + 1`: full `LANES`-node chunks,
    /// all-solid ones skipped, through `fl` and `moments_from_f_lanes` into
    /// scratch rows of stride `wx`, written like `collide_row` reads (rock
    /// not written). The scalar oracle recomputes each run node by node and
    /// writes it packed.
    fn finalize_row(
        &self,
        ctx: &mut BlockCtx,
        fl: &mut LaneBlock,
        row0: usize,
        (class, sel, runs): RowDir<'_>,
        slot0: usize,
    ) {
        let (wx, scalar, at) = (class.len() - 2, self.consts.scalar, self.at_out);
        let class = &class[1..=wx];
        // The owned part of each run, positions `1..=wx`, as
        // `(node, footprint x, length)`.
        let mut owned = runs.iter().filter_map(|run| {
            let [x, p, len] = run.map(|v| v as usize);
            let (a, b) = (p.max(1), (p + len).min(wx + 1));
            (a < b).then(|| (row0 + x + a - p, a - 1, b - a))
        });
        let dir_stride = self.walk.slot(1, 0, 0, 0);
        let (shm, scratch) = ctx.shared_and_scratch();
        for j0 in (0..wx).step_by(LANES) {
            let cnt = LANES.min(wx - j0);
            if scalar || class[j0..j0 + cnt].iter().all(|&c| c == SOLID) {
                continue;
            }
            // A chunk's lanes are contiguous in every direction plane (tail
            // lanes replicate the row's last node).
            for i in 0..L::Q {
                let src = &shm[slot0 + i * dir_stride + j0..][..cnt];
                if cnt == LANES {
                    fl[i].copy_from_slice(src);
                } else {
                    fl[i] = std::array::from_fn(|l| src[l.min(cnt - 1)]);
                }
            }
            kernels::moments_from_f_lanes::<L>(&fl[..L::Q], scratch, wx, j0);
        }
        if !scalar {
            if let Some((idx, xl, len)) = owned.next() {
                let (len, sel) = match owned.next_back() {
                    Some((_, xm, l)) => (xm + l - xl, Some(sel.skip(xl + 1))),
                    None => (len, None),
                };
                let lat = self.mom_out;
                lat.write_row_from_scratch(ctx, at, (idx, len), sel, (xl, wx));
            }
            return;
        }
        for (idx, xl, len) in owned {
            let (shm, scratch) = ctx.shared_and_scratch();
            let (mut f, mut flat) = ([0.0f64; MAX_Q], [0.0f64; MAX_M]);
            for j in 0..len {
                for i in 0..L::Q {
                    f[i] = shm[slot0 + i * dir_stride + xl + j];
                }
                Moments::from_f::<L>(&f[..L::Q]).pack::<L>(&mut flat[..L::M]);
                for m in 0..L::M {
                    scratch[m * len + j] = flat[m];
                }
            }
            self.mom_out
                .write_row_from_scratch(ctx, at, (idx, len), None, (0, len));
        }
    }

    /// Stream one collided node of `row` into the block's shared window
    /// (push form, halfway bounce-back at solids; shared slot:
    /// [`ColumnWalk::slot`]) — the reference scatter of the scalar path and
    /// of lanes beside a moving wall. It stores only into the footprint, so
    /// a y-halo lane's unreconstructed directions are never read.
    #[inline]
    fn scatter_node(&self, ctx: &mut BlockCtx, row: &Row, x: usize, f_star: impl Fn(usize) -> f64) {
        let (nx, nfy, nw) = walk_frame::<L>(self.geom);
        let (wx, wy) = (self.walk.wx, self.walk.wy);
        let &Row { x0, y0, fy, w, .. } = row;
        // `cw` selects the window slot of the destination layer.
        let sh = |xl: usize, yl: usize, cw: i64, i: usize| {
            self.walk.slot(i, row.wl[(cw + 1) as usize], yl, xl)
        };
        let src_in_col = x >= x0 && x < x0 + wx && fy >= y0 && fy < y0 + wy;
        for i in 0..L::Q {
            let (cx, cy, cw) = frame_dir::<L>(i);
            let (yd, wd) = (fy as i64 + cy, w as i64 + cw);
            let mut xd = x as i64 + cx;
            if !(0..nx as i64).contains(&xd) {
                if !self.geom.periodic[0] {
                    continue; // the inlet/outlet kernel owns what crosses an x face
                }
                xd = xd.rem_euclid(nx as i64);
            }
            let xd = xd as usize;
            if yd < 0 || yd >= nfy as i64 || wd < 0 || wd >= nw as i64 {
                continue; // beyond wall-terminated faces
            }
            let (yd, wd) = (yd as usize, wd as usize);
            let dest = xd + nx * (yd + nfy * wd);
            if self.walk.class[dest] == SOLID {
                // Halfway bounce-back: the population returns to its
                // source node in the opposite direction (push form).
                if src_in_col {
                    let gain = match self.geom.node_at(dest) {
                        NodeType::MovingWall(uw) => self.consts.gains.gain(L::OPP[i], uw),
                        _ => 0.0,
                    };
                    let slot = sh(x - x0, fy - y0, 0, L::OPP[i]);
                    ctx.shared()[slot] = f_star(i) + gain;
                }
                continue;
            }
            if xd >= x0 && xd < x0 + wx && yd >= y0 && yd < y0 + wy {
                let slot = sh(xd - x0, yd - y0, cw, i);
                ctx.shared()[slot] = f_star(i);
            }
        }
    }
}

/// Launch the MR column kernel over an explicit set of footprint origins.
/// Reads moments at time `t` from `mom_in` and writes `t + 1` into
/// `mom_out` — a step launched in parts (a shard's strips and interior)
/// needs two distinct (shift-0) lattices, since splitting one step across
/// sequential launches would break the in-place circular shift's
/// read-before-clobber ordering. Per-node arithmetic does not depend on
/// the subset, so column subsets compose bitwise.
#[allow(clippy::too_many_arguments)]
fn launch_mr_columns<L: Lattice>(
    gpu: &Gpu,
    mom_in: &MomentLattice,
    mom_out: &MomentLattice,
    geom: &Geometry,
    scheme: &MrScheme,
    consts: &KernelConsts,
    t: u64,
    walk: &ColumnWalk,
    cols: &[(usize, usize)],
) -> LaunchStats {
    let (nx, nfy, _) = walk_frame::<L>(geom);
    let (wx, wy, tile_h) = (walk.wx, walk.wy, walk.tile_h);
    assert!(!cols.is_empty(), "no columns to launch");
    assert_eq!(
        walk.class.len(),
        geom.len(),
        "walk built for another domain"
    );
    for &(x0, y0) in cols {
        let k = x0.checked_sub(walk.x_first).filter(|d| d % wx == 0);
        assert!(
            x0 + wx <= nx && y0 + wy <= nfy && k.is_some_and(|d| d / wx < walk.ncols),
            "column ({x0}, {y0}) overruns the domain or the walk"
        );
    }
    gpu.launch_lockstep(
        // `blocks × threads_per_block` decides pooled vs inline dispatch and
        // is printed in launch spans: 2D blocks have no y halo to count.
        &Launch {
            blocks: cols.len(),
            threads_per_block: (wx + 2) * if L::D == 3 { wy + 2 } else { 1 } * tile_h,
            shared_doubles: wx * wy * (tile_h + 2) * L::Q,
            // Row staging: M planes of one halo-extended x row.
            scratch_doubles: L::M * (wx + 2),
        },
        &MrKernel::<L> {
            mom_in,
            mom_out,
            geom,
            scheme,
            consts,
            at_in: mom_in.at(t),
            at_out: mom_out.at(t + 1),
            walk,
            cols,
            _l: PhantomData,
        },
    )
}

/// Boundary nodes per block of the inlet/outlet kernel.
const BC_BLOCK: usize = 64;

/// Launch the moment-space inlet/outlet kernel over `nodes`, rebuilding
/// their `t_next` moments in `mom`.
fn launch_mr_bc<L: Lattice>(
    gpu: &Gpu,
    mom: &MomentLattice,
    geom: &Geometry,
    tau: f64,
    t_next: u64,
    nodes: &[(usize, usize, usize)],
) -> LaunchStats {
    assert!(!nodes.is_empty(), "no boundary nodes");
    gpu.launch(
        &Launch::simple(nodes.len().div_ceil(BC_BLOCK), BC_BLOCK),
        &MrBcKernel::<L> {
            mom,
            geom,
            tau,
            t_next,
            nodes,
            _l: PhantomData,
        },
    )
}

/// Inlet/outlet kernel for the moment representation: the FD condition is
/// *native* to moment space — the node's new state is written directly as
/// moments.
struct MrBcKernel<'a, L: Lattice> {
    mom: &'a MomentLattice,
    geom: &'a Geometry,
    tau: f64,
    t_next: u64,
    nodes: &'a [(usize, usize, usize)],
    _l: PhantomData<L>,
}

impl<L: Lattice> Kernel for MrBcKernel<'_, L> {
    fn name(&self) -> &str {
        "mr-bc"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let (mom, t_next) = (self.mom, self.t_next);
        let read_macro = |ctx: &mut BlockCtx, idx: usize| {
            let rho = mom.read(ctx, t_next, idx, 0);
            let mut u = [0.0; 3];
            for (a, ua) in u.iter_mut().enumerate().take(L::D) {
                *ua = mom.read(ctx, t_next, idx, 1 + a);
            }
            (rho, u)
        };
        update_bc_block::<L>(
            ctx,
            self.geom,
            self.tau,
            self.nodes,
            BC_BLOCK,
            read_macro,
            |ctx, idx, m| mom.write_moments::<L>(ctx, t_next, idx, m),
        );
    }
}

/// What every MR driver asks of its domain: a `D`-dimensional box for a
/// `D`-dimensional lattice of unit streaming reach, and solid walls on both
/// faces of the walk axis and of the footprint's y axis (the sliding
/// window starts and ends on them); x may be periodic or inlet/outlet.
fn assert_mr_domain<L: Lattice>(geom: &Geometry) {
    assert_eq!(
        geom.nz > 1,
        L::D == 3,
        "a {}D lattice needs a {}D domain",
        L::D,
        L::D
    );
    assert_eq!(
        L::REACH,
        1,
        "the MR sliding window requires unit streaming reach"
    );
    let n = [geom.nx, geom.ny, geom.nz];
    let stride = [1, geom.nx, geom.nx * geom.ny];
    // Walk axis first: it is the one the window slides along.
    for a in (1..L::D).rev() {
        let axis = ["x", "y", "z"][a];
        assert!(
            !geom.periodic[a],
            "MR requires wall-terminated {axis} faces"
        );
        // Both ends of every line of nodes along axis `a`.
        let line = stride[a] * n[a];
        for base in (0..geom.len()).step_by(line) {
            for lo in base..base + stride[a] {
                let hi = lo + line - stride[a];
                assert!(
                    geom.node_at(lo).is_solid() && geom.node_at(hi).is_solid(),
                    "MR requires walls at {axis} = 0 and {axis} = n{axis}−1"
                );
            }
        }
    }
}

/// Dimension and moment-count guards every MR blob starts with: `nx`, `ny`,
/// `nz` in 3D, then `M`.
fn blob_guards<L: Lattice>(geom: &Geometry) -> Vec<(&'static str, u64)> {
    let mut guards = vec![
        ("nx", geom.nx as u64),
        ("ny", geom.ny as u64),
        ("nz", geom.nz as u64),
    ];
    guards.truncate(L::D);
    guards.push(("M", L::M as u64));
    guards
}

/// The moment representation's state: one circularly shifted moment
/// lattice (or the double-buffered / parity-twist storage variants).
pub struct Mr<L: Lattice> {
    geom: Geometry,
    mom: MomentLattice,
    /// Second lattice of the double-buffered variant; `None` for the
    /// single-lattice circular-shift design of Algorithm 2. Odd steps read
    /// it and write `mom`. A shard always has it: its step is several
    /// launches, and the in-place update is only safe within one.
    mom2: Option<MomentLattice>,
    scheme: MrScheme,
    consts: KernelConsts,
    walk: ColumnWalk,
    /// Owned column footprint origins: the first `strips` touch a ghost
    /// column with their halo and are launched first, x fastest in each
    /// group.
    cols: Vec<(usize, usize)>,
    strips: usize,
    boundary: Vec<(usize, usize, usize)>,
    _l: PhantomData<L>,
}

/// Driver for a moment-representation simulation (MR-P or MR-R).
pub type MrSim<L> = Sim<Mr<L>>;
/// [`MrSim`] under its 2D name.
pub type MrSim2D<L> = MrSim<L>;
/// [`MrSim`] under its 3D name.
pub type MrSim3D<L> = MrSim<L>;

impl<L: Lattice> MrSim<L> {
    /// Build an MR simulation over a channel- or duct-type geometry: walls
    /// on the y (and, in 3D, z) extreme faces are mandatory (the sliding
    /// window relies on them); the x faces may be periodic or
    /// inlet/outlet. Column footprint is chosen automatically; one-layer
    /// tiles, one-layer circular shift.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64) -> Self {
        Self::with_config(device, geom, scheme, tau, 0, 0, 1, 1)
    }

    /// Full configuration: column footprint `wx × wy` (`0` = auto; a 2D
    /// footprint is one row deep), tile height in layers, and the circular
    /// shift in layers per step (must be ≥ `tile_h − 1`; 0 means in-place,
    /// valid for 1-layer tiles under lockstep).
    #[allow(clippy::too_many_arguments)]
    pub fn with_config(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        wx: usize,
        wy: usize,
        tile_h: usize,
        shift: usize,
    ) -> Self {
        assert!(
            shift + 1 >= tile_h,
            "circular shift of {shift} layers cannot protect a {tile_h}-layer tile"
        );
        let walk = (wx, wy, tile_h);
        let body = Mr::build(
            &device,
            Owned::all(&geom),
            geom,
            scheme,
            tau,
            walk,
            Some(shift),
        );
        if !body.boundary.is_empty() {
            assert!(body.geom.nx >= 5, "FD boundaries need nx ≥ 5");
        }
        Sim::from_body(Gpu::new(device), body)
    }

    /// Enable strict race checking on the moment lattice (tests). Must be
    /// called before the first step.
    pub fn with_racecheck_strict(mut self) -> Self {
        assert_eq!(self.steps(), 0, "attach the race checker before stepping");
        self.body.set_racecheck_strict();
        self
    }

    /// Switch to the double-buffered ablation variant: two moment lattices
    /// (`2M` doubles per node — the capacity the paper's §4.1 figures
    /// correspond to) and no circular shifting. Must be called before the
    /// first step.
    pub fn with_double_buffer(mut self) -> Self {
        assert_eq!(self.steps(), 0, "switch storage before stepping");
        self.body.unshift(false);
        let n = self.body.geom.len();
        self.body.mom2 = Some(MomentLattice::new(n, L::M, 0, 0).with_touch_tracking());
        self
    }

    /// Switch to the single-lattice **moment twist** variant: parity-indexed
    /// plane storage ([`MomentLattice::with_parity_twist`]) with zero
    /// circular shift and zero padding — exactly `M·8` resident bytes per
    /// node, half the double-buffered ablation and below even the
    /// shift-padded single lattice. Each step's fused moment collide reads
    /// logical moments from the current parity's plane order and writes the
    /// post-collision moments through the `t+1` mapping, i.e. into the same
    /// physical planes in reversed order; the step parity becomes part of
    /// the storage contract and is carried in the checkpoint flavor tag.
    /// Safety rests on the lockstep phase lag alone: every block
    /// global-reads layer `w` when its window reaches it (phase `w − 1`)
    /// and global-writes it two phases later (phase `w + 1`), so under the
    /// bulk-synchronous phases no cell is read after being rewritten,
    /// whichever plane the parity mapping routes the write to; the strict
    /// race checker verifies this in the tests. Requires the 1-layer
    /// lockstep tiling (the configuration whose zero-shift in-place safety
    /// that argument covers) and must be called before the first step.
    pub fn with_twist(mut self) -> Self {
        assert_eq!(self.steps(), 0, "switch storage before stepping");
        assert!(
            self.body.mom2.is_none(),
            "the twist replaces the double-buffered ablation, not vice versa"
        );
        assert_eq!(
            self.body.walk.tile_h, 1,
            "the zero-shift twist requires 1-layer lockstep tiles"
        );
        self.body.unshift(true);
        self
    }

    /// Moments of a node at the current time (pre-collision state).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        self.body.moments_at(self.steps(), x, y, z)
    }
}

/// Two unshifted lattices over `geom`: the double-buffered storage.
fn shift0_pair<L: Lattice>(geom: &Geometry) -> [MomentLattice; 2] {
    [0, 1].map(|_| MomentLattice::new(geom.len(), L::M, 0, 0).with_touch_tracking())
}

impl<L: Lattice> Mr<L> {
    /// The MR state of one shard: `geom` is a slab's local box, of which the
    /// body computes the `owned` columns. The footprint is chosen for the
    /// owned width; tiles are one layer high and the two lattices unshifted.
    pub(crate) fn on_slab(
        device: &DeviceSpec,
        owned: Owned,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
    ) -> Self {
        Self::build(device, owned, geom, scheme, tau, (0, 0, 1), None)
    }

    /// The one constructor: `walk` is `(wx, wy, tile height)` with `0` for
    /// an automatic footprint coordinate; `shift` the circular shift in
    /// layers per step of a single lattice, or `None` for the double buffer.
    fn build(
        device: &DeviceSpec,
        owned: Owned,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        (wx, wy, tile_h): (usize, usize, usize),
        shift: Option<usize>,
    ) -> Self {
        assert_mr_domain::<L>(&geom);
        let (nx, nfy, nw) = walk_frame::<L>(&geom);
        assert!(
            tile_h >= 1 && nw.is_multiple_of(tile_h),
            "tile height must divide the walk axis"
        );
        let width = owned.hi - owned.lo;
        let (wx, wy) = auto_footprint::<L>(device, width, nfy, tile_h, wx, wy);
        assert!(
            width.is_multiple_of(wx) && nfy.is_multiple_of(wy),
            "footprint {wx}×{wy} must tile the {width}×{nfy} plane"
        );
        let (mom, mom2) = match shift {
            Some(shift) => {
                let layer = nx * nfy;
                let pad = (shift + 1) * layer;
                let mom = MomentLattice::new(geom.len(), L::M, shift * layer, pad);
                (mom.with_touch_tracking(), None)
            }
            None => {
                let [mom, mom2] = shift0_pair::<L>(&geom);
                (mom, Some(mom2))
            }
        };
        // Edge strips: the first / last owned block of a slab with a ghost
        // column on that side.
        let cols_x = width / wx;
        let is_strip = |k: usize| (k == 0 && owned.ghost_l) || (k == cols_x - 1 && owned.ghost_r);
        let group = |strip: bool| {
            (0..cols_x * (nfy / wy))
                .filter(move |b| is_strip(b % cols_x) == strip)
                .map(move |b| (owned.lo + (b % cols_x) * wx, (b / cols_x) * wy))
        };
        let cols: Vec<_> = group(true).chain(group(false)).collect();
        Mr {
            strips: group(true).count(),
            cols,
            mom,
            mom2,
            scheme,
            consts: KernelConsts::new::<L>(tau),
            walk: ColumnWalk::new::<L>(&geom, (wx, wy, tile_h), owned.lo, cols_x),
            boundary: boundary_nodes(&geom),
            geom,
            _l: PhantomData,
        }
    }

    /// The storage switches' first half: the lattice the constructor built
    /// and rest-filled, unshifted and unpadded in place
    /// ([`MomentLattice::into_unshifted`]) and, for the `twist`, plane
    /// order by step parity.
    fn unshift(&mut self, twist: bool) {
        let shifted = std::mem::replace(&mut self.mom, MomentLattice::new(0, L::M, 0, 0));
        let mom = shifted.into_unshifted();
        self.mom = if twist { mom.with_parity_twist() } else { mom };
    }

    /// Strict race checking on the moment lattices (tests).
    pub(crate) fn set_racecheck_strict(&mut self) {
        self.mom.set_racecheck_strict();
        if let Some(m2) = &mut self.mom2 {
            m2.set_racecheck_strict();
        }
    }

    /// Whether this driver runs the parity-twist storage variant.
    pub fn is_twist(&self) -> bool {
        self.mom.parity_twist()
    }

    /// The collision scheme.
    pub fn scheme(&self) -> &MrScheme {
        &self.scheme
    }

    /// Column/tile configuration `(wx, wy, tile height)`.
    pub fn config(&self) -> (usize, usize, usize) {
        (self.walk.wx, self.walk.wy, self.walk.tile_h)
    }

    /// Moments of a node after `t` steps (pre-collision state).
    pub fn moments_at(&self, t: u64, x: usize, y: usize, z: usize) -> Moments {
        let lat = self.lattice_pair(t).0;
        lat.get_moments::<L>(lat.at(t), self.geom.idx(x, y, z))
    }

    /// The resident lattices, in checkpoint order.
    fn lattices(&self) -> impl Iterator<Item = &MomentLattice> {
        std::iter::once(&self.mom).chain(&self.mom2)
    }

    /// The lattices step `t` reads and writes.
    #[inline]
    fn lattice_pair(&self, t: u64) -> (&MomentLattice, &MomentLattice) {
        match &self.mom2 {
            None => (&self.mom, &self.mom),
            Some(m2) if t.is_multiple_of(2) => (&self.mom, m2),
            Some(m2) => (m2, &self.mom),
        }
    }
}

impl<L: Lattice> ScalarKernels for Mr<L> {
    fn set_scalar_kernels(&mut self) {
        self.consts.scalar = true;
    }
}

impl<L: Lattice> DriverBody for Mr<L> {
    type Dev = Gpu;

    fn advance(&mut self, gpu: &Gpu, t: u64, rec: Rec<'_>) -> Result<(), LinkError> {
        advance_solo(self, gpu, t, rec)
    }

    fn label(&self) -> &'static str {
        match (L::D, self.is_twist()) {
            (2, false) => "mr2d",
            (2, true) => "mr2d-twist",
            (_, false) => "mr3d",
            (_, true) => "mr3d-twist",
        }
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// Every node's start moments, at time 0.
    fn init_with(
        &self,
        gpu: Option<&Gpu>,
        field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    ) {
        let (mom, at) = (&self.mom, self.mom.at(0));
        let store = |idx0, rows: &[f64]| mom.set_row(at, idx0, rows);
        let pack = |m: &Moments, p: &mut [f64]| m.pack::<L>(p);
        init_rows::<L>(gpu, &self.geom, None, field, L::M, pack, store);
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let (n, lat) = (self.geom.len(), self.lattice_pair(t).0);
        let at = lat.at(t);
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                let m = lat.get_moments::<L>(at, idx);
                rho[idx] = m.rho;
                u[idx] = m.u;
            }
        }
        (rho, u)
    }

    /// One lattice plus padding, or two for the double-buffered variant.
    fn footprint_bytes(&self) -> usize {
        self.lattices().map(MomentLattice::size_bytes).sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.mom.set_fault_plan(plan.clone());
        if let Some(m2) = self.mom2.as_mut() {
            m2.set_fault_plan(plan);
        }
    }

    /// Publishes a 3D column footprint's lane redundancy as a gauge, so
    /// bench records expose degenerate-domain fallbacks (e.g. `ny < LANES`)
    /// instead of hiding them in the picker, and the walk's class census
    /// `mr_walk_nodes{class = bulk | bounce | reference}` (DESIGN.md).
    fn hub_attached(&self, obs: &obs::Obs) {
        let pattern = ("pattern", self.label());
        if L::D == 3 {
            let redundancy = lane_redundancy(self.walk.wx, self.walk.wy);
            obs.metrics
                .gauge_set("mr3d_lane_redundancy", &[pattern], redundancy);
        }
        for (name, class) in [("bulk", BULK), ("bounce", BOUNCE), ("reference", REFERENCE)] {
            let n = self.walk.class.iter().filter(|&&c| c == class).count();
            obs.metrics
                .gauge_set("mr_walk_nodes", &[pattern, ("class", name)], n as f64);
        }
    }

    /// Twist runs tag the flavor with the step parity
    /// (`"mr2d-twist+even"` / `"mr2d-twist+odd"`): the plane order is part
    /// of the storage contract, so a restore may only land on the matching
    /// half-cycle. The blob layouts are a format and predate the merged
    /// walker: 2D blobs carry a double-buffer guard (and the selector word
    /// below), 3D blobs do not.
    fn frame(&self) -> Frame {
        let mut guards = blob_guards::<L>(&self.geom);
        if L::D == 2 {
            guards.push(("double-buffer flag", self.mom2.is_some() as u64));
        }
        Frame {
            flavor: self.label(),
            parity: self.is_twist(),
            guards,
        }
    }

    /// Which lattice step `t` reads: 1 on odd steps of the double-buffered
    /// variant, else 0 (2D blobs only).
    fn selector(&self, t: u64) -> Option<u64> {
        (L::D == 2).then_some(self.mom2.is_some() as u64 * (t % 2))
    }

    /// The moment lattices are snapshotted *raw* (all slots, untranslated):
    /// restoring the same bytes with the same `t` reproduces the exact
    /// circular-shift slot layout.
    fn state_arrays(&self, _t: u64) -> Vec<Vec<f64>> {
        self.lattices().map(MomentLattice::host_snapshot).collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.lattices().map(MomentLattice::raw_len).collect()
    }

    fn install(&mut self, _t: u64, arrays: Vec<Vec<f64>>) {
        for (lat, raw) in self.lattices().zip(&arrays) {
            lat.host_restore(raw);
        }
    }
}

impl<L: Lattice> SoloBody for Mr<L> {
    /// The lockstep column kernel over the strip or the interior columns,
    /// then the boundary kernel over what they wrote.
    fn launch_part(&self, gpu: &Gpu, t: u64, part: Part, rec: Rec<'_>) {
        let (mom_in, mom_out) = self.lattice_pair(t);
        let cols = match part {
            Part::Strips => &self.cols[..self.strips],
            Part::Interior => &self.cols[self.strips..],
            Part::Boundary => {
                if !self.boundary.is_empty() {
                    let (tau, nodes) = (self.consts.tau, &self.boundary);
                    let stats = launch_mr_bc::<L>(gpu, mom_out, &self.geom, tau, t + 1, nodes);
                    rec(&stats);
                }
                return;
            }
        };
        if !cols.is_empty() {
            rec(&launch_mr_columns::<L>(
                gpu,
                mom_in,
                mom_out,
                &self.geom,
                &self.scheme,
                &self.consts,
                t,
                &self.walk,
                cols,
            ));
        }
    }
}

impl<L: Lattice> SlabBody for Mr<L> {
    fn sharded_frame(&self, global: &Geometry) -> (&'static str, Frame) {
        let frame = Frame {
            flavor: if L::D == 3 {
                "multi-mr3d"
            } else {
                "multi-mr2d"
            },
            parity: false,
            guards: blob_guards::<L>(global),
        };
        (frame.flavor, frame)
    }

    /// A sharded blob holds the live lattice only, where the solo
    /// double-buffered blob holds both: shift-0 lattices make the slot
    /// layout timestep-independent, so one is the whole state.
    fn current(&self, t: u64) -> Vec<f64> {
        self.lattice_pair(t).0.host_snapshot()
    }

    fn current_len(&self) -> usize {
        self.mom.raw_len()
    }

    fn install_current(&mut self, t: u64, data: Vec<f64>) {
        self.lattice_pair(t).0.host_restore(&data);
    }
    fn advance_slabs(slabs: &mut Slabs<Self>, cx: &StepCx<'_>) -> Result<(), LinkError> {
        slabs.two_phase(cx)
    }
}

impl<L: Lattice> NodeHalo for Mr<L> {
    const HALO: usize = L::M;

    fn send_nodes(&self, to: &Self, t: u64, pairs: &[(usize, usize)]) {
        let (src, dst) = (self.lattice_pair(t).1, to.lattice_pair(t).1);
        let (sa, da) = (src.at(t + 1), dst.at(t + 1));
        for &(si, di) in pairs {
            dst.set_moments::<L>(da, di, &src.get_moments::<L>(sa, si));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Collision, Projective, Recursive};
    use lbm_core::io::CheckpointError;
    use lbm_core::Solver;
    use lbm_lattice::{D2Q9, D3Q19, D3Q27};

    type Init = fn(usize, usize, usize) -> (f64, [f64; 3]);

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn shear_2d(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y) as f64 * 0.4).sin(),
            [
                0.02 * (y as f64 * 0.7).sin(),
                0.01 * (x as f64 * 0.5).cos(),
                0.0,
            ],
        )
    }

    fn shear_3d(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.01 * ((x + y) as f64 * 0.3).sin(),
            ],
        )
    }

    /// `mr` and the reference solver with operator `op` on the same
    /// geometry, `steps` steps from `init` (rest if `None`): density and
    /// velocity agree to `tol` — the moment representation is lossless.
    fn assert_matches_reference<L: Lattice, C: Collision<L>>(
        what: &str,
        mut mr: MrSim<L>,
        op: C,
        init: Option<Init>,
        steps: usize,
        tol: f64,
    ) {
        let mut st: Solver<L, _> = Solver::new(mr.geom().clone(), op).with_threads(2);
        if let Some(init) = init {
            mr.init_with(init);
            st.init_with(init);
        }
        mr.run(steps);
        st.run(steps);
        let (rho, u) = mr.macro_fields();
        for (i, (ua, ub)) in u.iter().zip(&st.velocity_field()).enumerate() {
            for k in 0..3 {
                assert!(
                    (ua[k] - ub[k]).abs() < tol,
                    "{what}: u[{i}][{k}] {} vs {}",
                    ua[k],
                    ub[k]
                );
            }
        }
        for (i, (x, y)) in rho.iter().zip(&st.density_field()).enumerate() {
            assert!((x - y).abs() < tol, "{what}: rho[{i}] {x} vs {y}");
        }
    }

    /// MR-P reproduces the reference projective solver on the paper's
    /// inlet/outlet channel and duct.
    #[test]
    fn mr_p_matches_reference() {
        let p = MrScheme::projective;
        let channel = Geometry::channel_2d_poiseuille(16, 8, 0.05);
        assert_matches_reference::<D2Q9, _>(
            "MR-P vs REG-P",
            MrSim::new(v100(), channel, p(), 0.8).with_cpu_threads(4),
            Projective::new(0.8),
            None,
            20,
            1e-10,
        );
        let duct = Geometry::channel_3d(12, 8, 8, 0.03);
        assert_matches_reference::<D3Q19, _>(
            "3D MR-P",
            MrSim::new(v100(), duct, p(), 0.7).with_cpu_threads(4),
            Projective::new(0.7),
            None,
            12,
            1e-10,
        );
    }

    /// MR-R likewise matches the reference recursive solver.
    #[test]
    fn mr_r_matches_reference_channel() {
        let mk = |dev: DeviceSpec| {
            MrSim::<D2Q9>::new(
                dev,
                Geometry::channel_2d(16, 8, 0.04),
                MrScheme::recursive::<D2Q9>(),
                0.75,
            )
            .with_cpu_threads(4)
        };
        let op = || Recursive::new::<D2Q9>(0.75);
        assert_matches_reference(
            "MR-R vs REG-R",
            mk(DeviceSpec::mi100()),
            op(),
            None,
            20,
            1e-10,
        );
        // Twist with the recursive scheme and inlet/outlet boundaries (the
        // boundary kernel routes through the same parity mapping).
        assert_matches_reference(
            "MR-twist vs REG-R",
            mk(v100()).with_twist(),
            op(),
            None,
            15,
            1e-10,
        );
    }

    /// Periodic-x channel and duct (no boundary kernel): the two
    /// representations agree to strict roundoff, and the circular shift
    /// passes the strict race checker.
    #[test]
    fn periodic_x_matches_reference_with_racecheck() {
        assert_matches_reference::<D2Q9, _>(
            "periodic-x",
            MrSim::new(
                v100(),
                Geometry::duct(12, 8, 1),
                MrScheme::projective(),
                0.9,
            )
            .with_cpu_threads(4)
            .with_racecheck_strict(),
            Projective::new(0.9),
            Some(|x, y, _| {
                (
                    1.0,
                    [
                        0.03 * (y as f64 * 0.5).sin(),
                        0.01 * (x as f64 * 0.7).cos(),
                        0.0,
                    ],
                )
            }),
            15,
            1e-12,
        );
        assert_matches_reference::<D3Q19, _>(
            "3D MR-R",
            MrSim::new(
                DeviceSpec::mi100(),
                Geometry::duct(8, 8, 8),
                MrScheme::recursive::<D3Q19>(),
                0.8,
            )
            .with_cpu_threads(4)
            .with_racecheck_strict(),
            Recursive::new::<D3Q19>(0.8),
            Some(|x, y, z| {
                (
                    1.0,
                    [
                        0.02 * ((y + z) as f64 * 0.6).sin(),
                        0.01 * (x as f64 * 0.8).cos(),
                        0.0,
                    ],
                )
            }),
            10,
            1e-12,
        );
    }

    /// Tile heights > 1 produce identical physics (the sliding window and
    /// shift generalize) and stay race-free — in 2D and, because there is
    /// one walker, on the D3Q19 duct (the configuration §3.2 remarks on).
    #[test]
    fn taller_tiles_match_reference() {
        let p = MrScheme::projective;
        // Footprint 4 × auto, tile_h 2, shift 2 ≥ tile_h − 1.
        assert_matches_reference::<D2Q9, _>(
            "tile_h=2",
            MrSim::with_config(v100(), Geometry::duct(12, 8, 1), p(), 0.8, 4, 0, 2, 2)
                .with_cpu_threads(4)
                .with_racecheck_strict(),
            Projective::new(0.8),
            Some(|_, y, _| (1.0, [0.02 * (y as f64 * 0.9).sin(), 0.0, 0.0])),
            10,
            1e-12,
        );
        assert_matches_reference::<D3Q19, _>(
            "3D tile_h=2",
            MrSim::with_config(v100(), Geometry::duct(12, 8, 8), p(), 0.8, 0, 0, 2, 1)
                .with_cpu_threads(4)
                .with_parallel_threshold(0)
                .with_racecheck_strict(),
            Projective::new(0.8),
            Some(shear_3d),
            8,
            1e-12,
        );
    }

    /// Measured B/F reproduces Table 2's `2M·8`: 96 for D2Q9, 160 for
    /// D3Q19 (halo re-reads are L2 hits, not DRAM).
    #[test]
    fn measured_bpf_matches_table2() {
        fn bpf<L: Lattice>(geom: Geometry, steps: usize) -> f64 {
            let mut mr: MrSim<L> =
                MrSim::new(v100(), geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
            mr.run(steps);
            mr.measured_bpf()
        }
        let bpf2 = bpf::<D2Q9>(Geometry::duct(32, 16, 1), 3);
        assert!((bpf2 - 96.0).abs() < 2.0, "B/F = {bpf2}");
        let bpf3 = bpf::<D3Q19>(Geometry::duct(12, 12, 10), 2);
        assert!((bpf3 - 160.0).abs() < 4.0, "B/F = {bpf3}");
    }

    /// The single-lattice footprint beats ST's two lattices by far more
    /// than the paper's 33 % (Algorithm 2 stores M, not 2M, doubles).
    #[test]
    fn footprint_is_single_lattice() {
        let mr: MrSim<D2Q9> = MrSim::new(
            v100(),
            Geometry::duct(32, 16, 1),
            MrScheme::projective(),
            0.8,
        );
        let st_bytes = 2 * 9 * 32 * 16 * 8;
        assert!(mr.footprint_bytes() < st_bytes / 2);
    }

    /// In-place update (shift 0) is also safe under lockstep with 1-row
    /// tiles — the ablation baseline.
    #[test]
    fn inplace_no_shift_is_lockstep_safe() {
        let mut mr: MrSim<D2Q9> = MrSim::with_config(
            v100(),
            Geometry::duct(12, 8, 1),
            MrScheme::projective(),
            0.8,
            4,
            0,
            1,
            0, // in-place
        )
        .with_cpu_threads(4)
        .with_racecheck_strict();
        mr.init_with(|_, y, _| (1.0, [0.02 * (y as f64).sin(), 0.0, 0.0]));
        mr.run(5); // the race checker panics on any violation
        assert!(mr.velocity_field().iter().all(|u| u[0].is_finite()));
    }

    #[test]
    #[should_panic(expected = "wall-terminated y")]
    fn rejects_missing_walls() {
        let geom = Geometry::periodic_2d(8, 8);
        let _ = MrSim::<D2Q9>::new(v100(), geom, MrScheme::projective(), 0.8);
    }

    #[test]
    #[should_panic(expected = "wall-terminated z")]
    fn rejects_periodic_lateral_faces() {
        let geom = Geometry::periodic_3d(8, 8, 8);
        let _ = MrSim::<D3Q19>::new(v100(), geom, MrScheme::projective(), 0.8);
    }

    #[test]
    #[should_panic(expected = "walls at z")]
    fn rejects_missing_z_walls() {
        // Non-periodic but all-fluid: the wall check fires.
        let geom = Geometry::new(8, 8, 8, [true, false, false]);
        let _ = MrSim::<D3Q19>::new(v100(), geom, MrScheme::projective(), 0.8);
    }

    #[test]
    #[should_panic(expected = "needs a 2D domain")]
    fn rejects_a_domain_of_another_dimension() {
        let _ = MrSim::<D2Q9>::new(v100(), Geometry::duct(8, 8, 8), MrScheme::projective(), 0.8);
    }

    #[test]
    fn column_width_picker() {
        assert_eq!(pick_column_width(64, 32), 32);
        assert_eq!(pick_column_width(48, 32), 24);
        assert_eq!(pick_column_width(7, 32), 7);
        assert_eq!(pick_column_width(13, 4), 1);
    }

    /// The D3Q27 future-work lattice runs through the same kernel.
    #[test]
    fn q27_duct_runs() {
        let geom = Geometry::channel_3d(8, 6, 6, 0.02);
        let mut mr: MrSim<D3Q27> =
            MrSim::new(v100(), geom, MrScheme::recursive::<D3Q27>(), 0.8).with_cpu_threads(4);
        mr.run(5);
        let u = mr.velocity_field();
        assert!(u.iter().all(|v| v.iter().all(|c| c.is_finite())));
        assert!(mr.moments_at(1, 3, 3).u[0].abs() < 1.0);
    }

    /// The double-buffered ablation variant produces the identical
    /// trajectory at twice the footprint.
    #[test]
    fn double_buffer_matches_single() {
        let init: Init = |x, y, _| {
            (
                1.0,
                [
                    0.02 * (y as f64 * 0.7).sin(),
                    0.01 * (x as f64 * 0.5).cos(),
                    0.0,
                ],
            )
        };
        let mk = || {
            MrSim::<D2Q9>::new(
                v100(),
                Geometry::duct(16, 8, 1),
                MrScheme::projective(),
                0.8,
            )
            .with_cpu_threads(2)
        };
        let mut single = mk();
        single.init_with(init);
        let mut double = mk().with_double_buffer();
        double.init_with(init);
        single.run(12);
        double.run(12);
        let (us, ud) = (single.velocity_field(), double.velocity_field());
        for (a, b) in us.iter().zip(&ud) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "storage layout changed the arithmetic");
            }
        }
        assert!(double.footprint_bytes() > 2 * single.footprint_bytes() / 2);
        assert!(double.footprint_bytes() >= 2 * 6 * 16 * 8 * 8);
        // Same traffic either way.
        assert!((single.measured_bpf() - double.measured_bpf()).abs() < 1e-9);
    }

    /// Mass conservation on the periodic-x channel.
    #[test]
    fn conserves_mass() {
        let mut mr: MrSim<D2Q9> = MrSim::new(
            v100(),
            Geometry::duct(16, 8, 1),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        mr.init_with(|x, y, _| (1.0 + 0.01 * ((x + y) as f64).sin(), [0.0; 3]));
        let mass = |s: &MrSim<D2Q9>| -> f64 { s.density_field().iter().sum() };
        let m0 = mass(&mr);
        mr.run(20);
        let m1 = mass(&mr);
        assert!((m0 - m1).abs() < 1e-9 * m0, "mass drift {}", m1 - m0);
    }

    /// Executor determinism: identical fields and traffic tally under 1, 3,
    /// and 8 CPU threads — the pool's dynamic block scheduling must be
    /// invisible to both physics and accounting.
    #[test]
    fn executor_determinism_across_thread_counts() {
        fn check<L: Lattice>(mk: impl Fn(MrScheme) -> MrSim<L>, init: Init, steps: usize) {
            let run = |scheme: fn() -> MrScheme, twist: bool, threads: usize| {
                let mut sim = mk(scheme())
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0); // force pooled dispatch at any size
                if twist {
                    sim = sim.with_twist();
                }
                sim.init_with(init);
                sim.run(steps);
                (sim.velocity_field(), sim.density_field(), sim.traffic())
            };
            // mr-p, mr-r and mr-t: every variant's tally is thread-count blind.
            for (label, scheme, twist) in [
                ("mr-p", MrScheme::projective as fn() -> MrScheme, false),
                ("mr-r", MrScheme::recursive::<L>, false),
                ("mr-t", MrScheme::projective, true),
            ] {
                let base = run(scheme, twist, 1);
                for threads in [3, 8] {
                    let got = run(scheme, twist, threads);
                    let what = format!("{} {label} at {threads} threads", L::NAME);
                    assert_eq!(base.0, got.0, "velocity diverges: {what}");
                    assert_eq!(base.1, got.1, "density diverges: {what}");
                    assert_eq!(base.2, got.2, "tally diverges: {what}");
                }
            }
        }
        // wx 8 → 6 column blocks, enough for real work stealing.
        check::<D2Q9>(
            |s| MrSim::with_config(v100(), Geometry::duct(48, 8, 1), s, 0.8, 8, 0, 1, 1),
            shear_2d,
            8,
        );
        check::<D3Q19>(
            |s| MrSim::new(v100(), Geometry::channel_3d(12, 8, 8, 0.03), s, 0.7),
            shear_3d,
            6,
        );
    }

    /// The correctness contract of the twist variant: the parity-indexed
    /// plane storage changes *where* moments live, never their values —
    /// bitwise equal to the circular-shift driver at every step, odd and
    /// even alike, on both device models, with the strict race checker
    /// proving the reversed-plane in-place update safe under the lockstep
    /// phase lag.
    #[test]
    fn twist_matches_shift_bitwise_every_step() {
        fn check<L: Lattice>(geom: Geometry, init: Init, steps: u64) {
            for dev in [v100(), DeviceSpec::mi100()] {
                let mut twist: MrSim<L> =
                    MrSim::new(dev.clone(), geom.clone(), MrScheme::projective(), 0.8)
                        .with_twist()
                        .with_racecheck_strict()
                        .with_cpu_threads(3)
                        .with_parallel_threshold(0);
                twist.init_with(init);
                let mut shift: MrSim<L> =
                    MrSim::new(dev, geom.clone(), MrScheme::projective(), 0.8).with_cpu_threads(2);
                shift.init_with(init);
                for step in 1..=steps {
                    twist.step();
                    shift.step();
                    assert_eq!(
                        twist.field_checksum(),
                        shift.field_checksum(),
                        "{} twist diverges at step {step}",
                        L::NAME
                    );
                }
            }
        }
        check::<D2Q9>(Geometry::duct(16, 8, 1), shear_2d, 7);
        check::<D3Q19>(Geometry::duct(8, 8, 8), shear_3d, 5);
    }

    /// Twist residency is exactly `M·8` bytes per node — no padding, no
    /// second buffer, below the shift-padded lattice; the strict race
    /// checker proves the reversed-plane in-place update safe under forced
    /// pooling.
    #[test]
    fn twist_footprint_exact_and_racecheck_clean() {
        fn check<L: Lattice>(geom: Geometry, bytes: usize) {
            let mk = || MrSim::<L>::new(v100(), geom.clone(), MrScheme::projective(), 0.8);
            let mut twist = mk()
                .with_twist()
                .with_racecheck_strict()
                .with_cpu_threads(3)
                .with_parallel_threshold(0);
            assert_eq!(twist.footprint_bytes(), bytes);
            assert!(twist.footprint_bytes() < mk().footprint_bytes());
            twist.init_with(|_, y, _| (1.0, [0.02 * (y as f64).sin(), 0.0, 0.0]));
            twist.run(5);
            assert!(twist.velocity_field().iter().all(|u| u[0].is_finite()));
        }
        check::<D2Q9>(Geometry::duct(16, 8, 1), 6 * 16 * 8 * 8);
        check::<D3Q19>(Geometry::duct(8, 8, 8), 10 * 8 * 8 * 8 * 8);
    }

    /// Twist checkpoints carry the parity in their flavor and round-trip at
    /// odd cut points; a plain-MR snapshot is rejected.
    #[test]
    fn twist_checkpoint_round_trips_at_odd_parity() {
        fn check<L: Lattice>(geom: Geometry, init: Init, tail: usize) {
            let plain = || {
                MrSim::<L>::new(v100(), geom.clone(), MrScheme::projective(), 0.8)
                    .with_cpu_threads(2)
            };
            let mut a = plain().with_twist();
            a.init_with(init);
            a.run(3);
            let blob = a.checkpoint();
            a.run(tail);

            let mut b = plain().with_twist();
            b.restore(&blob).unwrap();
            assert_eq!(b.steps(), 3);
            b.run(tail);
            assert_eq!(a.field_checksum(), b.field_checksum());

            // A circular-shift snapshot must not restore into a twist driver.
            let mut shift = plain();
            shift.run(2);
            let mut c = plain().with_twist();
            assert!(matches!(
                c.restore(&shift.checkpoint()),
                Err(CheckpointError::WrongFlavor { .. })
            ));
        }
        check::<D2Q9>(
            Geometry::duct(16, 8, 1),
            |_, y, _| (1.0, [0.02 * (y as f64 * 0.9).sin(), 0.0, 0.0]),
            5,
        );
        check::<D3Q19>(
            Geometry::duct(8, 6, 6),
            |_, y, z| (1.0, [0.02 * ((y + z) as f64 * 0.7).sin(), 0.0, 0.0]),
            3,
        );
    }

    /// The footprint picker's degenerate-domain fallback (`ny < LANES`)
    /// must still return a valid tiling, and its redundancy is the
    /// documented lane cost — the value the driver gauges into obs.
    #[test]
    fn pick_column_footprint_degenerate_ny_regression() {
        // ny = 4 < LANES = 8: every candidate wy ∈ {1, 2, 4} wastes tail
        // lanes; the picker must still return divisors and the redundancy
        // formula must expose the waste rather than hide it.
        let (wx, wy) = pick_column_footprint::<D3Q19>(&v100(), 16, 4, 1, 0, 0);
        assert!(
            16 % wx == 0 && 4 % wy == 0,
            "non-divisor footprint {wx}×{wy}"
        );
        let r = lane_redundancy(wx, wy);
        assert!(
            (1.0..=16.0).contains(&r),
            "degenerate redundancy {r} out of band for {wx}×{wy}"
        );
        // The picker found the minimum over all admissible pairs.
        for cand_wx in [1usize, 2, 4, 8, 16] {
            for cand_wy in [1usize, 2, 4] {
                if cand_wx * cand_wy * 3 * 19 * 8 > v100().shared_mem_per_sm
                    || (cand_wx + 2) * (cand_wy + 2) > v100().max_threads_per_block
                {
                    continue;
                }
                assert!(
                    r <= lane_redundancy(cand_wx, cand_wy) + 1e-12,
                    "picker chose {wx}×{wy} (r={r}) but {cand_wx}×{cand_wy} is cheaper"
                );
            }
        }
        // And the driver exposes the chosen redundancy as a gauge.
        let obs = obs::Obs::shared();
        let mut mr: MrSim<D3Q19> = MrSim::new(
            v100(),
            Geometry::duct(16, 4, 6),
            MrScheme::projective(),
            0.8,
        );
        mr.set_obs(obs.clone());
        let g = obs
            .metrics
            .gauge("mr3d_lane_redundancy", &[("pattern", "mr3d")])
            .expect("redundancy gauge missing");
        let (wx, wy, _) = mr.config();
        assert_eq!(g, lane_redundancy(wx, wy));

        // The class census beside it, in 2D and 3D: every fluid node counted
        // once. A duct 4 nodes deep has no node clear of a wall.
        let census = |obs: &obs::Obs, pattern: &str| {
            ["bulk", "bounce", "reference"].map(|class| {
                let labels = [("pattern", pattern), ("class", class)];
                let n = obs.metrics.gauge("mr_walk_nodes", &labels);
                n.expect("census gauge missing") as usize
            })
        };
        let fluid = mr.geom().fluid_count();
        assert_eq!(census(&obs, "mr3d"), [0, fluid, 0]);
        // A 13² cavity: 11² fluid nodes, the 9² interior ones clear of every
        // wall, the 11 under the lid reference lanes, the other 29 bounce.
        let obs = obs::Obs::shared();
        let cavity = Geometry::cavity_2d(13, 0.1);
        let mut mr: MrSim<D2Q9> = MrSim::new(v100(), cavity, MrScheme::projective(), 0.8);
        mr.set_obs(obs.clone());
        assert_eq!(census(&obs, "mr2d"), [81, 29, 11]);
        assert!(obs
            .metrics
            .gauge("mr3d_lane_redundancy", &[("pattern", "mr2d")])
            .is_none());
    }
}

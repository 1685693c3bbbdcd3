//! The 2D moment-representation kernel — Algorithm 2 of the paper.
//!
//! The domain is decomposed into *columns* parallel to the y-axis, one
//! thread block per column (Figure 1). Each column is processed bottom-up
//! in tiles of `tile_h` rows; per tile the block
//!
//! 1. reads the moments `{ρ, u, Π}` of the tile rows **and a one-node halo
//!    in x** from global memory (halo re-reads hit the modeled L2, so the
//!    DRAM traffic stays at `M` doubles per node),
//! 2. performs collision in moment space (eq. 10; for MR-R also the
//!    recursive higher-order coefficients, eqs. 12–13),
//! 3. maps to distribution space (eq. 11 / 14) and *streams by scatter*
//!    into a shared-memory sliding window of `tile_h + 2` rows, resolving
//!    wall bounce-back on the fly; populations leaving the column are not
//!    stored — the neighbor column computes them from its own halo,
//! 4. after the implicit block barrier, recomputes the moments of the rows
//!    that just became complete (the two-row write lag) and writes them
//!    back to global memory at the circularly shifted slot for `t + 1`.
//!
//! The in-place global update is protected by the downward circular shift
//! (see [`crate::moment_lattice`]); under the substrate's lockstep tile
//! phases the strict race checker proves no old value is clobbered before
//! its last read.

use crate::boundary::{boundary_nodes, stencil_coords, MacroCache};
use crate::driver::{DriverBody, DriverCore, Fields, Frame, Sim, SoloBody};
use crate::moment_lattice::MomentLattice;
use crate::scheme::MrScheme;
use gpu_sim::exec::{BlockCtx, Kernel, Launch, LaunchStats, PhasedKernel};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use lbm_core::boundary::boundary_node_moments;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{self, KernelConsts, LaneBlock, LANES, MAX_M, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// Pick the largest column width ≤ `max` that divides `nx`.
pub fn pick_column_width(nx: usize, max: usize) -> usize {
    for w in (1..=max.min(nx)).rev() {
        if nx.is_multiple_of(w) {
            return w;
        }
    }
    1
}

struct Mr2dKernel<'a, L: Lattice> {
    /// Moment lattice read at time `t` (equal to `mom_out` for the in-place
    /// circular-shift variant).
    mom_in: &'a MomentLattice,
    /// Moment lattice written at time `t + 1`.
    mom_out: &'a MomentLattice,
    geom: &'a Geometry,
    scheme: &'a MrScheme,
    consts: &'a KernelConsts,
    /// Interior fast-scatter eligibility per node (see
    /// [`crate::boundary::bulk_mask`]).
    bulk: &'a [bool],
    /// The full direction set (2D tiles collide no y-halo rows, so no
    /// segment can mask directions).
    dirs_all: Vec<usize>,
    t: u64,
    col_w: usize,
    tile_h: usize,
    /// Left edge of each block's column: block `b` processes
    /// `[cols[b], cols[b] + col_w)`. The single-device driver passes every
    /// column; the multi-device drivers pass owned subsets (boundary strips
    /// vs interior).
    cols: &'a [usize],
    _l: PhantomData<L>,
}

impl<L: Lattice> PhasedKernel for Mr2dKernel<'_, L> {
    fn name(&self) -> &str {
        match self.scheme {
            MrScheme::Projective => "mr2d-p",
            MrScheme::Recursive(_) => "mr2d-r",
        }
    }

    fn phases(&self) -> usize {
        self.geom.ny / self.tile_h
    }

    fn run_phase(&self, k: usize, ctx: &mut BlockCtx) {
        let nx = self.geom.nx;
        let (w, h) = (self.col_w, self.tile_h);
        let win = h + 2;
        let x0 = self.cols[ctx.block_id];
        let y_lo = k * h;
        let y_hi = y_lo + h;
        let periodic_x = self.geom.periodic[0];

        // --- Collide tile rows + x halo, stream into shared memory. ---
        // Per row, maximal segments of consecutive-index fluid nodes stage
        // their `t`-moments through row spans before the per-node collide +
        // scatter; segments break at solids, non-periodic domain edges, and
        // periodic-x wraps (where `idx` jumps).
        for y in y_lo..y_hi {
            let mut run: Option<(usize, usize, usize)> = None; // (x_first, idx0, len)
            for xi in -1..=(w as i64 + 1) {
                let node = if xi <= w as i64 {
                    let mut xs = x0 as i64 + xi;
                    let in_dom = if xs < 0 || xs >= nx as i64 {
                        periodic_x && {
                            xs = xs.rem_euclid(nx as i64);
                            true
                        }
                    } else {
                        true
                    };
                    in_dom
                        .then(|| {
                            let x = xs as usize;
                            let idx = self.geom.idx(x, y, 0);
                            (!self.geom.node_at(idx).is_solid()).then_some((x, idx))
                        })
                        .flatten()
                } else {
                    None
                };
                match (&mut run, node) {
                    (Some((_, idx0, len)), Some((_, idx))) if idx == *idx0 + *len => *len += 1,
                    (r, node) => {
                        if let Some((xf, idx0, len)) = r.take() {
                            self.collide_segment(ctx, y, x0, xf, idx0, len);
                        }
                        *r = node.map(|(x, idx)| (x, idx, 1));
                    }
                }
            }
        }

        // --- Finalize the rows completed by this tile (two-row lag):    ---
        // --- rows [k·h − 1, k·h + h − 2] have received every population. ---
        // New moments of each maximal fluid run are staged plane-major in
        // scratch and flushed through row spans.
        let f_lo = (y_lo as i64 - 1).max(0) as usize;
        let f_hi = y_lo + h - 1; // exclusive upper bound
        for y in f_lo..f_hi {
            let mut xl = 0;
            while xl < w {
                let idx = self.geom.idx(x0 + xl, y, 0);
                if self.geom.node_at(idx).is_solid() {
                    xl += 1;
                    continue;
                }
                let mut len = 1;
                while xl + len < w && !self.geom.node_at(idx + len).is_solid() {
                    len += 1;
                }
                if self.consts.scalar {
                    let mut f_loc = [0.0f64; MAX_Q];
                    let mut flat = [0.0f64; MAX_M];
                    for j in 0..len {
                        {
                            let sh = ctx.shared();
                            for (i, f) in f_loc[..L::Q].iter_mut().enumerate() {
                                *f = sh[((xl + j) * win + y % win) * L::Q + i];
                            }
                        }
                        let mnew = Moments::from_f::<L>(&f_loc[..L::Q]);
                        mnew.pack::<L>(&mut flat[..L::M]);
                        let scratch = ctx.scratch();
                        for m in 0..L::M {
                            scratch[m * len + j] = flat[m];
                        }
                    }
                } else {
                    // Fused from_f + pack over LANES-node chunks, writing
                    // the SoA scratch rows directly (tail lanes replicate
                    // the run's last node).
                    let mut fl: LaneBlock = [[0.0f64; LANES]; MAX_Q];
                    let mut j0 = 0;
                    while j0 < len {
                        let cnt = LANES.min(len - j0);
                        {
                            let sh = ctx.shared();
                            for l in 0..LANES {
                                let j = j0 + if l < cnt { l } else { cnt - 1 };
                                let base = ((xl + j) * win + y % win) * L::Q;
                                for i in 0..L::Q {
                                    fl[i][l] = sh[base + i];
                                }
                            }
                        }
                        kernels::moments_from_f_lanes::<L>(&fl[..L::Q], ctx.scratch(), len, j0);
                        j0 += LANES;
                    }
                }
                self.mom_out
                    .write_row_from_scratch(ctx, self.t + 1, idx, len, 0);
                xl += len;
            }
        }
    }
}

impl<L: Lattice> Mr2dKernel<'_, L> {
    /// Collide + scatter one maximal segment of consecutive-index fluid
    /// nodes of row `y`: the segment's `t`-moments are staged through row
    /// spans, then each node is collided and streamed into the block's
    /// shared tile exactly as the element-wise path did.
    fn collide_segment(
        &self,
        ctx: &mut BlockCtx,
        y: usize,
        x0: usize,
        x_first: usize,
        idx0: usize,
        len: usize,
    ) {
        self.mom_in.read_row_to_scratch(ctx, self.t, idx0, len, 0);
        if self.consts.scalar {
            // Scalar oracle: the original node-at-a-time unpack → collide →
            // map chain with its strided scratch gather.
            let mut f_star = [0.0f64; MAX_Q];
            let mut flat = [0.0f64; MAX_M];
            for j in 0..len {
                {
                    let scratch = ctx.scratch();
                    for m in 0..L::M {
                        flat[m] = scratch[m * len + j];
                    }
                }
                let m = Moments::unpack::<L>(&flat[..L::M]);
                self.scheme
                    .collide_and_map::<L>(&m, self.consts.tau, &mut f_star[..L::Q]);
                self.scatter_node(ctx, y, x0, x_first + j, &f_star);
            }
            return;
        }
        // Vectorized: unpack + collide + map fused into one chunked pass
        // over the SoA scratch rows (no strided per-node gather). Interior
        // nodes take the branchless fast scatter: their Q destination
        // slots are base(x) + off[i] with off[] constant along the row, so
        // the per-direction geometry lookups, bounds checks, and modulo
        // all hoist out of the store loop. Slow lanes (column edges,
        // boundary-adjacent nodes) fall back to the reference scatter,
        // which writes the same slots.
        let (w, win) = (self.col_w, self.tile_h + 2);
        let mut off = [0i64; MAX_Q];
        for (i, o) in off.iter_mut().enumerate().take(L::Q) {
            let c = L::C[i];
            *o = c[0] as i64 * (win * L::Q) as i64
                + (y as i64 + c[1] as i64).rem_euclid(win as i64) * L::Q as i64
                + i as i64;
        }
        let mut fs: LaneBlock = [[0.0f64; LANES]; MAX_Q];
        let mut f_star = [0.0f64; MAX_Q];
        let mut j0 = 0;
        while j0 < len {
            {
                let scratch = ctx.scratch();
                match self.scheme {
                    MrScheme::Projective => kernels::mr_p_collide_chunk::<L>(
                        scratch,
                        len,
                        j0,
                        self.consts.omega,
                        &self.dirs_all,
                        &mut fs,
                    ),
                    MrScheme::Recursive(basis) => kernels::mr_r_collide_chunk::<L>(
                        scratch,
                        len,
                        j0,
                        self.consts.omega,
                        basis,
                        &self.dirs_all,
                        &mut fs,
                    ),
                }
            }
            let cnt = LANES.min(len - j0);
            for l in 0..cnt {
                let x = x_first + j0 + l;
                if x > x0 && x + 1 < x0 + w && self.bulk[idx0 + j0 + l] {
                    let base = ((x - x0) * win * L::Q) as i64;
                    let shm = ctx.shared();
                    for (i, o) in off.iter().enumerate().take(L::Q) {
                        shm[(base + o) as usize] = fs[i][l];
                    }
                } else {
                    for i in 0..L::Q {
                        f_star[i] = fs[i][l];
                    }
                    self.scatter_node(ctx, y, x0, x, &f_star);
                }
            }
            j0 += LANES;
        }
    }

    /// Stream one node's post-collision populations into the block's shared
    /// tile (push form, halfway bounce-back at solids) — shared verbatim by
    /// the scalar and vectorized collide paths.
    #[inline]
    fn scatter_node(
        &self,
        ctx: &mut BlockCtx,
        y: usize,
        x0: usize,
        x: usize,
        f_star: &[f64; MAX_Q],
    ) {
        let (nx, ny) = (self.geom.nx, self.geom.ny);
        let (w, win) = (self.col_w, self.tile_h + 2);
        let periodic_x = self.geom.periodic[0];
        let xs = x as i64;
        let src_in_col = x >= x0 && x < x0 + w;
        for i in 0..L::Q {
            let c = L::C[i];
            let mut xd = xs + c[0] as i64;
            let yd = y as i64 + c[1] as i64;
            if xd < 0 || xd >= nx as i64 {
                if periodic_x {
                    xd = xd.rem_euclid(nx as i64);
                } else {
                    // Leaves the domain through an x face; the
                    // inlet/outlet kernel rebuilds those nodes.
                    continue;
                }
            }
            if yd < 0 || yd >= ny as i64 {
                continue; // beyond a wall-terminated y face
            }
            let (xd, yd) = (xd as usize, yd as usize);
            let dest = self.geom.node(xd, yd, 0);
            if dest.is_solid() {
                // Halfway bounce-back: the population returns to its
                // source node in the opposite direction (push form).
                if src_in_col {
                    let gain = match dest {
                        NodeType::MovingWall(uw) => self.consts.gains.gain(L::OPP[i], uw),
                        _ => 0.0,
                    };
                    let slot = ((x - x0) * win + y % win) * L::Q + L::OPP[i];
                    ctx.shared()[slot] = f_star[i] + gain;
                }
                continue;
            }
            if xd >= x0 && xd < x0 + w {
                let slot = ((xd - x0) * win + yd % win) * L::Q + i;
                ctx.shared()[slot] = f_star[i];
            }
        }
    }
}

/// Launch the MR column kernel over an explicit set of columns: block `b`
/// processes `[cols[b], cols[b] + col_w)` for all tiles. Reads moments at
/// time `t` from `mom_in` and writes `t + 1` into `mom_out` — the
/// multi-device drivers pass two distinct (shift-0) lattices, since
/// splitting one step across sequential launches would break the in-place
/// circular shift's read-before-clobber ordering. Per-node arithmetic is
/// identical to `MrSim2D::step`, so column subsets compose bitwise.
#[allow(clippy::too_many_arguments)]
pub fn launch_mr2d_columns<L: Lattice>(
    gpu: &Gpu,
    mom_in: &MomentLattice,
    mom_out: &MomentLattice,
    geom: &Geometry,
    scheme: &MrScheme,
    consts: &KernelConsts,
    bulk: &[bool],
    t: u64,
    col_w: usize,
    tile_h: usize,
    cols: &[usize],
) -> LaunchStats {
    assert!(!cols.is_empty(), "no columns to launch");
    assert_eq!(bulk.len(), geom.len(), "bulk mask must cover the domain");
    for &x0 in cols {
        assert!(x0 + col_w <= geom.nx, "column {x0} overruns the domain");
    }
    gpu.launch_lockstep(
        &Launch {
            blocks: cols.len(),
            threads_per_block: (col_w + 2) * tile_h,
            shared_doubles: col_w * (tile_h + 2) * L::Q,
            // Row-span staging: one segment of up to col_w + 2 nodes (the
            // collide loop's halo-extended row), M planes.
            scratch_doubles: L::M * (col_w + 2),
        },
        &Mr2dKernel::<L> {
            mom_in,
            mom_out,
            geom,
            scheme,
            consts,
            bulk,
            dirs_all: kernels::dirs_all::<L>(),
            t,
            col_w,
            tile_h,
            cols,
            _l: PhantomData,
        },
    )
}

/// Launch the moment-space inlet/outlet kernel over `nodes`, rebuilding
/// their `t_next` moments in `mom`. Public for the multi-device drivers.
pub fn launch_mr_bc<L: Lattice>(
    gpu: &Gpu,
    mom: &MomentLattice,
    geom: &Geometry,
    tau: f64,
    t_next: u64,
    nodes: &[(usize, usize, usize)],
    block_size: usize,
) -> LaunchStats {
    assert!(!nodes.is_empty(), "no boundary nodes");
    gpu.launch(
        &Launch::simple(nodes.len().div_ceil(block_size), block_size),
        &MrBcKernel::<L> {
            mom,
            geom,
            tau,
            t_next,
            nodes,
            block_size,
            _l: PhantomData,
        },
    )
}

/// Inlet/outlet kernel for the moment representation: the FD condition is
/// *native* to moment space — the node's new state is written directly as
/// moments.
pub(crate) struct MrBcKernel<'a, L: Lattice> {
    pub mom: &'a MomentLattice,
    pub geom: &'a Geometry,
    pub tau: f64,
    pub t_next: u64,
    pub nodes: &'a [(usize, usize, usize)],
    pub block_size: usize,
    pub _l: PhantomData<L>,
}

impl<L: Lattice> MrBcKernel<'_, L> {
    fn read_macro(&self, ctx: &mut BlockCtx, x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        let idx = self.geom.idx(x, y, z);
        let rho = self.mom.read(ctx, self.t_next, idx, 0);
        let mut u = [0.0; 3];
        for (a, ua) in u.iter_mut().enumerate().take(L::D) {
            *ua = self.mom.read(ctx, self.t_next, idx, 1 + a);
        }
        (rho, u)
    }
}

impl<L: Lattice> Kernel for MrBcKernel<'_, L> {
    fn name(&self) -> &str {
        "mr-bc"
    }

    fn run_block(&self, ctx: &mut BlockCtx) {
        let base = ctx.block_id * self.block_size;
        for tid in 0..self.block_size {
            let Some(&(x, y, z)) = self.nodes.get(base + tid) else {
                break;
            };
            let mut cache = MacroCache::new();
            for (sx, sy, sz) in stencil_coords(self.geom, x, y, z) {
                let (rho, u) = self.read_macro(ctx, sx, sy, sz);
                cache.insert((sx, sy, sz), rho, u);
            }
            let m = boundary_node_moments::<L>(self.geom, x, y, z, self.tau, &|qx, qy, qz| {
                cache.lookup(qx, qy, qz)
            });
            let idx = self.geom.idx(x, y, z);
            self.mom.write_moments::<L>(ctx, self.t_next, idx, &m);
        }
    }
}

/// The 2D moment representation's state: one circularly shifted moment
/// lattice (or the double-buffered / parity-twist storage variants).
pub struct Mr2d<L: Lattice> {
    geom: Geometry,
    mom: MomentLattice,
    /// Second lattice for the double-buffered ablation variant; `None` for
    /// the single-lattice circular-shift design of Algorithm 2. Odd steps
    /// read it and write `mom`.
    mom2: Option<MomentLattice>,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    bulk: Vec<bool>,
    col_w: usize,
    tile_h: usize,
    boundary: Vec<(usize, usize, usize)>,
    _l: PhantomData<L>,
}

/// Driver for a 2D moment-representation simulation (MR-P or MR-R).
pub type MrSim2D<L> = Sim<Mr2d<L>>;

impl<L: Lattice> MrSim2D<L> {
    /// Build an MR simulation over a channel-type geometry: walls at
    /// `y = 0` and `y = ny−1` are mandatory (the sliding window relies on
    /// them); the x faces may be periodic or inlet/outlet.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64) -> Self {
        Self::with_config(device, geom, scheme, tau, 0, 1, 1)
    }

    /// Full configuration: `col_w` (0 = auto), tile height, and the
    /// circular shift in rows per step (must be ≥ `tile_h − 1`; 0 means
    /// in-place, valid for 1-row tiles under lockstep).
    pub fn with_config(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        col_w: usize,
        tile_h: usize,
        shift_rows: usize,
    ) -> Self {
        assert_eq!(geom.nz, 1, "MrSim2D requires a 2D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(!geom.periodic[1], "MR requires wall-terminated y faces");
        for x in 0..geom.nx {
            assert!(
                geom.node(x, 0, 0).is_solid() && geom.node(x, geom.ny - 1, 0).is_solid(),
                "MR requires walls at y = 0 and y = ny−1"
            );
        }
        let col_w = if col_w == 0 {
            pick_column_width(geom.nx, 32)
        } else {
            col_w
        };
        assert!(geom.nx.is_multiple_of(col_w), "column width must divide nx");
        assert!(
            tile_h >= 1 && geom.ny.is_multiple_of(tile_h),
            "tile height must divide ny"
        );
        assert!(
            shift_rows + 1 >= tile_h,
            "circular shift of {shift_rows} rows cannot protect a {tile_h}-row tile"
        );
        let boundary = boundary_nodes(&geom);
        if !boundary.is_empty() {
            assert!(geom.nx >= 5, "FD boundaries need nx ≥ 5");
        }
        let n = geom.len();
        let pad = (shift_rows + 1) * geom.nx;
        let mom = MomentLattice::new(n, L::M, shift_rows * geom.nx, pad).with_touch_tracking();
        let bulk = crate::boundary::bulk_mask::<L>(&geom);
        Sim::from_body(
            Gpu::new(device),
            Mr2d {
                geom,
                mom,
                mom2: None,
                scheme,
                tau,
                consts: KernelConsts::new::<L>(tau),
                bulk,
                col_w,
                tile_h,
                boundary,
                _l: PhantomData,
            },
        )
    }

    /// Run the original per-node scalar kernels instead of the vectorized
    /// SoA chunks. The two paths are bitwise-identical (enforced by
    /// `tests/kernel_equivalence.rs`); the scalar path exists as the
    /// equivalence oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.body.consts.scalar = true;
        self
    }

    /// Enable strict race checking on the moment lattice (tests). Must be
    /// called before the first step.
    pub fn with_racecheck_strict(mut self) -> Self {
        assert_eq!(self.steps(), 0, "attach the race checker before stepping");
        let dummy = MomentLattice::new(1, L::M, 0, 0);
        let old = std::mem::replace(&mut self.body.mom, dummy);
        self.body.mom = old.with_racecheck_strict();
        self
    }

    /// Switch to the double-buffered ablation variant: two moment lattices
    /// (`2M` doubles per node — the capacity the paper's §4.1 figures
    /// correspond to) and no circular shifting. Must be called before the
    /// first step.
    pub fn with_double_buffer(mut self) -> Self {
        assert_eq!(self.steps(), 0, "switch storage before stepping");
        let n = self.body.geom.len();
        // Rebuild both lattices without shift.
        self.body.mom = MomentLattice::new(n, L::M, 0, 0).with_touch_tracking();
        self.body.mom2 = Some(MomentLattice::new(n, L::M, 0, 0).with_touch_tracking());
        self.init_with(|_, _, _| (1.0, [0.0; 3]));
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
    /// Requires the 1-row lockstep tiling (the configuration whose
    /// zero-shift in-place safety the strict race checker proves) and must
    /// be called before the first step.
    pub fn with_twist(mut self) -> Self {
        assert_eq!(self.steps(), 0, "switch storage before stepping");
        assert!(
            self.body.mom2.is_none(),
            "the twist replaces the double-buffered ablation, not vice versa"
        );
        assert_eq!(
            self.body.tile_h, 1,
            "the zero-shift twist requires 1-row lockstep tiles"
        );
        let n = self.body.geom.len();
        self.body.mom = MomentLattice::new(n, L::M, 0, 0)
            .with_parity_twist()
            .with_touch_tracking();
        self.init_with(|_, _, _| (1.0, [0.0; 3]));
        self
    }

    /// Moments of a node at the current time (pre-collision state).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        let (t, b) = (self.steps(), &self.body);
        b.lattice_pair(t).0.get_moments::<L>(t, b.geom.idx(x, y, z))
    }
}

impl<L: Lattice> Mr2d<L> {
    /// Whether this driver runs the parity-twist storage variant.
    pub fn is_twist(&self) -> bool {
        self.mom.parity_twist()
    }

    /// The collision scheme.
    pub fn scheme(&self) -> &MrScheme {
        &self.scheme
    }

    /// Column/tile configuration `(column width, tile height)`.
    pub fn config(&self) -> (usize, usize) {
        (self.col_w, self.tile_h)
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

impl<L: Lattice> DriverBody for Mr2d<L> {
    fn label(&self) -> &'static str {
        if self.mom.parity_twist() {
            "mr2d-twist"
        } else {
            "mr2d"
        }
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// Moments are `{ρ, u, Π_eq}` — an equilibrium start, matching the ST
    /// init.
    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        for idx in 0..self.geom.len() {
            let (x, y, z) = self.geom.coords(idx);
            let (rho, u) = match self.geom.node_at(idx) {
                NodeType::Inlet(u_bc) => (field(x, y, z).0, u_bc),
                NodeType::Outlet(rho_bc) => (rho_bc, field(x, y, z).1),
                _ => field(x, y, z),
            };
            let m = Moments {
                rho,
                u,
                pi: Moments::pi_eq(rho, u, L::D),
            };
            self.mom.set_moments::<L>(0, idx, &m);
        }
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let n = self.geom.len();
        let lat = self.lattice_pair(t).0;
        let mut rho_out = vec![0.0; n];
        let mut u_out = vec![[0.0; 3]; n];
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                let m = lat.get_moments::<L>(t, idx);
                rho_out[idx] = m.rho;
                u_out[idx] = m.u;
            }
        }
        (rho_out, u_out)
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

    /// Twist runs tag the flavor with the step parity
    /// (`"mr2d-twist+even"` / `"mr2d-twist+odd"`): the plane order is part
    /// of the storage contract, so a restore may only land on the matching
    /// half-cycle.
    fn frame(&self) -> Frame {
        Frame {
            flavor: self.label(),
            parity: self.is_twist(),
            guards: vec![
                ("nx", self.geom.nx as u64),
                ("ny", self.geom.ny as u64),
                ("M", L::M as u64),
                ("double-buffer flag", self.mom2.is_some() as u64),
            ],
        }
    }

    /// Which lattice step `t` reads: 1 on odd steps of the double-buffered
    /// variant, else 0.
    fn selector(&self, t: u64) -> Option<u64> {
        Some(self.mom2.is_some() as u64 * (t % 2))
    }

    /// The moment lattices are snapshotted *raw* (all slots, untranslated):
    /// restoring the same bytes with the same `t` reproduces the exact
    /// circular-shift slot layout.
    fn state_arrays(&self) -> Vec<Vec<f64>> {
        self.lattices().map(MomentLattice::host_snapshot).collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.lattices().map(MomentLattice::raw_len).collect()
    }

    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        for (lat, raw) in self.lattices().zip(&arrays) {
            lat.host_restore(raw);
        }
    }
}

impl<L: Lattice> SoloBody for Mr2d<L> {
    /// The lockstep column kernel, then the boundary kernel.
    fn advance(&mut self, gpu: &Gpu, core: &mut DriverCore) {
        let t = core.steps();
        let cols: Vec<usize> = (0..self.geom.nx / self.col_w)
            .map(|b| b * self.col_w)
            .collect();
        let (mom_in, mom_out) = self.lattice_pair(t);
        let stats = launch_mr2d_columns::<L>(
            gpu,
            mom_in,
            mom_out,
            &self.geom,
            &self.scheme,
            &self.consts,
            &self.bulk,
            t,
            self.col_w,
            self.tile_h,
            &cols,
        );
        core.record(&stats, core.fluid_nodes());

        if !self.boundary.is_empty() {
            let bs = 64;
            let stats = gpu.launch(
                &Launch::simple(self.boundary.len().div_ceil(bs), bs),
                &MrBcKernel::<L> {
                    mom: mom_out,
                    geom: &self.geom,
                    tau: self.tau,
                    t_next: t + 1,
                    nodes: &self.boundary,
                    block_size: bs,
                    _l: PhantomData,
                },
            );
            core.record(&stats, self.boundary.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Projective, Recursive};
    use lbm_core::Solver;
    use lbm_lattice::D2Q9;

    fn assert_fields_close(
        a: &[[f64; 3]],
        b: &[[f64; 3]],
        ra: &[f64],
        rb: &[f64],
        tol: f64,
        what: &str,
    ) {
        for (i, (ua, ub)) in a.iter().zip(b).enumerate() {
            for k in 0..3 {
                assert!(
                    (ua[k] - ub[k]).abs() < tol,
                    "{what}: u[{i}][{k}] {} vs {}",
                    ua[k],
                    ub[k]
                );
            }
        }
        for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert!((x - y).abs() < tol, "{what}: rho[{i}] {x} vs {y}");
        }
    }

    /// MR-P must reproduce the reference projective solver on a channel —
    /// the moment representation is lossless.
    #[test]
    fn mr_p_matches_reference_channel() {
        let geom = Geometry::channel_2d_poiseuille(16, 8, 0.05);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(4);
        let mut st: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.8)).with_threads(2);
        mr.run(20);
        st.run(20);
        assert_fields_close(
            &mr.velocity_field(),
            &st.velocity_field(),
            &mr.density_field(),
            &st.density_field(),
            1e-10,
            "MR-P vs REG-P",
        );
    }

    /// MR-R likewise matches the reference recursive solver.
    #[test]
    fn mr_r_matches_reference_channel() {
        let geom = Geometry::channel_2d(16, 8, 0.04);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::recursive::<D2Q9>(),
            0.75,
        )
        .with_cpu_threads(4);
        let mut st: Solver<D2Q9, _> =
            Solver::new(geom, Recursive::new::<D2Q9>(0.75)).with_threads(2);
        mr.run(20);
        st.run(20);
        assert_fields_close(
            &mr.velocity_field(),
            &st.velocity_field(),
            &mr.density_field(),
            &st.density_field(),
            1e-10,
            "MR-R vs REG-R",
        );
    }

    /// Periodic-x channel (no boundary kernel): the two representations
    /// agree to strict roundoff, and the circular shift passes the strict
    /// race checker.
    #[test]
    fn periodic_x_equivalence_with_racecheck() {
        let init = |x: usize, y: usize, _z: usize| {
            (
                1.0,
                [
                    0.03 * (y as f64 * 0.5).sin(),
                    0.01 * (x as f64 * 0.7).cos(),
                    0.0,
                ],
            )
        };
        let geom = Geometry::walls_y_periodic_x(12, 8);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.9,
        )
        .with_cpu_threads(4)
        .with_racecheck_strict();
        mr.init_with(init);
        let mut st: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.9)).with_threads(2);
        st.init_with(init);
        mr.run(15);
        st.run(15);
        assert_fields_close(
            &mr.velocity_field(),
            &st.velocity_field(),
            &mr.density_field(),
            &st.density_field(),
            1e-12,
            "periodic-x",
        );
    }

    /// Measured B/F reproduces Table 2: 2M·8 = 96 for D2Q9 (halo re-reads
    /// are L2 hits, not DRAM).
    #[test]
    fn measured_bpf_matches_table2() {
        let geom = Geometry::walls_y_periodic_x(32, 16);
        let mut mr: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
        mr.run(3);
        let bpf = mr.measured_bpf();
        assert!((bpf - 96.0).abs() < 2.0, "B/F = {bpf}");
    }

    /// The single-lattice footprint beats ST's two lattices by far more
    /// than the paper's 33 % (Algorithm 2 stores M, not 2M, doubles).
    #[test]
    fn footprint_is_single_lattice() {
        let geom = Geometry::walls_y_periodic_x(32, 16);
        let mr: MrSim2D<D2Q9> = MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
        let st_bytes = 2 * 9 * 32 * 16 * 8;
        assert!(mr.footprint_bytes() < st_bytes / 2);
    }

    /// Tile heights > 1 produce identical physics (the sliding window and
    /// shift generalize) and stay race-free.
    #[test]
    fn taller_tiles_match_reference() {
        let geom = Geometry::walls_y_periodic_x(12, 8);
        let init =
            |_x: usize, y: usize, _z: usize| (1.0, [0.02 * (y as f64 * 0.9).sin(), 0.0, 0.0]);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
            4, // col_w
            2, // tile_h
            2, // shift_rows ≥ tile_h − 1
        )
        .with_cpu_threads(4)
        .with_racecheck_strict();
        mr.init_with(init);
        let mut st: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.8)).with_threads(2);
        st.init_with(init);
        mr.run(10);
        st.run(10);
        assert_fields_close(
            &mr.velocity_field(),
            &st.velocity_field(),
            &mr.density_field(),
            &st.density_field(),
            1e-12,
            "tile_h=2",
        );
    }

    /// In-place update (shift 0) is also safe under lockstep with 1-row
    /// tiles — the ablation baseline.
    #[test]
    fn inplace_no_shift_is_lockstep_safe() {
        let geom = Geometry::walls_y_periodic_x(12, 8);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            geom,
            MrScheme::projective(),
            0.8,
            4,
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
        let _ = MrSim2D::<D2Q9>::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
    }

    #[test]
    fn column_width_picker() {
        assert_eq!(pick_column_width(64, 32), 32);
        assert_eq!(pick_column_width(48, 32), 24);
        assert_eq!(pick_column_width(7, 32), 7);
        assert_eq!(pick_column_width(13, 4), 1);
    }

    /// The double-buffered ablation variant produces the identical
    /// trajectory at twice the footprint.
    #[test]
    fn double_buffer_matches_single() {
        let init = |x: usize, y: usize, _z: usize| {
            (
                1.0,
                [
                    0.02 * (y as f64 * 0.7).sin(),
                    0.01 * (x as f64 * 0.5).cos(),
                    0.0,
                ],
            )
        };
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut single: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        single.init_with(init);
        let mut double: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_cpu_threads(2)
                .with_double_buffer();
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
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut mr: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
        mr.init_with(|x, y, _| (1.0 + 0.01 * ((x + y) as f64).sin(), [0.0; 3]));
        let mass = |s: &MrSim2D<D2Q9>| -> f64 { s.density_field().iter().sum() };
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
        let init = |x: usize, y: usize, _z: usize| {
            (
                1.0 + 0.01 * ((x + 2 * y) as f64 * 0.4).sin(),
                [
                    0.02 * (y as f64 * 0.7).sin(),
                    0.01 * (x as f64 * 0.5).cos(),
                    0.0,
                ],
            )
        };
        let run = |scheme: MrScheme, twist: bool, threads: usize| {
            let geom = Geometry::walls_y_periodic_x(48, 8);
            // col_w 8 → 6 column blocks, enough for real work stealing.
            let mut sim: MrSim2D<D2Q9> =
                MrSim2D::with_config(DeviceSpec::v100(), geom, scheme, 0.8, 8, 1, 1)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0); // force pooled dispatch at any size
            if twist {
                sim = sim.with_twist();
            }
            sim.init_with(init);
            sim.run(8);
            (sim.velocity_field(), sim.density_field(), sim.traffic())
        };
        // mr-p, mr-r and mr-t: every variant's tally is thread-count blind.
        for (label, mk, twist) in [
            ("mr-p", MrScheme::projective as fn() -> MrScheme, false),
            ("mr-r", MrScheme::recursive::<D2Q9>, false),
            ("mr-t", MrScheme::projective, true),
        ] {
            let base = run(mk(), twist, 1);
            for threads in [3, 8] {
                let got = run(mk(), twist, threads);
                assert_eq!(
                    base.0, got.0,
                    "{label} velocity diverges at {threads} threads"
                );
                assert_eq!(
                    base.1, got.1,
                    "{label} density diverges at {threads} threads"
                );
                assert_eq!(base.2, got.2, "{label} tally diverges at {threads} threads");
            }
        }
    }

    /// The correctness contract of the twist variant: the parity-indexed
    /// plane storage changes *where* moments live, never their values —
    /// bitwise equal to the circular-shift driver at every step, odd and
    /// even alike, on both device models.
    #[test]
    fn twist_matches_shift_bitwise_every_step() {
        let init = |x: usize, y: usize, _z: usize| {
            (
                1.0 + 0.01 * ((x + 2 * y) as f64 * 0.4).sin(),
                [
                    0.02 * (y as f64 * 0.7).sin(),
                    0.01 * (x as f64 * 0.5).cos(),
                    0.0,
                ],
            )
        };
        for dev in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            let geom = Geometry::walls_y_periodic_x(16, 8);
            let mut twist: MrSim2D<D2Q9> =
                MrSim2D::new(dev.clone(), geom.clone(), MrScheme::projective(), 0.8)
                    .with_cpu_threads(2)
                    .with_twist();
            twist.init_with(init);
            let mut shift: MrSim2D<D2Q9> =
                MrSim2D::new(dev, geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
            shift.init_with(init);
            for step in 1..=7u64 {
                twist.step();
                shift.step();
                assert_eq!(
                    twist.field_checksum(),
                    shift.field_checksum(),
                    "twist diverges at step {step}"
                );
            }
        }
    }

    /// Twist with the recursive scheme and inlet/outlet boundaries (the
    /// boundary kernel routes through the same parity mapping).
    #[test]
    fn twist_matches_reference_channel() {
        let geom = Geometry::channel_2d(16, 8, 0.04);
        let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::recursive::<D2Q9>(),
            0.75,
        )
        .with_cpu_threads(4)
        .with_twist();
        let mut st: Solver<D2Q9, _> =
            Solver::new(geom, Recursive::new::<D2Q9>(0.75)).with_threads(2);
        mr.run(15);
        st.run(15);
        assert_fields_close(
            &mr.velocity_field(),
            &st.velocity_field(),
            &mr.density_field(),
            &st.density_field(),
            1e-10,
            "MR-twist vs REG-R",
        );
    }

    /// Twist residency is exactly `M·8` bytes per node — no padding, no
    /// second buffer; the strict race checker proves the reversed-plane
    /// in-place update safe under forced pooling.
    #[test]
    fn twist_footprint_exact_and_racecheck_clean() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut mr: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8)
                .with_twist()
                .with_racecheck_strict()
                .with_cpu_threads(3)
                .with_parallel_threshold(0);
        assert_eq!(mr.footprint_bytes(), 6 * 16 * 8 * 8);
        mr.init_with(|_, y, _| (1.0, [0.02 * (y as f64).sin(), 0.0, 0.0]));
        mr.run(5);
        assert!(mr.velocity_field().iter().all(|u| u[0].is_finite()));
    }

    /// Twist checkpoints carry the parity in their flavor and round-trip at
    /// odd cut points; a plain-MR snapshot is rejected.
    #[test]
    fn twist_checkpoint_round_trips_at_odd_parity() {
        use lbm_core::io::CheckpointError;
        let init =
            |_x: usize, y: usize, _z: usize| (1.0, [0.02 * (y as f64 * 0.9).sin(), 0.0, 0.0]);
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut a: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2)
        .with_twist();
        a.init_with(init);
        a.run(3);
        let blob = a.checkpoint();
        a.run(5);

        let mut b: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2)
        .with_twist();
        b.restore(&blob).unwrap();
        assert_eq!(b.steps(), 3);
        b.run(5);
        assert_eq!(a.field_checksum(), b.field_checksum());

        // A circular-shift snapshot must not restore into a twist driver.
        let mut plain: MrSim2D<D2Q9> =
            MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
        plain.run(2);
        let mut c: MrSim2D<D2Q9> = MrSim2D::new(
            DeviceSpec::v100(),
            Geometry::walls_y_periodic_x(16, 8),
            MrScheme::projective(),
            0.8,
        )
        .with_twist();
        assert!(matches!(
            c.restore(&plain.checkpoint()),
            Err(CheckpointError::WrongFlavor { .. })
        ));
    }
}

//! The 3D moment-representation kernel — Algorithm 2 in 3D.
//!
//! The x–y plane is decomposed into rectangular column footprints
//! `col_wx × col_wy`; each column spans the full z extent and is assigned
//! one thread block with an `(wx+2)×(wy+2)` halo (Figure 1, right). Tiles
//! are a single lattice layer high — the paper notes (§3.2) that taller 3D
//! tiles "consistently underperform those that are a single lattice point
//! high" — so the sliding shared-memory window holds `3` layers of
//! `wx×wy×Q` populations and the kernel runs one lockstep phase per layer,
//! bottom to top. The global moment lattice is updated in place with a
//! one-layer downward circular shift.

use crate::boundary::boundary_nodes;
use crate::driver::{DriverBody, DriverCore, Fields, Frame, Sim, SoloBody};
use crate::moment_lattice::MomentLattice;
use crate::mr2d::MrBcKernel;
use crate::scheme::MrScheme;
use gpu_sim::exec::{BlockCtx, Launch, LaunchStats, PhasedKernel};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::{self, KernelConsts, LaneBlock, LANES, MAX_M, MAX_Q};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

/// Choose the column footprint that minimizes vectorized collide work.
///
/// Each halo-extended row of `wx + 2` nodes is processed in `LANES`-node
/// chunks (tail lanes replicate, so a partial chunk costs as much as a
/// full one), and a block collides `wy + 2` such rows per layer to own
/// `wx × wy` nodes. The lane-slot redundancy is therefore
/// `ceil((wx+2)/LANES)·LANES·(wy+2) / (wx·wy)`, which this searches over
/// all divisor pairs subject to the device's shared-memory window
/// (`wx·wy·3·Q` doubles) and thread-block capacity (`(wx+2)(wy+2)`).
/// Pass `0` for a coordinate to let it float, or a fixed divisor to pin it.
pub fn pick_column_footprint<L: Lattice>(
    device: &DeviceSpec,
    nx: usize,
    ny: usize,
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
            if wx * wy * 3 * L::Q * 8 > device.shared_mem_per_sm {
                continue;
            }
            if (wx + 2) * (wy + 2) > device.max_threads_per_block {
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

/// Lane-slot redundancy of a `wx × wy` column footprint: vectorized collide
/// slots spent per owned node. This is the cost [`pick_column_footprint`]
/// minimizes; the driver gauges the chosen value into obs so bench records
/// expose when a degenerate domain (e.g. `ny < LANES`) forces a redundant
/// footprint instead of silently eating the slowdown.
pub fn lane_redundancy(wx: usize, wy: usize) -> f64 {
    let chunks = (wx + 2).div_ceil(LANES);
    (chunks * LANES * (wy + 2)) as f64 / (wx * wy) as f64
}

struct Mr3dKernel<'a, L: Lattice> {
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
    /// The full direction set, and the `cy = +1` / `cy = −1` subsets used
    /// by the y-halo rows (the only directions those rows ever store).
    dirs_all: Vec<usize>,
    dirs_up: Vec<usize>,
    dirs_dn: Vec<usize>,
    t: u64,
    wx: usize,
    wy: usize,
    /// Column footprint origins: block `b` processes
    /// `[cols[b].0, cols[b].0 + wx) × [cols[b].1, cols[b].1 + wy)`.
    cols: &'a [(usize, usize)],
    _l: PhantomData<L>,
}

impl<L: Lattice> PhasedKernel for Mr3dKernel<'_, L> {
    fn name(&self) -> &str {
        match self.scheme {
            MrScheme::Projective => "mr3d-p",
            MrScheme::Recursive(_) => "mr3d-r",
        }
    }

    fn phases(&self) -> usize {
        self.geom.nz
    }

    fn run_phase(&self, z: usize, ctx: &mut BlockCtx) {
        let (nx, ny) = (self.geom.nx, self.geom.ny);
        let (wx, wy) = (self.wx, self.wy);
        let (x0, y0) = self.cols[ctx.block_id];
        let periodic_x = self.geom.periodic[0];

        // --- Collide layer z of the column + full rectangular halo,     ---
        // --- stream into the shared window.                             ---
        // Per x row of the halo-extended footprint, maximal segments of
        // consecutive-index fluid nodes stage their `t`-moments through row
        // spans before the per-node collide + scatter; segments break at
        // solids, non-periodic edges, and periodic-x wraps (`idx` jumps).
        for yi in -1..=(wy as i64) {
            let ys = y0 as i64 + yi;
            if ys < 0 || ys >= ny as i64 {
                continue; // wall-terminated y faces
            }
            let y = ys as usize;
            let mut run: Option<(usize, usize, usize)> = None; // (x_first, idx0, len)
            for xi in -1..=(wx as i64 + 1) {
                let node = if xi <= wx as i64 {
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
                            let idx = self.geom.idx(x, y, z);
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
                            // Halo rows can only store into the footprint
                            // through the directions pointing at it.
                            let dirs = if yi < 0 {
                                &self.dirs_up
                            } else if yi >= wy as i64 {
                                &self.dirs_dn
                            } else {
                                &self.dirs_all
                            };
                            self.collide_segment(ctx, y, z, x0, y0, xf, idx0, len, dirs);
                        }
                        *r = node.map(|(x, idx)| (x, idx, 1));
                    }
                }
            }
        }

        // --- Finalize layer z − 1 (complete after this layer streamed). ---
        // New moments of each maximal fluid x-run are staged plane-major in
        // scratch and flushed through row spans.
        if z == 0 {
            return;
        }
        let zf = z - 1;
        for yl in 0..wy {
            let y = y0 + yl;
            let mut xl = 0;
            while xl < wx {
                let idx = self.geom.idx(x0 + xl, y, zf);
                if self.geom.node_at(idx).is_solid() {
                    xl += 1;
                    continue;
                }
                let mut len = 1;
                while xl + len < wx && !self.geom.node_at(idx + len).is_solid() {
                    len += 1;
                }
                if self.consts.scalar {
                    let mut f_loc = [0.0f64; MAX_Q];
                    let mut flat = [0.0f64; MAX_M];
                    for j in 0..len {
                        {
                            let shm = ctx.shared();
                            for (i, f) in f_loc[..L::Q].iter_mut().enumerate() {
                                *f = shm[(((xl + j) * wy + yl) * 3 + zf % 3) * L::Q + i];
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
                            let shm = ctx.shared();
                            for l in 0..LANES {
                                let j = j0 + if l < cnt { l } else { cnt - 1 };
                                let base = (((xl + j) * wy + yl) * 3 + zf % 3) * L::Q;
                                // A node's Q slots are contiguous; the
                                // fixed-length reslice lets the compiler
                                // drop the per-direction bounds checks.
                                let src = &shm[base..base + L::Q];
                                for (i, &v) in src.iter().enumerate() {
                                    fl[i][l] = v;
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

impl<L: Lattice> Mr3dKernel<'_, L> {
    /// Collide + scatter one maximal segment of consecutive-index fluid
    /// nodes of the x row at `(y, z)`: the segment's `t`-moments are staged
    /// through row spans, then each node is collided and streamed into the
    /// block's shared window exactly as the element-wise path did.
    #[allow(clippy::too_many_arguments)]
    fn collide_segment(
        &self,
        ctx: &mut BlockCtx,
        y: usize,
        z: usize,
        x0: usize,
        y0: usize,
        x_first: usize,
        idx0: usize,
        len: usize,
        dirs: &[usize],
    ) {
        self.mom_in.read_row_to_scratch(ctx, self.t, idx0, len, 0);
        let mut f_star = [0.0f64; MAX_Q];
        if self.consts.scalar {
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
                self.scatter_node(ctx, y, z, x0, y0, x_first + j, &f_star, &self.dirs_all);
            }
        } else {
            // Chunked unpack + collide + reconstruct straight off the SoA
            // scratch rows (no strided per-node gather). Interior nodes
            // take the branchless fast scatter: their Q destination slots
            // are base(x) + off[i] with off[] constant along the segment,
            // so the per-direction geometry lookups, bounds checks, and
            // modulo all hoist out of the store loop. Slow lanes (halo
            // rows, column edges, boundary-adjacent nodes) fall back to
            // the reference scatter, which writes the same slots.
            let (wx, wy) = (self.wx, self.wy);
            let row = 3 * L::Q; // shared doubles per (x, y) cell
            let yl = y as i64 - y0 as i64;
            // Masked fast-scatter tables. A bulk node has every neighbor
            // in-domain and fluid (and sits away from the periodic x
            // faces), so `scatter_node` reduces to "store f*[i] at
            // base(x) + off[i] iff the destination lies inside the shared
            // window". Window membership per direction depends only on
            // the segment's row (y + cy in the owned rows) and the lane's
            // x-category: left halo / left edge / interior / right edge /
            // right halo. Precompute one (dir, offset) list per category;
            // lanes then take branchless masked stores, with a single
            // range assert standing in for the per-store bounds checks.
            const XCATS: usize = 5;
            let mut tab = [[(0usize, 0i64); MAX_Q]; XCATS];
            let mut tlen = [0usize; XCATS];
            let mut tmin = [i64::MAX; XCATS];
            let mut tmax = [i64::MIN; XCATS];
            if wx >= 3 {
                for &i in dirs {
                    let c = L::C[i];
                    let (cx, cy) = (c[0] as i64, c[1] as i64);
                    let ydl = yl + cy;
                    if ydl < 0 || ydl >= wy as i64 {
                        continue; // dest row outside the window: dropped
                    }
                    let off = cx * (wy * row) as i64
                        + ydl * row as i64
                        + (z as i64 + c[2] as i64).rem_euclid(3) * L::Q as i64
                        + i as i64;
                    let ok = [cx == 1, cx >= 0, true, cx <= 0, cx == -1];
                    for (cat, &k) in ok.iter().enumerate() {
                        if k {
                            tab[cat][tlen[cat]] = (i, off);
                            tlen[cat] += 1;
                            tmin[cat] = tmin[cat].min(off);
                            tmax[cat] = tmax[cat].max(off);
                        }
                    }
                }
            }
            let mut fs: [[f64; LANES]; MAX_Q] = [[0.0f64; LANES]; MAX_Q];
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
                            dirs,
                            &mut fs,
                        ),
                        MrScheme::Recursive(basis) => kernels::mr_r_collide_chunk::<L>(
                            scratch,
                            len,
                            j0,
                            self.consts.omega,
                            basis,
                            dirs,
                            &mut fs,
                        ),
                    }
                }
                let cnt = LANES.min(len - j0);
                for l in 0..cnt {
                    let x = x_first + j0 + l;
                    let xl = x as i64 - x0 as i64;
                    if wx >= 3 && (-1..=wx as i64).contains(&xl) && self.bulk[idx0 + j0 + l] {
                        let cat = match xl {
                            -1 => 0,
                            0 => 1,
                            v if v == wx as i64 - 1 => 3,
                            v if v == wx as i64 => 4,
                            _ => 2,
                        };
                        let n = tlen[cat];
                        if n > 0 {
                            let base = xl * (wy * row) as i64;
                            let shm = ctx.shared();
                            // One range check covers the whole masked
                            // list: every offset lies in [tmin, tmax].
                            assert!(
                                base + tmin[cat] >= 0 && ((base + tmax[cat]) as usize) < shm.len(),
                                "fast scatter out of the shared window"
                            );
                            for &(i, o) in &tab[cat][..n] {
                                // Safety: tmin ≤ o ≤ tmax, so base + o is
                                // within the range asserted above.
                                unsafe {
                                    *shm.get_unchecked_mut((base + o) as usize) = fs[i][l];
                                }
                            }
                        }
                    } else {
                        for &i in dirs {
                            f_star[i] = fs[i][l];
                        }
                        self.scatter_node(ctx, y, z, x0, y0, x, &f_star, dirs);
                    }
                }
                j0 += LANES;
            }
        }
    }

    /// Stream one collided node into the block's shared window (the
    /// per-direction scatter of the original element-wise path, verbatim;
    /// shared slot: ((xl·wy + yl)·3 + z mod 3)·Q + dir).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn scatter_node(
        &self,
        ctx: &mut BlockCtx,
        y: usize,
        z: usize,
        x0: usize,
        y0: usize,
        x: usize,
        f_star: &[f64; MAX_Q],
        dirs: &[usize],
    ) {
        let (nx, ny, nz) = (self.geom.nx, self.geom.ny, self.geom.nz);
        let (wx, wy) = (self.wx, self.wy);
        let periodic_x = self.geom.periodic[0];
        let sh =
            |xl: usize, yl: usize, zz: usize, i: usize| ((xl * wy + yl) * 3 + zz % 3) * L::Q + i;
        let ys = y as i64;
        let xs = x as i64;
        let src_in_col = x >= x0 && x < x0 + wx && y >= y0 && y < y0 + wy;
        for &i in dirs {
            let c = L::C[i];
            let mut xd = xs + c[0] as i64;
            let yd = ys + c[1] as i64;
            let zd = z as i64 + c[2] as i64;
            if xd < 0 || xd >= nx as i64 {
                if periodic_x {
                    xd = xd.rem_euclid(nx as i64);
                } else {
                    continue; // leaves through an x face (BC kernel)
                }
            }
            if yd < 0 || yd >= ny as i64 || zd < 0 || zd >= nz as i64 {
                continue; // beyond wall-terminated faces
            }
            let (xd, yd, zd) = (xd as usize, yd as usize, zd as usize);
            let dest = self.geom.node(xd, yd, zd);
            if dest.is_solid() {
                if src_in_col {
                    let gain = match dest {
                        NodeType::MovingWall(uw) => self.consts.gains.gain(L::OPP[i], uw),
                        _ => 0.0,
                    };
                    let slot = sh(x - x0, y - y0, z, L::OPP[i]);
                    ctx.shared()[slot] = f_star[i] + gain;
                }
                continue;
            }
            if xd >= x0 && xd < x0 + wx && yd >= y0 && yd < y0 + wy {
                let slot = sh(xd - x0, yd - y0, zd, i);
                ctx.shared()[slot] = f_star[i];
            }
        }
    }
}

/// Launch the 3D MR column kernel over an explicit set of footprint
/// origins. Reads moments at time `t` from `mom_in` and writes `t + 1` into
/// `mom_out` — the multi-device drivers pass two distinct (shift-0)
/// lattices, since splitting one step across sequential launches would
/// break the in-place circular shift's read-before-clobber ordering.
/// Per-node arithmetic is identical to `MrSim3D::step`, so column subsets
/// compose bitwise.
#[allow(clippy::too_many_arguments)]
pub fn launch_mr3d_columns<L: Lattice>(
    gpu: &Gpu,
    mom_in: &MomentLattice,
    mom_out: &MomentLattice,
    geom: &Geometry,
    scheme: &MrScheme,
    consts: &KernelConsts,
    bulk: &[bool],
    t: u64,
    wx: usize,
    wy: usize,
    cols: &[(usize, usize)],
) -> LaunchStats {
    assert!(!cols.is_empty(), "no columns to launch");
    assert_eq!(bulk.len(), geom.len(), "bulk mask must cover the domain");
    for &(x0, y0) in cols {
        assert!(
            x0 + wx <= geom.nx && y0 + wy <= geom.ny,
            "column ({x0}, {y0}) overruns the domain"
        );
    }
    gpu.launch_lockstep(
        &Launch {
            blocks: cols.len(),
            threads_per_block: (wx + 2) * (wy + 2),
            shared_doubles: wx * wy * 3 * L::Q,
            // Row-span staging: one segment of up to wx + 2 nodes (the
            // collide loop's halo-extended x row), M planes.
            scratch_doubles: L::M * (wx + 2),
        },
        &Mr3dKernel::<L> {
            mom_in,
            mom_out,
            geom,
            scheme,
            consts,
            bulk,
            dirs_all: kernels::dirs_all::<L>(),
            dirs_up: kernels::dirs_with_cy::<L>(1),
            dirs_dn: kernels::dirs_with_cy::<L>(-1),
            t,
            wx,
            wy,
            cols,
            _l: PhantomData,
        },
    )
}

/// The 3D moment representation's state: one moment lattice shifted by a
/// layer per step (or the parity-twist storage variant).
pub struct Mr3d<L: Lattice> {
    geom: Geometry,
    mom: MomentLattice,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    bulk: Vec<bool>,
    wx: usize,
    wy: usize,
    boundary: Vec<(usize, usize, usize)>,
    _l: PhantomData<L>,
}

/// Driver for a 3D moment-representation simulation (MR-P or MR-R).
pub type MrSim3D<L> = Sim<Mr3d<L>>;

impl<L: Lattice> MrSim3D<L> {
    /// Build a 3D MR simulation over a duct-type geometry: walls on the
    /// y and z extreme faces are mandatory; x faces periodic or
    /// inlet/outlet. Column footprint is chosen automatically.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64) -> Self {
        Self::with_config(device, geom, scheme, tau, 0, 0)
    }

    /// Explicit column footprint (`0` = auto).
    pub fn with_config(
        device: DeviceSpec,
        geom: Geometry,
        scheme: MrScheme,
        tau: f64,
        col_wx: usize,
        col_wy: usize,
    ) -> Self {
        assert!(geom.nz > 1, "MrSim3D requires a 3D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(
            !geom.periodic[1] && !geom.periodic[2],
            "MR requires wall-terminated y and z faces"
        );
        for y in 0..geom.ny {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, y, 0).is_solid() && geom.node(x, y, geom.nz - 1).is_solid(),
                    "MR requires walls at z = 0 and z = nz−1"
                );
            }
        }
        for z in 0..geom.nz {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, 0, z).is_solid() && geom.node(x, geom.ny - 1, z).is_solid(),
                    "MR requires walls at y = 0 and y = ny−1"
                );
            }
        }
        let (wx, wy) = pick_column_footprint::<L>(&device, geom.nx, geom.ny, col_wx, col_wy);
        assert!(
            geom.nx.is_multiple_of(wx) && geom.ny.is_multiple_of(wy),
            "footprint must tile the plane"
        );
        let boundary = boundary_nodes(&geom);
        if !boundary.is_empty() {
            assert!(geom.nx >= 5, "FD boundaries need nx ≥ 5");
        }
        let n = geom.len();
        let layer = geom.nx * geom.ny;
        let mom = MomentLattice::new(n, L::M, layer, 2 * layer).with_touch_tracking();
        let bulk = crate::boundary::bulk_mask::<L>(&geom);
        Sim::from_body(
            Gpu::new(device),
            Mr3d {
                geom,
                mom,
                scheme,
                tau,
                consts: KernelConsts::new::<L>(tau),
                bulk,
                wx,
                wy,
                boundary,
                _l: PhantomData,
            },
        )
    }

    /// Force the scalar (per-node) reference kernels instead of the
    /// chunk-vectorized ones — the equivalence-test oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.body.consts.scalar = true;
        self
    }

    /// Enable strict race checking on the moment lattice (tests).
    pub fn with_racecheck_strict(mut self) -> Self {
        assert_eq!(self.steps(), 0, "attach the race checker before stepping");
        let dummy = MomentLattice::new(1, L::M, 0, 0);
        let old = std::mem::replace(&mut self.body.mom, dummy);
        self.body.mom = old.with_racecheck_strict();
        self
    }

    /// Switch to the single-lattice **moment twist** variant: parity-indexed
    /// plane storage replaces the one-layer circular shift *and* its
    /// two-layer padding — exactly `M·8` resident bytes per node. Safety
    /// rests on the lockstep phase lag alone: every block global-reads layer
    /// `z` when its window reaches it (phase `z − 1`) and global-writes it
    /// two phases later (phase `z + 1`), so under the bulk-synchronous
    /// phases no cell is read after being rewritten, whichever plane the
    /// parity mapping routes the write to; the strict race checker verifies
    /// this in the tests. Must be called before the first step.
    pub fn with_twist(mut self) -> Self {
        assert_eq!(self.steps(), 0, "switch storage before stepping");
        let n = self.body.geom.len();
        self.body.mom = MomentLattice::new(n, L::M, 0, 0)
            .with_parity_twist()
            .with_touch_tracking();
        self.init_with(|_, _, _| (1.0, [0.0; 3]));
        self
    }

    /// Moments of a node at the current time.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        let b = &self.body;
        b.mom.get_moments::<L>(self.steps(), b.geom.idx(x, y, z))
    }
}

impl<L: Lattice> Mr3d<L> {
    /// Whether this driver runs the parity-twist storage variant.
    pub fn is_twist(&self) -> bool {
        self.mom.parity_twist()
    }

    /// Column footprint `(wx, wy)`.
    pub fn config(&self) -> (usize, usize) {
        (self.wx, self.wy)
    }
}

impl<L: Lattice> DriverBody for Mr3d<L> {
    fn label(&self) -> &'static str {
        if self.mom.parity_twist() {
            "mr3d-twist"
        } else {
            "mr3d"
        }
    }

    fn geom(&self) -> &Geometry {
        &self.geom
    }

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
        let mut rho_out = vec![0.0; n];
        let mut u_out = vec![[0.0; 3]; n];
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                let m = self.mom.get_moments::<L>(t, idx);
                rho_out[idx] = m.rho;
                u_out[idx] = m.u;
            }
        }
        (rho_out, u_out)
    }

    fn footprint_bytes(&self) -> usize {
        self.mom.size_bytes()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.mom.set_fault_plan(plan);
    }

    /// Publishes the chosen column footprint's lane redundancy as a gauge,
    /// so bench records expose degenerate-domain fallbacks (e.g.
    /// `ny < LANES`) instead of hiding them in the picker.
    fn hub_attached(&self, obs: &obs::Obs) {
        obs.metrics.gauge_set(
            "mr3d_lane_redundancy",
            &[("pattern", self.label())],
            lane_redundancy(self.wx, self.wy),
        );
    }

    /// Twist runs tag the flavor with the step parity
    /// (`"mr3d-twist+even"` / `"mr3d-twist+odd"`), mirroring
    /// [`MrSim2D`](crate::MrSim2D).
    fn frame(&self) -> Frame {
        Frame {
            flavor: self.label(),
            parity: self.is_twist(),
            guards: vec![
                ("nx", self.geom.nx as u64),
                ("ny", self.geom.ny as u64),
                ("nz", self.geom.nz as u64),
                ("M", L::M as u64),
            ],
        }
    }

    /// Raw, like [`MrSim2D`](crate::MrSim2D)'s.
    fn state_arrays(&self) -> Vec<Vec<f64>> {
        vec![self.mom.host_snapshot()]
    }

    fn state_lens(&self) -> Vec<usize> {
        vec![self.mom.raw_len()]
    }

    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        self.mom.host_restore(&arrays[0]);
    }
}

impl<L: Lattice> SoloBody for Mr3d<L> {
    fn advance(&mut self, gpu: &Gpu, core: &mut DriverCore) {
        let t = core.steps();
        let cols_x = self.geom.nx / self.wx;
        let blocks = cols_x * (self.geom.ny / self.wy);
        let cols: Vec<(usize, usize)> = (0..blocks)
            .map(|b| ((b % cols_x) * self.wx, (b / cols_x) * self.wy))
            .collect();
        let stats = launch_mr3d_columns::<L>(
            gpu,
            &self.mom,
            &self.mom,
            &self.geom,
            &self.scheme,
            &self.consts,
            &self.bulk,
            t,
            self.wx,
            self.wy,
            &cols,
        );
        core.record(&stats, core.fluid_nodes());

        if !self.boundary.is_empty() {
            let bs = 64;
            let stats = gpu.launch(
                &Launch::simple(self.boundary.len().div_ceil(bs), bs),
                &MrBcKernel::<L> {
                    mom: &self.mom,
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
    use lbm_lattice::{D3Q19, D3Q27};

    fn assert_fields_close(a: &[[f64; 3]], b: &[[f64; 3]], tol: f64, what: &str) {
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
    }

    /// MR-P in 3D reproduces the reference projective solver on a duct.
    #[test]
    fn mr_p_matches_reference_duct() {
        let geom = Geometry::channel_3d(12, 8, 8, 0.03);
        let mut mr: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.7,
        )
        .with_cpu_threads(4);
        let mut st: Solver<D3Q19, _> = Solver::new(geom, Projective::new(0.7)).with_threads(2);
        mr.run(12);
        st.run(12);
        assert_fields_close(&mr.velocity_field(), &st.velocity_field(), 1e-10, "3D MR-P");
    }

    /// MR-R in 3D reproduces the reference recursive solver, with the
    /// strict race checker active on a periodic-x duct.
    #[test]
    fn mr_r_matches_reference_with_racecheck() {
        let mut geom = Geometry::new(8, 8, 8, [true, false, false]);
        // Wall off the y and z faces, keep x periodic.
        for z in 0..8 {
            for x in 0..8 {
                geom.set(x, 0, z, NodeType::Wall);
                geom.set(x, 7, z, NodeType::Wall);
            }
        }
        for y in 0..8 {
            for x in 0..8 {
                geom.set(x, y, 0, NodeType::Wall);
                geom.set(x, y, 7, NodeType::Wall);
            }
        }
        let init = |x: usize, y: usize, z: usize| {
            (
                1.0,
                [
                    0.02 * ((y + z) as f64 * 0.6).sin(),
                    0.01 * (x as f64 * 0.8).cos(),
                    0.0,
                ],
            )
        };
        let mut mr: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::mi100(),
            geom.clone(),
            MrScheme::recursive::<D3Q19>(),
            0.8,
        )
        .with_cpu_threads(4)
        .with_racecheck_strict();
        mr.init_with(init);
        let mut st: Solver<D3Q19, _> =
            Solver::new(geom, Recursive::new::<D3Q19>(0.8)).with_threads(2);
        st.init_with(init);
        mr.run(10);
        st.run(10);
        assert_fields_close(&mr.velocity_field(), &st.velocity_field(), 1e-12, "3D MR-R");
    }

    /// Measured B/F reproduces Table 2: 2M·8 = 160 for D3Q19.
    #[test]
    fn measured_bpf_matches_table2() {
        let mut geom = Geometry::new(12, 12, 10, [true, false, false]);
        for z in 0..10 {
            for x in 0..12 {
                geom.set(x, 0, z, NodeType::Wall);
                geom.set(x, 11, z, NodeType::Wall);
            }
        }
        for y in 0..12 {
            for x in 0..12 {
                geom.set(x, y, 0, NodeType::Wall);
                geom.set(x, y, 9, NodeType::Wall);
            }
        }
        let mut mr: MrSim3D<D3Q19> =
            MrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
        mr.run(2);
        let bpf = mr.measured_bpf();
        assert!((bpf - 160.0).abs() < 4.0, "B/F = {bpf}");
    }

    /// The D3Q27 future-work lattice runs through the same kernel.
    #[test]
    fn q27_duct_runs() {
        let geom = Geometry::channel_3d(8, 6, 6, 0.02);
        let mut mr: MrSim3D<D3Q27> = MrSim3D::new(
            DeviceSpec::v100(),
            geom,
            MrScheme::recursive::<D3Q27>(),
            0.8,
        )
        .with_cpu_threads(4);
        mr.run(5);
        let u = mr.velocity_field();
        assert!(u.iter().all(|v| v.iter().all(|c| c.is_finite())));
        // Flow enters: some forward motion near the inlet.
        let g = mr.geom();
        assert!(mr.moments_at(1, 3, 3).u[0].abs() < 1.0);
        let _ = g;
    }

    #[test]
    #[should_panic(expected = "wall-terminated y and z")]
    fn rejects_periodic_lateral_faces() {
        let geom = Geometry::periodic_3d(8, 8, 8);
        let _ = MrSim3D::<D3Q19>::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
    }

    #[test]
    #[should_panic(expected = "walls at z")]
    fn rejects_missing_z_walls() {
        // Non-periodic but all-fluid: the wall check fires.
        let geom = Geometry::new(8, 8, 8, [true, false, false]);
        let _ = MrSim3D::<D3Q19>::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
    }

    /// Executor determinism: identical fields and traffic tally under 1, 3,
    /// and 8 CPU threads — the pool's dynamic block scheduling must be
    /// invisible to both physics and accounting.
    #[test]
    fn executor_determinism_across_thread_counts() {
        let init = |x: usize, y: usize, z: usize| {
            (
                1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
                [
                    0.02 * ((y + z) as f64 * 0.6).sin(),
                    0.01 * (x as f64 * 0.4).cos(),
                    0.01 * ((x + y) as f64 * 0.3).sin(),
                ],
            )
        };
        let run = |scheme: MrScheme, twist: bool, threads: usize| {
            let geom = Geometry::channel_3d(12, 8, 8, 0.03);
            let mut sim: MrSim3D<D3Q19> = MrSim3D::new(DeviceSpec::v100(), geom, scheme, 0.7)
                .with_cpu_threads(threads)
                .with_parallel_threshold(0); // force pooled dispatch at any size
            if twist {
                sim = sim.with_twist();
            }
            sim.init_with(init);
            sim.run(6);
            (sim.velocity_field(), sim.density_field(), sim.traffic())
        };
        // mr-p, mr-r and mr-t: every variant's tally is thread-count blind.
        for (label, mk, twist) in [
            ("mr-p", MrScheme::projective as fn() -> MrScheme, false),
            ("mr-r", MrScheme::recursive::<D3Q19>, false),
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

    /// A walled duct with periodic x — the twist test domain.
    fn walled_duct(nx: usize, ny: usize, nz: usize) -> Geometry {
        let mut geom = Geometry::new(nx, ny, nz, [true, false, false]);
        for z in 0..nz {
            for x in 0..nx {
                geom.set(x, 0, z, NodeType::Wall);
                geom.set(x, ny - 1, z, NodeType::Wall);
            }
        }
        for y in 0..ny {
            for x in 0..nx {
                geom.set(x, y, 0, NodeType::Wall);
                geom.set(x, y, nz - 1, NodeType::Wall);
            }
        }
        geom
    }

    /// The 3D twist contract: bitwise equal to the circular-shift driver at
    /// every step on both devices, with the strict race checker proving the
    /// reversed-plane in-place update safe under the lockstep phase lag.
    #[test]
    fn twist_matches_shift_bitwise_every_step() {
        let init = |x: usize, y: usize, z: usize| {
            (
                1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
                [
                    0.02 * ((y + z) as f64 * 0.6).sin(),
                    0.01 * (x as f64 * 0.4).cos(),
                    0.01 * ((x + y) as f64 * 0.3).sin(),
                ],
            )
        };
        for dev in [DeviceSpec::v100(), DeviceSpec::mi100()] {
            let geom = walled_duct(8, 8, 8);
            let mut twist: MrSim3D<D3Q19> =
                MrSim3D::new(dev.clone(), geom.clone(), MrScheme::projective(), 0.8)
                    .with_twist()
                    .with_racecheck_strict()
                    .with_cpu_threads(3)
                    .with_parallel_threshold(0);
            twist.init_with(init);
            let mut shift: MrSim3D<D3Q19> =
                MrSim3D::new(dev, geom, MrScheme::projective(), 0.8).with_cpu_threads(2);
            shift.init_with(init);
            for step in 1..=5u64 {
                twist.step();
                shift.step();
                assert_eq!(
                    twist.field_checksum(),
                    shift.field_checksum(),
                    "3D twist diverges at step {step}"
                );
            }
        }
    }

    /// 3D twist residency is exactly `M·8` bytes per node — the circular
    /// shift's two-layer padding is gone too.
    #[test]
    fn twist_footprint_exact() {
        let geom = walled_duct(8, 8, 8);
        let twist: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_twist();
        assert_eq!(twist.footprint_bytes(), 10 * 8 * 8 * 8 * 8);
        let shift: MrSim3D<D3Q19> =
            MrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8);
        assert!(twist.footprint_bytes() < shift.footprint_bytes());
    }

    /// 3D twist checkpoints round-trip at odd parity with the parity-tagged
    /// flavor.
    #[test]
    fn twist_checkpoint_round_trips_at_odd_parity() {
        let init =
            |_x: usize, y: usize, z: usize| (1.0, [0.02 * ((y + z) as f64 * 0.7).sin(), 0.0, 0.0]);
        let mk = || {
            let mut s: MrSim3D<D3Q19> = MrSim3D::new(
                DeviceSpec::v100(),
                walled_duct(8, 6, 6),
                MrScheme::projective(),
                0.8,
            )
            .with_cpu_threads(2)
            .with_twist();
            s.init_with(init);
            s
        };
        let mut a = mk();
        a.run(3);
        let blob = a.checkpoint();
        a.run(3);
        let mut b = mk();
        b.restore(&blob).unwrap();
        assert_eq!(b.steps(), 3);
        b.run(3);
        assert_eq!(a.field_checksum(), b.field_checksum());
    }

    /// The footprint picker's degenerate-domain fallback (`ny < LANES`)
    /// must still return a valid tiling, and its redundancy is the
    /// documented lane cost — the value the driver gauges into obs.
    #[test]
    fn pick_column_footprint_degenerate_ny_regression() {
        // ny = 4 < LANES = 8: every candidate wy ∈ {1, 2, 4} wastes tail
        // lanes; the picker must still return divisors and the redundancy
        // formula must expose the waste rather than hide it.
        let (wx, wy) = pick_column_footprint::<D3Q19>(&DeviceSpec::v100(), 16, 4, 0, 0);
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
                if cand_wx * cand_wy * 3 * 19 * 8 > DeviceSpec::v100().shared_mem_per_sm
                    || (cand_wx + 2) * (cand_wy + 2) > DeviceSpec::v100().max_threads_per_block
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
        let mut mr: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            walled_duct(16, 4, 6),
            MrScheme::projective(),
            0.8,
        );
        mr.set_obs(obs.clone());
        let g = obs
            .metrics
            .gauge("mr3d_lane_redundancy", &[("pattern", "mr3d")])
            .expect("redundancy gauge missing");
        let (wx, wy) = mr.config();
        assert_eq!(g, lane_redundancy(wx, wy));
    }
}

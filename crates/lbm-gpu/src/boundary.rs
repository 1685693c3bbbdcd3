//! Finite-difference inlet/outlet kernels for both representations.
//!
//! The FD condition (lbm-core's `boundary_node_moments`) queries macroscopic
//! values at a small stencil of interior nodes. Inside a kernel those
//! queries must go through counted reads, so the kernels pre-read the
//! stencil into a [`MacroCache`] and hand the boundary routine a lookup
//! closure.

use gpu_sim::exec::BlockCtx;
use lbm_core::boundary::boundary_node_moments;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_lattice::moments::Moments;

/// A coordinate and its macroscopic state.
type MacroEntry = ((usize, usize, usize), (f64, [f64; 3]));

/// Small coordinate-keyed cache of `(ρ, u)` values pre-read by a kernel.
#[derive(Clone, Debug, Default)]
pub struct MacroCache {
    items: Vec<MacroEntry>,
}

impl MacroCache {
    /// Empty cache with room for a boundary stencil.
    pub fn new() -> Self {
        MacroCache {
            items: Vec::with_capacity(8),
        }
    }

    /// Record the macro state at a coordinate (duplicates are fine; first
    /// match wins).
    pub fn insert(&mut self, xyz: (usize, usize, usize), rho: f64, u: [f64; 3]) {
        self.items.push((xyz, (rho, u)));
    }

    /// Look up a pre-read value; panics if the stencil enumeration missed a
    /// coordinate (a bug in [`stencil_coords`]).
    pub fn lookup(&self, x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        for (k, v) in &self.items {
            if *k == (x, y, z) {
                return *v;
            }
        }
        panic!("macro stencil missing ({x},{y},{z})");
    }
}

/// Enumerate every interior coordinate the FD boundary condition may query
/// for the boundary node at `(x, y, z)`: the two nodes along the inward
/// normal, plus — for each tangential neighbor that is itself an outlet —
/// that neighbor's first interior node (its extrapolation source).
pub fn stencil_coords(geom: &Geometry, x: usize, y: usize, z: usize) -> Vec<(usize, usize, usize)> {
    let s: i64 = if x == 0 { 1 } else { -1 };
    let x1 = (x as i64 + s) as usize;
    let x2 = (x as i64 + 2 * s) as usize;
    let mut out = vec![(x1, y, z), (x2, y, z)];
    let mut tangent = |tx: usize, ty: usize, tz: usize| {
        if matches!(geom.node(tx, ty, tz), NodeType::Outlet(_)) {
            out.push((x1, ty, tz));
        }
    };
    if y + 1 < geom.ny {
        tangent(x, y + 1, z);
    }
    if y > 0 {
        tangent(x, y - 1, z);
    }
    if geom.nz > 1 {
        if z + 1 < geom.nz {
            tangent(x, y, z + 1);
        }
        if z > 0 {
            tangent(x, y, z - 1);
        }
    }
    out
}

/// The inlet/outlet update of block `ctx.block_id` over `nodes`, one node
/// per thread of `block_size` — the loop `st-bc` and `mr-bc` share. Per
/// node: pre-read its [`stencil_coords`] through `read_macro` (given a
/// domain index) into a [`MacroCache`], apply the FD condition, and hand
/// the node's new moments to `store` with its domain index.
pub fn update_bc_block<L: lbm_lattice::Lattice>(
    ctx: &mut BlockCtx,
    geom: &Geometry,
    tau: f64,
    nodes: &[(usize, usize, usize)],
    block_size: usize,
    read_macro: impl Fn(&mut BlockCtx, usize) -> (f64, [f64; 3]),
    store: impl Fn(&mut BlockCtx, usize, &Moments),
) {
    for &(x, y, z) in nodes
        .iter()
        .skip(ctx.block_id * block_size)
        .take(block_size)
    {
        let mut cache = MacroCache::new();
        for (sx, sy, sz) in stencil_coords(geom, x, y, z) {
            let (rho, u) = read_macro(ctx, geom.idx(sx, sy, sz));
            cache.insert((sx, sy, sz), rho, u);
        }
        let m =
            boundary_node_moments::<L>(geom, x, y, z, tau, &|qx, qy, qz| cache.lookup(qx, qy, qz));
        store(ctx, geom.idx(x, y, z), &m);
    }
}

/// [`walk_classes`] byte of a fluid node beside a moving wall.
pub const REFERENCE: u8 = 0;
/// [`walk_classes`] byte of a solid node (wall or moving wall).
pub const SOLID: u8 = 1;
/// [`walk_classes`] byte of a fluid node with no solid neighbor.
pub const BULK: u8 = 2;
/// [`walk_classes`] byte of a fluid node beside resting walls only.
pub const BOUNCE: u8 = 3;

/// Classify every node of an MR domain for the column walk, one byte each —
/// [`SOLID`], [`BULK`], [`BOUNCE`] or [`REFERENCE`] — and give it a bounce
/// mask: bit `i` is set iff neighbor `i` (x wrapped when periodic) is a
/// resting wall. Run scanning reads the bytes, not the 32-byte [`NodeType`]s.
///
/// A bulk or bounce lane streams every direction as a plain store at
/// `x + c_x`; a reference lane's bounce-back needs the wall's velocity, so
/// it keeps the node-at-a-time scatter. A neighbor past a non-periodic x
/// face is no wall: what crosses it belongs to the inlet/outlet kernel. The
/// y and z faces are walls, so a fluid node's neighbors cross only x faces.
///
/// Row by row and direction by direction: the kinds are read once into
/// bytes, and direction `i` of a row reads the neighbor row (`y + c_y`,
/// `z + c_z`) shifted by `c_x` as one contiguous stretch — a loop over x
/// with no per-node coordinates or neighbor lookups — plus the few nodes
/// whose `x + c_x` crosses an x face.
pub fn walk_classes<L: lbm_lattice::Lattice>(geom: &Geometry) -> (Vec<u8>, Vec<u32>) {
    const { assert!(L::Q <= 32, "bounce masks are u32") };
    // Node kinds: 0 fluid-like, 1 resting wall, 2 moving wall.
    let kind = |n: &NodeType| match n {
        NodeType::Wall => 1u8,
        NodeType::MovingWall(_) => 2,
        _ => 0,
    };
    let kinds: Vec<u8> = geom.nodes().iter().map(kind).collect();
    let dims = [geom.nx, geom.ny, geom.nz];
    // Coordinate `v + c` along axis `a`, wrapped when periodic.
    let step = |a: usize, v: usize, c: i32| {
        let (p, n) = (v as i64 + c as i64, dims[a] as i64);
        match (0..n).contains(&p) {
            true => Some(p as usize),
            false => geom.periodic[a].then(|| p.rem_euclid(n) as usize),
        }
    };
    let nx = geom.nx;
    let mut class = vec![SOLID; geom.len()];
    let mut bounce = vec![0u32; geom.len()];
    let mut moving = vec![false; nx];
    for (r, row) in kinds.chunks_exact(nx).enumerate() {
        let (y, z) = (r % geom.ny, r / geom.ny);
        let mask = &mut bounce[r * nx..][..nx];
        moving.fill(false);
        for (i, c) in L::C.iter().enumerate() {
            let (Some(ny), Some(nz)) = (step(1, y, c[1]), step(2, z, c[2])) else {
                continue;
            };
            let from = &kinds[geom.idx(0, ny, nz)..][..nx];
            let see = |m: &mut u32, mv: &mut bool, k: u8| {
                *m |= u32::from(k == 1) << i;
                *mv |= k == 2;
            };
            // `x + c_x` stays in the row for `x` in `lo..hi`.
            let cx = c[0] as isize;
            let lo = (-cx).clamp(0, nx as isize) as usize;
            let hi = (nx as isize - cx).clamp(lo as isize, nx as isize) as usize;
            let shifted = &from[(lo as isize + cx) as usize..][..hi - lo];
            let inner = mask[lo..hi].iter_mut().zip(&mut moving[lo..hi]);
            inner.zip(shifted).for_each(|((m, mv), &k)| see(m, mv, k));
            for x in (0..lo).chain(hi..nx) {
                if let Some(px) = step(0, x, c[0]) {
                    see(&mut mask[x], &mut moving[x], from[px]);
                }
            }
        }
        let class = &mut class[r * nx..][..nx];
        for x in 0..nx {
            (class[x], mask[x]) = match (row[x], moving[x], mask[x]) {
                (0, true, m) => (REFERENCE, m),
                (0, false, 0) => (BULK, 0),
                (0, false, m) => (BOUNCE, m),
                _ => (SOLID, 0),
            };
        }
    }
    (class, bounce)
}

/// Flat indices of all inlet/outlet nodes of a geometry, with coordinates,
/// in index order. Inlets and outlets sit on the x faces, but any node may
/// be one, so every row is scanned.
pub fn boundary_nodes(geom: &Geometry) -> Vec<(usize, usize, usize)> {
    let is_io = |n: &NodeType| matches!(n, NodeType::Inlet(_) | NodeType::Outlet(_));
    let rows = geom.nodes().chunks_exact(geom.nx).enumerate();
    rows.flat_map(|(r, row)| {
        let (y, z) = (r % geom.ny, r / geom.ny);
        (row.iter().enumerate()).filter_map(move |(x, n)| is_io(n).then_some((x, y, z)))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lookup() {
        let mut c = MacroCache::new();
        c.insert((1, 2, 0), 1.05, [0.1, 0.0, 0.0]);
        c.insert((2, 2, 0), 1.01, [0.2, 0.0, 0.0]);
        assert_eq!(c.lookup(2, 2, 0).0, 1.01);
        assert_eq!(c.lookup(1, 2, 0).1[0], 0.1);
    }

    #[test]
    #[should_panic(expected = "stencil missing")]
    fn cache_miss_panics() {
        let c = MacroCache::new();
        let _ = c.lookup(0, 0, 0);
    }

    #[test]
    fn inlet_stencil_is_two_normals() {
        let g = Geometry::channel_2d(12, 8, 0.05);
        let s = stencil_coords(&g, 0, 3, 0);
        // Inlet tangential neighbors are inlets, not outlets → no extras.
        assert_eq!(s, vec![(1, 3, 0), (2, 3, 0)]);
    }

    #[test]
    fn outlet_stencil_includes_tangential_sources() {
        let g = Geometry::channel_2d(12, 8, 0.05);
        let s = stencil_coords(&g, 11, 3, 0);
        assert!(s.contains(&(10, 3, 0)));
        assert!(s.contains(&(9, 3, 0)));
        // Tangential outlet neighbors at y±1 add their interior sources.
        assert!(s.contains(&(10, 4, 0)));
        assert!(s.contains(&(10, 2, 0)));
    }

    /// The walk classes and bounce masks against a brute-force recount: bit
    /// `i` iff the neighbor in direction `i` (x wrapped when periodic, none
    /// past a non-periodic face) is a resting wall; a node beside a moving
    /// wall keeps the reference class, a bulk node has mask 0, and every
    /// class occurs somewhere in the sweep.
    #[test]
    fn walk_classes_match_brute_force() {
        use lbm_lattice::{Lattice, D2Q9, D3Q19};
        fn check<L: Lattice>(g: &Geometry, seen: &mut [usize; 4]) {
            let (class, bounce) = walk_classes::<L>(g);
            for idx in 0..g.len() {
                let (x, y, z) = g.coords(idx);
                let (mut mask, mut moving) = (0u32, false);
                for (i, c) in L::C.iter().enumerate() {
                    let mut p: [i64; 3] =
                        std::array::from_fn(|a| [x, y, z][a] as i64 + c[a] as i64);
                    if g.periodic[0] {
                        p[0] = p[0].rem_euclid(g.nx as i64);
                    }
                    let dims = [g.nx, g.ny, g.nz].map(|n| n as i64);
                    if (0..3).any(|a| p[a] < 0 || p[a] >= dims[a]) {
                        continue;
                    }
                    match g.node(p[0] as usize, p[1] as usize, p[2] as usize) {
                        NodeType::Wall => mask |= 1 << i,
                        NodeType::MovingWall(_) => moving = true,
                        _ => {}
                    }
                }
                let want = match g.node_at(idx) {
                    n if n.is_solid() => SOLID,
                    _ if moving => REFERENCE,
                    _ if mask == 0 => BULK,
                    _ => BOUNCE,
                };
                assert_eq!(class[idx], want, "class of ({x}, {y}, {z})");
                if want != SOLID {
                    assert_eq!(bounce[idx], mask, "bounce mask of ({x}, {y}, {z})");
                }
                if want == BULK {
                    assert_eq!(bounce[idx], 0);
                }
                seen[want as usize] += 1;
            }
        }
        let mut seen = [0; 4];
        // Rock beside the moving lid, part of the lid at rest.
        let mut cavity = Geometry::cavity_2d(13, 0.1);
        for (x, y) in [(4, 11), (5, 12), (6, 12), (7, 12), (8, 10)] {
            cavity.set(x, y, 0, NodeType::Wall);
        }
        check::<D2Q9>(&cavity, &mut seen);
        // Rock on both periodic x faces: masks see across the wrap.
        let mut periodic = Geometry::walls_y_periodic_x(12, 8);
        periodic.set(0, 3, 0, NodeType::Wall);
        periodic.set(11, 5, 0, NodeType::Wall);
        check::<D2Q9>(&periodic, &mut seen);
        // An obstacle beside the inlet: nothing past the x faces bounces.
        let mut channel = Geometry::channel_2d(12, 8, 0.05);
        channel.set(1, 3, 0, NodeType::Wall);
        check::<D2Q9>(&channel, &mut seen);
        let mut duct = Geometry::channel_3d(8, 6, 6, 0.02);
        duct.set(1, 2, 3, NodeType::Wall);
        check::<D3Q19>(&duct, &mut seen);
        assert!(seen.iter().all(|&n| n > 0), "classes seen: {seen:?}");
    }

    #[test]
    fn boundary_list_covers_both_faces() {
        let g = Geometry::channel_2d(12, 8, 0.05);
        let list = boundary_nodes(&g);
        // 6 interior rows on each face.
        assert_eq!(list.len(), 12);
        assert!(list.iter().all(|&(x, _, _)| x == 0 || x == 11));
    }
}

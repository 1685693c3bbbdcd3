//! Finite-difference inlet/outlet kernels for both representations.
//!
//! The FD condition (lbm-core's `boundary_node_moments`) queries macroscopic
//! values at a small stencil of interior nodes. Inside a kernel those
//! queries must go through counted reads, so the kernels pre-read the
//! stencil into a [`MacroCache`] and hand the boundary routine a lookup
//! closure.

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

/// [`walk_classes`] byte of a solid node (wall or moving wall).
pub const SOLID: u8 = 1;
/// [`walk_classes`] byte of a bulk node.
pub const BULK: u8 = 2;

/// Classify every node for the MR column walk, one byte each: [`SOLID`],
/// [`BULK`], or `0` for any other fluid node. Run scanning reads this mask
/// instead of the 32-byte [`NodeType`]s.
///
/// A bulk node is eligible for the span scatter: fluid, away from the x
/// faces (so no periodic wrap enters the destination arithmetic), and with
/// every streaming neighbor in-domain and non-solid. For such a node the
/// per-direction scatter never bounces, clips against the domain, or wraps
/// — all `Q` destinations are plain stores at `x + c_x`, so a run of bulk
/// nodes streams each direction as one contiguous lane span.
pub fn walk_classes<L: lbm_lattice::Lattice>(geom: &Geometry) -> Vec<u8> {
    let (nx, ny, nz) = (geom.nx, geom.ny, geom.nz);
    let mut class = vec![0u8; geom.len()];
    for (idx, k) in class.iter_mut().enumerate() {
        if geom.node_at(idx).is_solid() {
            *k = SOLID;
            continue;
        }
        let (x, y, z) = geom.coords(idx);
        if x == 0 || x + 1 >= nx {
            continue;
        }
        let bulk = (0..L::Q).all(|i| {
            let c = L::C[i];
            let xd = x as i64 + c[0] as i64;
            let yd = y as i64 + c[1] as i64;
            let zd = z as i64 + c[2] as i64;
            xd >= 0
                && xd < nx as i64
                && yd >= 0
                && yd < ny as i64
                && zd >= 0
                && zd < nz as i64
                && !geom.node(xd as usize, yd as usize, zd as usize).is_solid()
        });
        if bulk {
            *k = BULK;
        }
    }
    class
}

/// Flat indices of all inlet/outlet nodes of a geometry, with coordinates.
pub fn boundary_nodes(geom: &Geometry) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for idx in 0..geom.len() {
        if matches!(geom.node_at(idx), NodeType::Inlet(_) | NodeType::Outlet(_)) {
            out.push(geom.coords(idx));
        }
    }
    out
}

/// The state every pattern starts node `idx` from: `{ρ, u, Π_eq}` of `field`
/// — an equilibrium start — with an inlet at its prescribed velocity and an
/// outlet at its prescribed density.
pub fn initial_moments<L: lbm_lattice::Lattice>(
    geom: &Geometry,
    idx: usize,
    field: &impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
) -> Moments {
    let (x, y, z) = geom.coords(idx);
    let (rho, u) = match geom.node_at(idx) {
        NodeType::Inlet(u_bc) => (field(x, y, z).0, u_bc),
        NodeType::Outlet(rho_bc) => (rho_bc, field(x, y, z).1),
        _ => field(x, y, z),
    };
    Moments {
        rho,
        u,
        pi: Moments::pi_eq(rho, u, L::D),
    }
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

    #[test]
    fn boundary_list_covers_both_faces() {
        let g = Geometry::channel_2d(12, 8, 0.05);
        let list = boundary_nodes(&g);
        // 6 interior rows on each face.
        assert_eq!(list.len(), 12);
        assert!(list.iter().all(|&(x, _, _)| x == 0 || x == 11));
    }
}

//! Domain geometry: node classification and builders for the flows the
//! paper evaluates (rectangular 2D/3D channels) plus the periodic box and
//! lid-driven cavity used by the validation examples.
//!
//! The domain is a dense Cartesian box of `nx × ny × nz` nodes (`nz = 1` in
//! 2D) indexed `idx = z·nx·ny + y·nx + x` — the same linearization as
//! Algorithm 1 of the paper, so flat indices are comparable across the
//! reference and GPU-substrate solvers.

/// Classification of a lattice node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum NodeType {
    /// Bulk fluid updated by the standard collide–stream cycle.
    Fluid,
    /// Solid wall: populations streaming into it are bounced back.
    Wall,
    /// Moving solid wall (lid-driven cavity): bounce-back with momentum
    /// transfer `−2 ω_i ρ (c_i·u_w)/c_s²`.
    MovingWall([f64; 3]),
    /// Velocity inlet: the Latt finite-difference condition prescribes the
    /// stored velocity and reconstructs a regularized distribution.
    Inlet([f64; 3]),
    /// Pressure outlet: density is pinned to the stored value; velocity is
    /// extrapolated from the interior.
    Outlet(f64),
}

impl NodeType {
    /// Whether populations stream *through* this node normally.
    #[inline]
    pub fn is_fluid_like(self) -> bool {
        matches!(
            self,
            NodeType::Fluid | NodeType::Inlet(_) | NodeType::Outlet(_)
        )
    }

    /// Whether this node reflects populations (any kind of wall).
    #[inline]
    pub fn is_solid(self) -> bool {
        matches!(self, NodeType::Wall | NodeType::MovingWall(_))
    }
}

/// A rectangular lattice domain with per-node classification and optional
/// periodicity per axis.
#[derive(Clone, Debug)]
pub struct Geometry {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Periodic wrap per axis. Non-periodic axes must be terminated by
    /// Wall/Inlet/Outlet nodes.
    pub periodic: [bool; 3],
    nodes: Vec<NodeType>,
}

impl Geometry {
    /// An all-fluid box with the given periodicity.
    pub fn new(nx: usize, ny: usize, nz: usize, periodic: [bool; 3]) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        Geometry {
            nx,
            ny,
            nz,
            periodic,
            nodes: vec![NodeType::Fluid; nx * ny * nz],
        }
    }

    /// Fully periodic box (used by the Taylor–Green validation).
    pub fn periodic_2d(nx: usize, ny: usize) -> Self {
        Self::new(nx, ny, 1, [true, true, true])
    }

    /// Fully periodic 3D box.
    pub fn periodic_3d(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(nx, ny, nz, [true, true, true])
    }

    /// The paper's 2D benchmark: a rectangular channel, bounce-back walls at
    /// `y = 0` and `y = ny−1`, velocity inlet at `x = 0`, pressure outlet at
    /// `x = nx−1`.
    pub fn channel_2d(nx: usize, ny: usize, u_inlet: f64) -> Self {
        let mut g = Self::new(nx, ny, 1, [false, false, true]);
        for x in 0..nx {
            g.set(x, 0, 0, NodeType::Wall);
            g.set(x, ny - 1, 0, NodeType::Wall);
        }
        for y in 1..ny - 1 {
            g.set(0, y, 0, NodeType::Inlet([u_inlet, 0.0, 0.0]));
            g.set(nx - 1, y, 0, NodeType::Outlet(1.0));
        }
        g
    }

    /// 2D channel with a parabolic (Poiseuille) inlet profile of peak
    /// velocity `u_max` between the walls.
    pub fn channel_2d_poiseuille(nx: usize, ny: usize, u_max: f64) -> Self {
        let mut g = Self::channel_2d(nx, ny, 0.0);
        for y in 1..ny - 1 {
            let u = crate::analytic::poiseuille_profile(y, ny, u_max);
            g.set(0, y, 0, NodeType::Inlet([u, 0.0, 0.0]));
        }
        g
    }

    /// The paper's 3D benchmark: rectangular duct along `x`, bounce-back on
    /// all four lateral faces (`y`/`z` extremes), inlet/outlet on `x`.
    pub fn channel_3d(nx: usize, ny: usize, nz: usize, u_inlet: f64) -> Self {
        let mut g = Self::new(nx, ny, nz, [false, false, false]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let lateral_wall = y == 0 || y == ny - 1 || z == 0 || z == nz - 1;
                    if lateral_wall {
                        g.set(x, y, z, NodeType::Wall);
                    } else if x == 0 {
                        g.set(x, y, z, NodeType::Inlet([u_inlet, 0.0, 0.0]));
                    } else if x == nx - 1 {
                        g.set(x, y, z, NodeType::Outlet(1.0));
                    }
                }
            }
        }
        g
    }

    /// Bulk-dominated duct: periodic along `x`, bounce-back walls on the
    /// `y` faces and, when `nz > 1`, on the `z` faces too (a 2D duct is
    /// periodic in its one `z` layer). Callers drive the flow.
    pub fn duct(nx: usize, ny: usize, nz: usize) -> Self {
        let mut g = Self::new(nx, ny, nz, [true, false, nz == 1]);
        for z in 0..nz {
            for y in 0..ny {
                if y == 0 || y == ny - 1 || (nz > 1 && (z == 0 || z == nz - 1)) {
                    for x in 0..nx {
                        g.set(x, y, z, NodeType::Wall);
                    }
                }
            }
        }
        g
    }

    /// 2D plane-Poiseuille test rig: the `nz = 1` [`Geometry::duct`].
    pub fn walls_y_periodic_x(nx: usize, ny: usize) -> Self {
        Self::duct(nx, ny, 1)
    }

    /// Carve a solid circular cylinder (2D) or circular column (3D, axis
    /// along z) of radius `r` centered at `(cx, cy)` into the domain —
    /// the classic flow-past-a-cylinder obstacle.
    pub fn with_cylinder(mut self, cx: f64, cy: f64, r: f64) -> Self {
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    let (dx, dy) = (x as f64 - cx, y as f64 - cy);
                    if dx * dx + dy * dy <= r * r {
                        self.set(x, y, z, NodeType::Wall);
                    }
                }
            }
        }
        self
    }

    /// Lid-driven cavity: stationary walls on three sides, a moving lid with
    /// velocity `(u_lid, 0, 0)` at `y = ny−1`.
    pub fn cavity_2d(n: usize, u_lid: f64) -> Self {
        let mut g = Self::new(n, n, 1, [false, false, true]);
        for x in 0..n {
            g.set(x, 0, 0, NodeType::Wall);
            g.set(x, n - 1, 0, NodeType::MovingWall([u_lid, 0.0, 0.0]));
        }
        for y in 1..n - 1 {
            g.set(0, y, 0, NodeType::Wall);
            g.set(n - 1, y, 0, NodeType::Wall);
        }
        g
    }

    /// Total number of nodes (fluid and solid).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the domain has no nodes (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of fluid-like nodes (fluid + inlet + outlet) — the "fluid
    /// lattice points" of the paper's MFLUPS metric.
    pub fn fluid_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_fluid_like()).count()
    }

    /// Flat index of `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Inverse of [`Geometry::idx`].
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// Node classification at `(x, y, z)`.
    #[inline(always)]
    pub fn node(&self, x: usize, y: usize, z: usize) -> NodeType {
        self.nodes[self.idx(x, y, z)]
    }

    /// Node classification at a flat index.
    #[inline(always)]
    pub fn node_at(&self, idx: usize) -> NodeType {
        self.nodes[idx]
    }

    /// The classifications of the `nx` nodes of row `(y, z)`, by `x`.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[NodeType] {
        let i = self.idx(0, y, z);
        &self.nodes[i..i + self.nx]
    }

    /// Mutable [`Geometry::row`].
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [NodeType] {
        let i = self.idx(0, y, z);
        &mut self.nodes[i..i + self.nx]
    }

    /// Every node's classification, by flat index.
    #[inline]
    pub fn nodes(&self) -> &[NodeType] {
        &self.nodes
    }

    /// Set the classification of a node.
    pub fn set(&mut self, x: usize, y: usize, z: usize, t: NodeType) {
        let i = self.idx(x, y, z);
        self.nodes[i] = t;
    }

    /// Neighbor coordinates in direction `c` (a lattice velocity), honoring
    /// periodic wrap. Returns `None` if the neighbor falls outside a
    /// non-periodic axis (possible only for boundary-adjacent reads, which
    /// the solvers treat as bounce-back).
    #[inline(always)]
    pub fn neighbor(
        &self,
        x: usize,
        y: usize,
        z: usize,
        c: [i32; 3],
    ) -> Option<(usize, usize, usize)> {
        let dims = [self.nx as i64, self.ny as i64, self.nz as i64];
        let mut p = [
            x as i64 + c[0] as i64,
            y as i64 + c[1] as i64,
            z as i64 + c[2] as i64,
        ];
        for a in 0..3 {
            if p[a] < 0 || p[a] >= dims[a] {
                if self.periodic[a] {
                    p[a] = p[a].rem_euclid(dims[a]);
                } else {
                    return None;
                }
            }
        }
        Some((p[0] as usize, p[1] as usize, p[2] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_coords_roundtrip() {
        let g = Geometry::new(7, 5, 3, [false; 3]);
        for z in 0..3 {
            for y in 0..5 {
                for x in 0..7 {
                    assert_eq!(g.coords(g.idx(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn channel_2d_classification() {
        let g = Geometry::channel_2d(10, 6, 0.05);
        assert_eq!(g.node(3, 0, 0), NodeType::Wall);
        assert_eq!(g.node(3, 5, 0), NodeType::Wall);
        assert!(matches!(g.node(0, 2, 0), NodeType::Inlet(_)));
        assert!(matches!(g.node(9, 2, 0), NodeType::Outlet(_)));
        assert_eq!(g.node(4, 3, 0), NodeType::Fluid);
        // Corners belong to the walls.
        assert_eq!(g.node(0, 0, 0), NodeType::Wall);
        assert_eq!(g.node(9, 5, 0), NodeType::Wall);
    }

    #[test]
    fn channel_3d_classification() {
        let g = Geometry::channel_3d(8, 6, 5, 0.02);
        assert_eq!(g.node(4, 0, 2), NodeType::Wall);
        assert_eq!(g.node(4, 5, 2), NodeType::Wall);
        assert_eq!(g.node(4, 2, 0), NodeType::Wall);
        assert_eq!(g.node(4, 2, 4), NodeType::Wall);
        assert!(matches!(g.node(0, 2, 2), NodeType::Inlet(_)));
        assert!(matches!(g.node(7, 2, 2), NodeType::Outlet(_)));
        assert_eq!(g.node(3, 2, 2), NodeType::Fluid);
    }

    #[test]
    fn periodic_neighbor_wraps() {
        let g = Geometry::periodic_2d(4, 4);
        assert_eq!(g.neighbor(0, 0, 0, [-1, 0, 0]), Some((3, 0, 0)));
        assert_eq!(g.neighbor(3, 3, 0, [1, 1, 0]), Some((0, 0, 0)));
    }

    #[test]
    fn nonperiodic_neighbor_clips() {
        let g = Geometry::channel_2d(5, 5, 0.0);
        assert_eq!(g.neighbor(0, 2, 0, [-1, 0, 0]), None);
        assert_eq!(g.neighbor(4, 2, 0, [1, 0, 0]), None);
        assert_eq!(g.neighbor(2, 2, 0, [1, 0, 0]), Some((3, 2, 0)));
    }

    #[test]
    fn fluid_count_excludes_walls() {
        let g = Geometry::channel_2d(10, 6, 0.0);
        // 2 wall rows of 10 nodes each.
        assert_eq!(g.fluid_count(), 10 * 6 - 20);
    }

    #[test]
    fn cavity_has_moving_lid() {
        let g = Geometry::cavity_2d(8, 0.1);
        assert!(matches!(g.node(3, 7, 0), NodeType::MovingWall(_)));
        assert_eq!(g.node(0, 3, 0), NodeType::Wall);
        assert_eq!(g.node(3, 3, 0), NodeType::Fluid);
    }

    #[test]
    fn cylinder_carves_solid_disk() {
        let g = Geometry::channel_2d(40, 20, 0.05).with_cylinder(12.0, 10.0, 3.5);
        assert!(g.node(12, 10, 0).is_solid());
        assert!(g.node(12, 13, 0).is_solid());
        assert!(g.node(12, 14, 0) == NodeType::Fluid);
        assert!(g.node(30, 10, 0) == NodeType::Fluid);
        // The obstacle reduces the fluid count by roughly πr².
        let without = Geometry::channel_2d(40, 20, 0.05).fluid_count();
        let with = g.fluid_count();
        let carved = (without - with) as f64;
        assert!((carved - std::f64::consts::PI * 3.5 * 3.5).abs() < 10.0);
    }

    #[test]
    fn poiseuille_inlet_profile_is_parabolic() {
        let g = Geometry::channel_2d_poiseuille(16, 11, 0.1);
        let mid = match g.node(0, 5, 0) {
            NodeType::Inlet(u) => u[0],
            _ => panic!("not an inlet"),
        };
        let near_wall = match g.node(0, 1, 0) {
            NodeType::Inlet(u) => u[0],
            _ => panic!("not an inlet"),
        };
        assert!(mid > near_wall);
        assert!(mid <= 0.1 + 1e-12);
    }
}

//! 1D slab decomposition of a global domain along `x`.
//!
//! Each of `N` shards owns a contiguous span of `x` columns plus a one-node
//! ghost column at every cut (the lattice streaming reach is 1). Ghost
//! columns are *read-only* mirrors of the neighbor's edge column: the
//! drivers never compute them, only overwrite them during the halo
//! exchange. Local geometries copy node classifications from the global
//! domain (with periodic wrap for the ghosts of the outermost shards), so
//! every kernel sees exactly the node types the single-device run sees —
//! which is what makes the sharded update bitwise identical.

use crate::Owned;
use lbm_core::geometry::Geometry;

/// One shard's span of the global domain.
#[derive(Clone, Copy, Debug)]
pub struct Slab {
    /// Global `x` of the first owned column.
    pub x0: usize,
    /// Owned columns.
    pub width: usize,
    /// Whether a ghost column precedes the owned span (a cut or the
    /// periodic wrap lies to the left).
    pub ghost_l: bool,
    /// Whether a ghost column follows the owned span.
    pub ghost_r: bool,
}

impl Slab {
    /// Local domain width: owned columns plus ghosts.
    #[inline]
    pub fn local_nx(&self) -> usize {
        self.width + self.ghost_l as usize + self.ghost_r as usize
    }

    /// Local `x` of the first owned column.
    #[inline]
    pub fn owned_lo(&self) -> usize {
        self.ghost_l as usize
    }

    /// One past the local `x` of the last owned column.
    #[inline]
    pub fn owned_hi(&self) -> usize {
        self.owned_lo() + self.width
    }

    /// The owned span in the local frame, as the shard's body takes it.
    pub fn owned(&self) -> Owned {
        Owned {
            lo: self.owned_lo(),
            hi: self.owned_hi(),
            ghost_l: self.ghost_l,
            ghost_r: self.ghost_r,
        }
    }
}

/// A cut between two adjacent shards (including the periodic wrap cut).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Shard owning the columns left of the cut.
    pub left: usize,
    /// Shard owning the columns right of the cut.
    pub right: usize,
}

/// One direction of a cut's halo exchange: the sender's owned edge column
/// is copied into the receiver's ghost column.
#[derive(Clone, Copy, Debug)]
pub struct HaloTransfer {
    pub from: usize,
    pub to: usize,
    /// Sender-local `x` of the exchanged (owned) column.
    pub src_lx: usize,
    /// Receiver-local `x` of the ghost column being filled.
    pub dst_lx: usize,
}

/// The full decomposition: global geometry, per-shard slabs, and cuts.
pub struct SlabDecomp {
    global: Geometry,
    slabs: Vec<Slab>,
    cuts: Vec<Cut>,
}

impl SlabDecomp {
    /// Split `global` into `n` slabs of near-equal width (the first
    /// `nx mod n` slabs get one extra column).
    pub fn new(global: Geometry, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(global.nx >= n, "fewer columns than shards");
        let wrap = global.periodic[0] && n > 1;
        let (base, extra) = (global.nx / n, global.nx % n);
        let mut slabs = Vec::with_capacity(n);
        let mut x0 = 0;
        for r in 0..n {
            let width = base + (r < extra) as usize;
            slabs.push(Slab {
                x0,
                width,
                ghost_l: r > 0 || wrap,
                ghost_r: r < n - 1 || wrap,
            });
            x0 += width;
        }
        let mut cuts: Vec<Cut> = (0..n - 1)
            .map(|r| Cut {
                left: r,
                right: r + 1,
            })
            .collect();
        if wrap {
            cuts.push(Cut {
                left: n - 1,
                right: 0,
            });
        }
        SlabDecomp {
            global,
            slabs,
            cuts,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slabs.len()
    }

    /// The global geometry.
    pub fn global(&self) -> &Geometry {
        &self.global
    }

    pub fn slab(&self, r: usize) -> &Slab {
        &self.slabs[r]
    }

    pub fn slabs(&self) -> &[Slab] {
        &self.slabs
    }

    /// All cuts, including the periodic wrap cut for `n > 1`.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Global `x` of shard `r`'s local column `lx` (ghosts wrap).
    #[inline]
    pub fn global_x(&self, r: usize, lx: usize) -> usize {
        let s = &self.slabs[r];
        let nx = self.global.nx;
        (s.x0 + nx + lx - s.owned_lo()) % nx
    }

    /// The shard owning global column `gx`.
    pub fn owner_of(&self, gx: usize) -> usize {
        debug_assert!(gx < self.global.nx);
        self.slabs
            .iter()
            .position(|s| gx >= s.x0 && gx < s.x0 + s.width)
            .expect("column outside every slab")
    }

    /// Shard `r`'s local geometry: its owned span plus ghost columns, node
    /// types copied from the global domain. The local `x` axis is periodic
    /// only where no ghost column carries what periodicity (or a neighbor
    /// shard) would have supplied: on the one slab of an unsharded domain.
    pub fn local_geometry(&self, r: usize) -> Geometry {
        let s = &self.slabs[r];
        let (ny, nz) = (self.global.ny, self.global.nz);
        let [px, py, pz] = self.global.periodic;
        let periodic = [px && !s.ghost_l, py, pz];
        let mut g = Geometry::new(s.local_nx(), ny, nz, periodic);
        for lx in 0..s.local_nx() {
            let gx = self.global_x(r, lx);
            for z in 0..nz {
                for y in 0..ny {
                    g.set(lx, y, z, self.global.node(gx, y, z));
                }
            }
        }
        g
    }

    /// What each shard's body is built from, in shard order: its owned span
    /// and its local geometry.
    pub fn boxes(&self) -> impl Iterator<Item = (Owned, Geometry)> + '_ {
        (0..self.num_shards()).map(|r| (self.slabs[r].owned(), self.local_geometry(r)))
    }

    /// The two directed transfers of every cut, in cut order.
    pub fn halo_transfers(&self) -> Vec<HaloTransfer> {
        let mut out = Vec::with_capacity(2 * self.cuts.len());
        for c in &self.cuts {
            let (l, r) = (&self.slabs[c.left], &self.slabs[c.right]);
            // Left shard's rightmost owned column → right shard's left ghost.
            out.push(HaloTransfer {
                from: c.left,
                to: c.right,
                src_lx: l.owned_hi() - 1,
                dst_lx: 0,
            });
            // Right shard's leftmost owned column → left shard's right ghost.
            out.push(HaloTransfer {
                from: c.right,
                to: c.left,
                src_lx: r.owned_lo(),
                dst_lx: l.local_nx() - 1,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_equal_widths_cover_domain() {
        let d = SlabDecomp::new(Geometry::walls_y_periodic_x(13, 6), 4);
        let widths: Vec<usize> = d.slabs().iter().map(|s| s.width).collect();
        assert_eq!(widths, vec![4, 3, 3, 3]);
        assert_eq!(d.slabs().iter().map(|s| s.width).sum::<usize>(), 13);
        for gx in 0..13 {
            let r = d.owner_of(gx);
            let s = d.slab(r);
            assert!(gx >= s.x0 && gx < s.x0 + s.width);
        }
    }

    #[test]
    fn periodic_decomp_has_wrap_cut_and_full_ghosts() {
        let d = SlabDecomp::new(Geometry::walls_y_periodic_x(12, 6), 3);
        assert_eq!(d.cuts().len(), 3);
        assert_eq!(*d.cuts().last().unwrap(), Cut { left: 2, right: 0 });
        for s in d.slabs() {
            assert!(s.ghost_l && s.ghost_r);
            assert_eq!(s.local_nx(), s.width + 2);
        }
        // Shard 0's left ghost wraps to the last global column.
        assert_eq!(d.global_x(0, 0), 11);
        assert_eq!(d.global_x(0, 1), 0);
    }

    #[test]
    fn channel_decomp_has_open_ends() {
        let d = SlabDecomp::new(Geometry::channel_2d(16, 8, 0.04), 4);
        assert_eq!(d.cuts().len(), 3);
        assert!(!d.slab(0).ghost_l && d.slab(0).ghost_r);
        assert!(d.slab(3).ghost_l && !d.slab(3).ghost_r);
        assert!(d.slab(1).ghost_l && d.slab(1).ghost_r);
        // Shard 0's local x equals global x (no left ghost).
        assert_eq!(d.global_x(0, 0), 0);
        assert_eq!(d.global_x(1, 0), 3); // ghost mirrors column 3
    }

    #[test]
    fn local_geometry_copies_node_types() {
        let d = SlabDecomp::new(Geometry::channel_2d(16, 8, 0.04), 4);
        let g0 = d.local_geometry(0);
        assert!(matches!(
            g0.node(0, 3, 0),
            lbm_core::geometry::NodeType::Inlet(_)
        ));
        assert!(!g0.periodic[0]);
        // Walls propagate into every local geometry.
        for r in 0..4 {
            let g = d.local_geometry(r);
            for lx in 0..g.nx {
                assert!(g.node(lx, 0, 0).is_solid());
                assert!(g.node(lx, 7, 0).is_solid());
            }
        }
    }

    #[test]
    fn halo_transfers_pair_up() {
        let d = SlabDecomp::new(Geometry::walls_y_periodic_x(12, 6), 2);
        // n = 2 periodic: two cuts, four transfers, all between 0 and 1.
        let ts = d.halo_transfers();
        assert_eq!(ts.len(), 4);
        assert!(ts.iter().all(|t| t.from != t.to));
    }

    #[test]
    fn single_shard_has_no_cuts() {
        let d = SlabDecomp::new(Geometry::walls_y_periodic_x(8, 4), 1);
        assert!(d.cuts().is_empty());
        assert!(d.halo_transfers().is_empty());
        assert_eq!(d.local_geometry(0).nx, 8);
        assert!(d.local_geometry(0).periodic[0]);
    }
}

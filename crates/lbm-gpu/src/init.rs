//! The state every pattern starts from, written a row at a time.
//!
//! A pattern keeps `P` values per node at time 0 in `P` planes: the `M`
//! packed moments `{ρ, u, Π_eq}` of the node's start, or the `Q`
//! populations its collision operator reconstructs from them. [`init_rows`]
//! walks the storage positions a row (`nx` positions) at a time, fills a
//! plane-major row buffer and hands it to the pattern's `store`, which
//! writes each plane as one span. The values of a node are a function of its
//! start `(ρ, u)` alone, so a node whose start has the bits of the node
//! before reuses that node's values instead of recomputing them: a field
//! that is constant along x — the rest state, a shear layer — costs one
//! evaluation per row. The rows split over the host threads the caller
//! passes (`lbm_core::par::parallel_ranges`); each position is written by
//! exactly one thread with the values any split computes, so the state is
//! the same at every thread count.

use gpu_sim::GlobalBuffer;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::MAX_Q;
use lbm_core::par::parallel_ranges;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;

/// The start of a node of kind `node` where `field` reads `(ρ, u)`: the
/// field's equilibrium, an inlet at its prescribed velocity, an outlet at
/// its prescribed density.
#[inline]
fn start(node: NodeType, (rho, u): (f64, [f64; 3])) -> (f64, [f64; 3]) {
    match node {
        NodeType::Inlet(u_bc) => (rho, u_bc),
        NodeType::Outlet(rho_bc) => (rho_bc, u),
        _ => (rho, u),
    }
}

/// Write the time-0 state of every storage position over `geom` — every
/// node of the box, position = flat index, or with `compact` the fluid
/// nodes of a compaction, position `p` = node `compact[p]`. `values` turns a
/// node's start moments into its `planes` stored values, and `store(p0,
/// rows)` receives the values of positions `p0 .. p0 + len` plane-major
/// (`rows[j·len + k]` is value `j` of position `p0 + k`, `len = rows.len() /
/// planes`). Rows go to `threads` host threads.
pub(crate) fn init_rows<L: Lattice>(
    geom: &Geometry,
    compact: Option<&[usize]>,
    threads: usize,
    field: &(impl Fn(usize, usize, usize) -> (f64, [f64; 3]) + Sync),
    planes: usize,
    values: impl Fn(&Moments, &mut [f64]) + Sync,
    store: impl Fn(usize, &[f64]) + Sync,
) {
    assert!(planes <= MAX_Q, "{planes} values per node exceed MAX_Q");
    let (row, ny) = (geom.nx, geom.ny);
    let n = compact.map_or(geom.len(), <[usize]>::len);
    parallel_ranges(n.div_ceil(row), threads, |rows| {
        let mut buf = vec![0.0; planes * row];
        // The bits of the start `v` holds the values of; none before the
        // first node.
        let (mut key, mut v) = (None::<[u64; 4]>, [0.0f64; MAX_Q]);
        for r in rows {
            let (p0, len) = (r * row, row.min(n - r * row));
            // Positions `run..k` of the row share the values `v`; a run is
            // written as one fill per plane when it ends.
            let mut run = 0;
            let mut fill = |buf: &mut [f64], v: &[f64], to: usize| {
                for (plane, &vj) in buf.chunks_exact_mut(len).zip(v) {
                    plane[run..to].fill(vj);
                }
                run = to;
            };
            for k in 0..len {
                let (node, (x, y, z)) = match compact {
                    None => (geom.node_at(p0 + k), (k, r % ny, r / ny)),
                    Some(ids) => (geom.node_at(ids[p0 + k]), geom.coords(ids[p0 + k])),
                };
                let (rho, u) = start(node, field(x, y, z));
                let bits = [rho, u[0], u[1], u[2]].map(f64::to_bits);
                // Folded, not `!=`: an array comparison is a call per node.
                let same = key.is_some_and(|k| (0..4).fold(0, |d, i| d | (k[i] ^ bits[i])) == 0);
                if !same {
                    fill(&mut buf[..planes * len], &v[..planes], k);
                    let pi = Moments::pi_eq(rho, u, L::D);
                    values(&Moments { rho, u, pi }, &mut v[..planes]);
                    key = Some(bits);
                }
            }
            fill(&mut buf[..planes * len], &v[..planes], len);
            store(p0, &buf[..planes * len]);
        }
    });
}

/// An [`init_rows`] store into the `planes` planes of `buf`: value `j` of
/// position `p` goes to `plane(j)·stride + p`, each row of a plane as one
/// span.
pub(crate) fn plane_store<'a>(
    buf: &'a GlobalBuffer<f64>,
    planes: usize,
    stride: usize,
    plane: impl Fn(usize) -> usize + Sync + 'a,
) -> impl Fn(usize, &[f64]) + Sync + 'a {
    move |p0, rows| {
        let len = rows.len() / planes;
        for j in 0..planes {
            buf.set_span(plane(j) * stride + p0, &rows[j * len..][..len]);
        }
    }
}

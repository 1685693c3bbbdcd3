//! The roofline performance model of paper §4.1, eq. (15):
//! `MFLUPS_max = B_BW / (10⁶ × B/F)`.

use crate::device::DeviceSpec;

/// Bytes per fluid lattice update of the standard (ST) pattern: the full
/// distribution is read and written once, `2·Q` doubles (Table 2).
#[inline]
pub fn bytes_per_flup_st(q: usize) -> f64 {
    (2 * q * 8) as f64
}

/// Bytes per fluid lattice update of the moment representation (MR):
/// `2·M` doubles (Table 2). Identical for MR-P and MR-R — the recursive
/// scheme's extra work is all in-cache.
#[inline]
pub fn bytes_per_flup_mr(m: usize) -> f64 {
    (2 * m * 8) as f64
}

/// Bytes per fluid lattice update of the *sparse* (fluid-compacted,
/// indirect-addressing) ST pattern: the dense `2·Q` doubles plus one `u32`
/// link-table entry per direction — `2·Q·8 + Q·4` (180 for D2Q9, 380 for
/// D3Q19). Indirection costs bandwidth per update but the state is stored
/// per *fluid* node, so the footprint scales with porosity.
#[inline]
pub fn bytes_per_flup_sparse_st(q: usize) -> f64 {
    (2 * q * 8 + q * 4) as f64
}

/// Bytes per fluid lattice update of the sparse moment representation:
/// `2·M` doubles of moments plus the `Q`-entry link table — `2·M·8 + Q·4`
/// (132 for D2Q9, 236 for D3Q19). Still below even *dense* ST (144/304):
/// the moment compression pays for the indirection.
#[inline]
pub fn bytes_per_flup_sparse_mr(m: usize, q: usize) -> f64 {
    (2 * m * 8 + q * 4) as f64
}

/// Eq. (15): peak MFLUPS for a propagation pattern moving `bytes_per_flup`
/// bytes per update on a device with bandwidth `bandwidth_gbps`.
#[inline]
pub fn mflups_max(bandwidth_gbps: f64, bytes_per_flup: f64) -> f64 {
    bandwidth_gbps * 1e9 / (1e6 * bytes_per_flup)
}

/// Eq. (15) for a device spec.
#[inline]
pub fn mflups_max_on(dev: &DeviceSpec, bytes_per_flup: f64) -> f64 {
    mflups_max(dev.bandwidth_gbps, bytes_per_flup)
}

/// Device-memory footprint of a simulation of `fluid_nodes` nodes in the ST
/// pattern: two full distribution lattices, `2·Q` doubles per node.
#[inline]
pub fn footprint_st(fluid_nodes: usize, q: usize) -> usize {
    fluid_nodes * 2 * q * 8
}

/// Device-memory footprint of the *double-buffered* MR variant: two moment
/// lattices, `2·M` doubles per node. This is what the paper's §4.1 capacity
/// figures (1.3 GB / 2.23 GB for 15 M nodes) correspond to.
#[inline]
pub fn footprint_mr_double(fluid_nodes: usize, m: usize) -> usize {
    fluid_nodes * 2 * m * 8
}

/// Device-memory footprint of the single-lattice MR variant of Algorithm 2
/// (in-place update protected by circular array shifting): one moment
/// lattice plus `pad_nodes` of circular-shift padding. Strictly smaller
/// than [`footprint_mr_double`] — the "1 lattice" design of paper §3.2.
#[inline]
pub fn footprint_mr_single(fluid_nodes: usize, m: usize, pad_nodes: usize) -> usize {
    (fluid_nodes + pad_nodes) * m * 8
}

/// Device-memory footprint of the in-place AA-pattern ST variant: exactly
/// one distribution lattice, `Q` doubles per node — half of
/// [`footprint_st`], byte-exact.
#[inline]
pub fn footprint_aa_st(fluid_nodes: usize, q: usize) -> usize {
    fluid_nodes * q * 8
}

/// Device-memory footprint of the parity-twist MR variant: exactly one
/// moment lattice, `M` doubles per node — no second buffer *and* no
/// circular-shift padding, half of [`footprint_mr_double`], byte-exact.
#[inline]
pub fn footprint_mr_twist(fluid_nodes: usize, m: usize) -> usize {
    fluid_nodes * m * 8
}

/// Device-memory footprint of the sparse ST driver: per *fluid* node, two
/// compacted distribution lattices plus the `u32` link table —
/// `fluid · (2·Q·8 + Q·4)` bytes. No bytes for solid nodes.
#[inline]
pub fn footprint_sparse_st(fluid_nodes: usize, q: usize) -> usize {
    fluid_nodes * (2 * q * 8 + q * 4)
}

/// Device-memory footprint of the sparse MR driver: per fluid node, one
/// in-place moment lattice plus the link table — `fluid · (M·8 + Q·4)`
/// bytes. At porosity φ this is `φ · (M·8 + Q·4) / (2·Q·8)` of the dense
/// ST box.
#[inline]
pub fn footprint_sparse_mr(fluid_nodes: usize, m: usize, q: usize) -> usize {
    fluid_nodes * (m * 8 + q * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper.
    #[test]
    fn table2_bytes_per_flup() {
        assert_eq!(bytes_per_flup_st(9), 144.0);
        assert_eq!(bytes_per_flup_st(19), 304.0);
        assert_eq!(bytes_per_flup_mr(6), 96.0);
        assert_eq!(bytes_per_flup_mr(10), 160.0);
    }

    /// Sparse B/F: dense traffic plus the link table; sparse MR stays below
    /// dense ST on both lattices.
    #[test]
    fn sparse_bytes_per_flup() {
        assert_eq!(bytes_per_flup_sparse_st(9), 180.0);
        assert_eq!(bytes_per_flup_sparse_st(19), 380.0);
        assert_eq!(bytes_per_flup_sparse_mr(6, 9), 132.0);
        assert_eq!(bytes_per_flup_sparse_mr(10, 19), 236.0);
        assert!(bytes_per_flup_sparse_mr(6, 9) < bytes_per_flup_st(9));
        assert!(bytes_per_flup_sparse_mr(10, 19) < bytes_per_flup_st(19));
    }

    /// Sparse footprints are linear in the fluid count: at porosity φ the
    /// sparse state is exactly φ × the full-box sparse state.
    #[test]
    fn sparse_footprint_scales_with_fluid_count() {
        let box_nodes = 400_000usize;
        for (phi_num, phi_den) in [(1usize, 4usize), (1, 2), (3, 4)] {
            let fluid = box_nodes * phi_num / phi_den;
            assert_eq!(
                footprint_sparse_st(fluid, 19),
                footprint_sparse_st(box_nodes, 19) * phi_num / phi_den
            );
            assert_eq!(
                footprint_sparse_mr(fluid, 10, 19),
                footprint_sparse_mr(box_nodes, 10, 19) * phi_num / phi_den
            );
        }
        // D2Q9 crossover vs the smallest dense pattern (twist-MR, M·8/node):
        // sparse MR wins when φ·(M·8 + Q·4) < M·8, i.e. φ < 48/84 ≈ 0.57.
        let fluid = box_nodes / 4; // φ = 0.25 — well below the crossover
        assert!(footprint_sparse_mr(fluid, 6, 9) < footprint_mr_twist(box_nodes, 6));
    }

    /// Table 3 of the paper: roofline MFLUPS on both devices.
    #[test]
    fn table3_roofline_mflups() {
        let v100 = DeviceSpec::v100();
        let mi100 = DeviceSpec::mi100();
        assert!((mflups_max_on(&v100, 144.0) - 6250.0).abs() < 1.0);
        assert!((mflups_max_on(&v100, 304.0) - 2960.0).abs() < 1.0);
        assert!((mflups_max_on(&v100, 96.0) - 9375.0).abs() < 1.0);
        assert!((mflups_max_on(&v100, 160.0) - 5625.0).abs() < 1.0);
        assert!((mflups_max_on(&mi100, 144.0) - 8533.0).abs() < 1.0);
        assert!((mflups_max_on(&mi100, 304.0) - 4042.0).abs() < 1.0);
        assert!((mflups_max_on(&mi100, 96.0) - 12800.0).abs() < 10.0);
        assert!((mflups_max_on(&mi100, 160.0) - 7680.0).abs() < 1.0);
    }

    /// §4.1 footprint claim: 15 M fluid points need ~2 GiB (ST) vs ~1.3 GiB
    /// (MR) in 2D and ~4.2 GiB vs ~2.23 GiB in 3D — reductions of ~33–35 %
    /// and ~47 %.
    #[test]
    fn memory_footprint_reductions() {
        const GIB: f64 = (1u64 << 30) as f64;
        let n = 15_000_000;

        let st2 = footprint_st(n, 9) as f64;
        let mr2 = footprint_mr_double(n, 6) as f64;
        assert!((st2 / GIB - 2.01).abs() < 0.01, "{}", st2 / GIB);
        assert!((mr2 / GIB - 1.34).abs() < 0.01, "{}", mr2 / GIB);
        let red2 = 1.0 - mr2 / st2;
        assert!((red2 - 1.0 / 3.0).abs() < 0.01, "2D reduction {red2}");

        let st3 = footprint_st(n, 19) as f64;
        let mr3 = footprint_mr_double(n, 10) as f64;
        assert!((st3 / GIB - 4.25).abs() < 0.01, "{}", st3 / GIB);
        assert!((mr3 / GIB - 2.24).abs() < 0.01, "{}", mr3 / GIB);
        let red3 = 1.0 - mr3 / st3;
        assert!((red3 - 0.4737).abs() < 0.01, "3D reduction {red3}");

        // The single-lattice Algorithm 2 variant is smaller still.
        let single = footprint_mr_single(n, 10, 4096) as f64;
        assert!(single < mr3 / 1.9);
    }
}

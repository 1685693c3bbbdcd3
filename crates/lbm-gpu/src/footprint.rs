//! Device-memory footprint accounting — §4.1 of the paper.
//!
//! The paper quotes, for 15 M fluid points: ST ≈ 2 GiB (D2Q9) / 4.2 GiB
//! (D3Q19) versus MR ≈ 1.3 GiB / 2.23 GiB — reductions of ~35 % and ~47 %.
//! Those MR figures correspond to `2M` doubles per node (a double-buffered
//! moment lattice, matching the B/F of Table 2); the single-lattice variant
//! of Algorithm 2 (what [`crate::MrSim2D`] / [`crate::MrSim3D`] implement)
//! stores only `M` doubles plus circular-shift padding and is smaller
//! still. The harness reports both.

use gpu_sim::roofline::{
    footprint_aa_st, footprint_mr_double, footprint_mr_single, footprint_mr_twist,
    footprint_sparse_mr, footprint_sparse_st, footprint_st,
};

/// One row of the footprint comparison.
#[derive(Clone, Debug)]
pub struct FootprintRow {
    pub lattice: &'static str,
    pub nodes: usize,
    /// ST: two full distribution lattices.
    pub st_bytes: usize,
    /// MR as quoted by the paper (double-buffered, 2M per node).
    pub mr_paper_bytes: usize,
    /// MR as implemented here (single lattice + padding).
    pub mr_single_bytes: usize,
    /// In-place AA-pattern ST: one lattice, `Q·8` per node exactly.
    pub aa_st_bytes: usize,
    /// In-place parity-twist MR: one lattice, `M·8` per node exactly.
    pub mr_twist_bytes: usize,
    /// Porosity assumed for the sparse rows (fluid / box nodes).
    pub porosity: f64,
    /// Sparse (fluid-compacted) ST at `porosity`: `fluid·(2Q·8 + Q·4)`.
    pub sparse_st_bytes: usize,
    /// Sparse in-place MR at `porosity`: `fluid·(M·8 + Q·4)`.
    pub sparse_mr_bytes: usize,
}

impl FootprintRow {
    /// Reduction of the paper-model MR vs ST (the 35 % / 47 % numbers).
    pub fn paper_reduction(&self) -> f64 {
        1.0 - self.mr_paper_bytes as f64 / self.st_bytes as f64
    }

    /// Reduction of the single-lattice MR vs ST.
    pub fn single_reduction(&self) -> f64 {
        1.0 - self.mr_single_bytes as f64 / self.st_bytes as f64
    }

    /// Reduction of the parity-twist MR vs ST — the deepest cut in the
    /// table: `M/2Q` of the ST bytes remain.
    pub fn twist_reduction(&self) -> f64 {
        1.0 - self.mr_twist_bytes as f64 / self.st_bytes as f64
    }
}

/// Build the §4.1 comparison for a node count (sparse rows at porosity 1:
/// every box node fluid, isolating the pure per-node overhead of the link
/// table). Use [`footprint_table_at`] for obstacle/porous domains.
pub fn footprint_table(nodes: usize) -> Vec<FootprintRow> {
    footprint_table_at(nodes, 1.0)
}

/// [`footprint_table`] with the sparse rows evaluated at `porosity` —
/// `fluid = ⌊porosity · nodes⌋` — while the dense rows keep paying for the
/// whole bounding box.
pub fn footprint_table_at(nodes: usize, porosity: f64) -> Vec<FootprintRow> {
    assert!((0.0..=1.0).contains(&porosity), "porosity is a fraction");
    let fluid = (porosity * nodes as f64).floor() as usize;
    let pad2 = 2 * (nodes as f64).sqrt() as usize; // ~two rows of a square domain
    let pad3 = 2 * (nodes as f64).powf(2.0 / 3.0) as usize; // ~two layers
    vec![
        FootprintRow {
            lattice: "D2Q9",
            nodes,
            st_bytes: footprint_st(nodes, 9),
            mr_paper_bytes: footprint_mr_double(nodes, 6),
            mr_single_bytes: footprint_mr_single(nodes, 6, pad2),
            aa_st_bytes: footprint_aa_st(nodes, 9),
            mr_twist_bytes: footprint_mr_twist(nodes, 6),
            porosity,
            sparse_st_bytes: footprint_sparse_st(fluid, 9),
            sparse_mr_bytes: footprint_sparse_mr(fluid, 6, 9),
        },
        FootprintRow {
            lattice: "D3Q19",
            nodes,
            st_bytes: footprint_st(nodes, 19),
            mr_paper_bytes: footprint_mr_double(nodes, 10),
            mr_single_bytes: footprint_mr_single(nodes, 10, pad3),
            aa_st_bytes: footprint_aa_st(nodes, 19),
            mr_twist_bytes: footprint_mr_twist(nodes, 10),
            porosity,
            sparse_st_bytes: footprint_sparse_st(fluid, 19),
            sparse_mr_bytes: footprint_sparse_mr(fluid, 10, 19),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4.1: ~33–35 % (2D) and ~47 % (3D) reductions for the paper-model
    /// MR; the single-lattice variant always does better.
    #[test]
    fn paper_reductions() {
        let rows = footprint_table(15_000_000);
        assert!((rows[0].paper_reduction() - 1.0 / 3.0).abs() < 0.01);
        assert!((rows[1].paper_reduction() - 0.474).abs() < 0.01);
        for r in &rows {
            assert!(r.single_reduction() > r.paper_reduction());
        }
    }

    /// The in-place patterns are exact halvings: AA-ST is `st/2` and
    /// twist-MR is `mr_paper/2`, byte-exact, at any node count.
    #[test]
    fn in_place_rows_are_exact_halvings() {
        for nodes in [100usize, 12_345, 15_000_000] {
            for r in footprint_table(nodes) {
                assert_eq!(2 * r.aa_st_bytes, r.st_bytes);
                assert_eq!(2 * r.mr_twist_bytes, r.mr_paper_bytes);
                assert!(r.mr_twist_bytes < r.mr_single_bytes);
                assert!(r.twist_reduction() > r.single_reduction());
            }
        }
    }

    /// The sparse rows track porosity exactly and the compounded sparse-MR
    /// saving beats every dense pattern once the domain is mostly solid.
    #[test]
    fn sparse_rows_track_porosity() {
        let nodes = 1_000_000;
        let full = footprint_table(nodes);
        for r in footprint_table_at(nodes, 0.25) {
            let full_r = full.iter().find(|f| f.lattice == r.lattice).unwrap();
            // Dense rows ignore porosity entirely; sparse state is linear
            // in fluid count — a quarter the fluid, a quarter the bytes.
            assert_eq!(r.st_bytes, full_r.st_bytes);
            assert_eq!(r.mr_twist_bytes, full_r.mr_twist_bytes);
            assert_eq!(4 * r.sparse_st_bytes, full_r.sparse_st_bytes);
            assert_eq!(4 * r.sparse_mr_bytes, full_r.sparse_mr_bytes);
            // At φ = 0.25 sparse MR undercuts even the twist-MR box.
            assert!(r.sparse_mr_bytes < r.mr_twist_bytes);
        }
    }

    /// GiB magnitudes quoted in the paper.
    #[test]
    fn paper_gib_figures() {
        const GIB: f64 = (1u64 << 30) as f64;
        let rows = footprint_table(15_000_000);
        assert!((rows[0].st_bytes as f64 / GIB - 2.01).abs() < 0.02);
        assert!((rows[0].mr_paper_bytes as f64 / GIB - 1.34).abs() < 0.02);
        assert!((rows[1].st_bytes as f64 / GIB - 4.25).abs() < 0.02);
        assert!((rows[1].mr_paper_bytes as f64 / GIB - 2.24).abs() < 0.02);
    }
}

//! Warp-level coalescing analysis: sectors per request.
//!
//! GPUs service a warp's global-memory request in fixed-size sectors
//! (32 bytes on the architectures considered). A fully coalesced request by
//! a 32-lane warp reading consecutive `f64`s touches 8 sectors and uses
//! every byte; a strided or scattered pattern touches more sectors than it
//! uses bytes. This module quantifies that — the access-pattern half of the
//! nvvp/nsight/rocprof counters the paper cites, whose byte half is the obs
//! hub's per-kernel counters — and backs the SoA-vs-AoS ablation bench.

/// Sector size used by the memory system model.
pub const SECTOR_BYTES: u64 = 32;

/// Number of distinct sectors touched by a set of byte addresses.
pub fn sectors_touched(addresses: &[u64], sector_bytes: u64) -> usize {
    let mut sectors: Vec<u64> = addresses.iter().map(|a| a / sector_bytes).collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors.len()
}

/// Report for one warp-sized request.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PatternReport {
    /// Sectors touched by the request.
    pub sectors: usize,
    /// Minimum sectors required for the bytes actually used.
    pub ideal_sectors: usize,
    /// Useful bytes / fetched bytes.
    pub efficiency: f64,
}

/// Analyze a warp request where lane `l` accesses element index
/// `index_of_lane(l)` of an array of `elem_bytes`-sized elements.
pub fn analyze_pattern(
    warp: usize,
    elem_bytes: u64,
    index_of_lane: impl Fn(usize) -> u64,
) -> PatternReport {
    let addresses: Vec<u64> = (0..warp).map(|l| index_of_lane(l) * elem_bytes).collect();
    let sectors = sectors_touched(&addresses, SECTOR_BYTES);
    let useful = warp as u64 * elem_bytes;
    let ideal_sectors = useful.div_ceil(SECTOR_BYTES) as usize;
    PatternReport {
        sectors,
        ideal_sectors,
        efficiency: useful as f64 / (sectors as u64 * SECTOR_BYTES) as f64,
    }
}

/// Coalescing of a structure-of-arrays access: lane `l` reads element
/// `base + l` — the layout the paper's §3.1 mandates for the distribution
/// array.
pub fn soa_report(warp: usize, elem_bytes: u64) -> PatternReport {
    analyze_pattern(warp, elem_bytes, |l| l as u64)
}

/// Coalescing of an array-of-structures access: lane `l` reads component
/// `c` of record `l`, i.e. element `l·record_len + c`.
pub fn aos_report(warp: usize, elem_bytes: u64, record_len: u64) -> PatternReport {
    analyze_pattern(warp, elem_bytes, |l| l as u64 * record_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_is_fully_coalesced() {
        let r = soa_report(32, 8);
        assert_eq!(r.sectors, 8); // 32 lanes × 8 B = 256 B = 8 sectors
        assert_eq!(r.sectors, r.ideal_sectors);
        assert!((r.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aos_d2q9_wastes_bandwidth() {
        // AoS with 9 doubles per record: lanes touch every 72nd byte.
        let r = aos_report(32, 8, 9);
        assert!(r.sectors > r.ideal_sectors);
        assert!(r.efficiency < 0.5, "efficiency {}", r.efficiency);
    }

    #[test]
    fn aos_degrades_with_record_size() {
        let q9 = aos_report(32, 8, 9).efficiency;
        let q19 = aos_report(32, 8, 19).efficiency;
        assert!(q19 <= q9);
    }

    #[test]
    fn wide_warp_mi100() {
        // 64-lane wavefront, consecutive doubles: still perfect.
        let r = soa_report(64, 8);
        assert_eq!(r.sectors, 16);
        assert!((r.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_touches_one_sector() {
        let r = analyze_pattern(32, 8, |_| 5);
        assert_eq!(r.sectors, 1);
    }

    #[test]
    fn misaligned_halo_read_costs_one_extra_sector() {
        // Shifted-by-one access (the pull scheme's x±1 neighbor reads).
        let r = analyze_pattern(32, 8, |l| l as u64 + 1);
        assert_eq!(r.sectors, 9); // one extra sector vs the aligned 8
        assert!(r.efficiency < 1.0);
    }
}

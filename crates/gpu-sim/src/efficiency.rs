//! Achieved-bandwidth model, calibrated against the paper's measurements.
//!
//! The substrate measures *bytes moved* exactly, but it cannot measure how
//! fast a V100 or MI100 would move them. The paper does: §4.2–4.3 report the
//! sustained fraction of peak bandwidth for every (device, pattern,
//! dimension) combination. Those fractions are encoded here, together with a
//! small-problem saturation ramp, so that
//!
//! `modeled MFLUPS = η(dev, pattern, dim) · saturation(n) · BW_peak / B/F_measured`
//!
//! with B/F *measured by the traffic ledger* for our actual kernels (halo
//! traffic included — slightly more honest than the paper's ideal 2M). The
//! calibration constants are the paper's own achieved-bandwidth fractions,
//! back-derived from the MFLUPS it reports; the speedup *shape* (who wins,
//! by how much, and where MR-R separates from MR-P) is then reproduced
//! rather than asserted. See `DESIGN.md` ("Hardware substitution").

use crate::device::{DeviceSpec, Vendor};
use std::sync::atomic::{AtomicU64, Ordering};

/// Times [`bandwidth_fraction`] was asked for a dimension outside the
/// calibrated set {2, 3} and fell back to the nearest calibrated one.
static CALIBRATION_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How often an uncalibrated dimension was served by the nearest-dim
/// fallback (diagnostic for callers that want to surface the warning).
pub fn calibration_fallbacks() -> u64 {
    CALIBRATION_FALLBACKS.load(Ordering::Relaxed)
}

/// The three propagation patterns of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Standard two-lattice distribution representation, pull scheme.
    Standard,
    /// Moment representation with projective regularization (MR-P).
    MomentProjective,
    /// Moment representation with recursive regularization (MR-R).
    MomentRecursive,
    /// In-place single-lattice ST: the AA pattern (ST-AA). Same traffic
    /// shape and B/F as [`Pattern::Standard`], half the resident bytes.
    StandardAa,
    /// In-place single-lattice MR: parity-twisted moment storage (MR-T).
    /// Same traffic shape and B/F as [`Pattern::MomentProjective`], half
    /// the double-buffered residency and none of the shift padding.
    MomentTwist,
}

impl Pattern {
    /// Short label used in reports ("ST", "MR-P", "MR-R", "ST-AA", "MR-T").
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Standard => "ST",
            Pattern::MomentProjective => "MR-P",
            Pattern::MomentRecursive => "MR-R",
            Pattern::StandardAa => "ST-AA",
            Pattern::MomentTwist => "MR-T",
        }
    }

    /// The two-lattice pattern whose bandwidth calibration this pattern
    /// inherits. The in-place variants move the same bytes in the same
    /// access shape as their two-lattice counterparts (reads and writes
    /// swap roles on alternate steps but stay fully coalesced), so §4.2's
    /// sustained-fraction calibration carries over unchanged.
    pub fn calibration_class(self) -> Pattern {
        match self {
            Pattern::StandardAa => Pattern::Standard,
            Pattern::MomentTwist => Pattern::MomentProjective,
            p => p,
        }
    }
}

/// Sustained fraction of peak bandwidth for a (device, pattern, dimension)
/// combination, calibrated from §4.2–4.3:
///
/// | device | dim | ST    | MR-P  | MR-R  |
/// |--------|-----|-------|-------|-------|
/// | V100   | 2D  | 0.848 | 0.747 | 0.736 |
/// | V100   | 3D  | 0.878 | 0.676 | 0.533 |
/// | MI100  | 2D  | 0.727 | 0.672 | 0.672 |
/// | MI100  | 3D  | 0.693 | 0.417 | 0.326 |
///
/// (The MR fractions are lower because of the more complex memory pattern,
/// shared-memory usage, halos, and block-size restrictions — §4.2; the 3D
/// MR-R drop reflects its extra arithmetic becoming visible at D3Q19 — §4.3.)
pub fn bandwidth_fraction(dev: &DeviceSpec, pattern: Pattern, dim: usize) -> f64 {
    use Pattern::*;
    let pattern = pattern.calibration_class();
    // The paper calibrates dims 2 and 3 only. Anything else (a 1D strip
    // bench, a hypothetical 4D sweep) clamps to the nearest calibrated dim
    // instead of panicking, with the substitution recorded so callers can
    // surface a warning.
    let dim = if matches!(dim, 2 | 3) {
        dim
    } else {
        CALIBRATION_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "warning: no bandwidth calibration for dim {dim}; using nearest calibrated dim {}",
            if dim < 2 { 2 } else { 3 }
        );
        if dim < 2 {
            2
        } else {
            3
        }
    };
    match (dev.vendor, dim, pattern) {
        (Vendor::Nvidia, 2, Standard) => 0.848,
        (Vendor::Nvidia, 2, MomentProjective) => 0.747,
        (Vendor::Nvidia, 2, MomentRecursive) => 0.736,
        (Vendor::Nvidia, 3, Standard) => 0.878,
        (Vendor::Nvidia, 3, MomentProjective) => 0.676,
        (Vendor::Nvidia, 3, MomentRecursive) => 0.533,
        (Vendor::Amd, 2, Standard) => 0.727,
        (Vendor::Amd, 2, MomentProjective) => 0.672,
        (Vendor::Amd, 2, MomentRecursive) => 0.672,
        (Vendor::Amd, 3, Standard) => 0.693,
        (Vendor::Amd, 3, MomentProjective) => 0.417,
        (Vendor::Amd, 3, MomentRecursive) => 0.326,
        _ => unreachable!("dim clamped to the calibrated set above"),
    }
}

/// Small-problem saturation: a device needs enough resident work to hide
/// memory latency. Modeled as `n / (n + n_half)` with `n_half` proportional
/// to the device's concurrency (Little's-law style).
pub fn saturation(dev: &DeviceSpec, fluid_nodes: usize) -> f64 {
    let n_half = dev.sm_count as f64 * 2048.0;
    fluid_nodes as f64 / (fluid_nodes as f64 + n_half)
}

/// Modeled throughput in MFLUPS for a kernel that was *measured* to move
/// `bytes_per_flup` bytes per fluid update.
pub fn modeled_mflups(
    dev: &DeviceSpec,
    pattern: Pattern,
    dim: usize,
    bytes_per_flup: f64,
    fluid_nodes: usize,
) -> f64 {
    let eta = bandwidth_fraction(dev, pattern, dim) * saturation(dev, fluid_nodes);
    eta * dev.bandwidth_bytes_per_sec() / (1e6 * bytes_per_flup)
}

/// Modeled sustained bandwidth in GB/s (the quantity in the paper's
/// bandwidth discussion and Table 4).
pub fn modeled_bandwidth_gbps(
    dev: &DeviceSpec,
    pattern: Pattern,
    dim: usize,
    fluid_nodes: usize,
) -> f64 {
    bandwidth_fraction(dev, pattern, dim) * saturation(dev, fluid_nodes) * dev.bandwidth_gbps
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: usize = 16_000_000; // deep in the saturated regime

    /// Reproduce the paper's headline sustained MFLUPS (±3 %) from the
    /// calibration and the ideal B/F — the harness will use measured B/F.
    #[test]
    fn headline_mflups_2d() {
        let v100 = DeviceSpec::v100();
        let mi100 = DeviceSpec::mi100();
        let st_v = modeled_mflups(&v100, Pattern::Standard, 2, 144.0, BIG);
        let mrp_v = modeled_mflups(&v100, Pattern::MomentProjective, 2, 96.0, BIG);
        assert!((st_v - 5300.0).abs() / 5300.0 < 0.03, "{st_v}");
        assert!((mrp_v - 7000.0).abs() / 7000.0 < 0.03, "{mrp_v}");
        let st_m = modeled_mflups(&mi100, Pattern::Standard, 2, 144.0, BIG);
        let mrp_m = modeled_mflups(&mi100, Pattern::MomentProjective, 2, 96.0, BIG);
        assert!((st_m - 6200.0).abs() / 6200.0 < 0.03, "{st_m}");
        assert!((mrp_m - 8600.0).abs() / 8600.0 < 0.03, "{mrp_m}");
    }

    #[test]
    fn headline_mflups_3d() {
        let v100 = DeviceSpec::v100();
        let mi100 = DeviceSpec::mi100();
        let st_v = modeled_mflups(&v100, Pattern::Standard, 3, 304.0, BIG);
        let mrp_v = modeled_mflups(&v100, Pattern::MomentProjective, 3, 160.0, BIG);
        let mrr_v = modeled_mflups(&v100, Pattern::MomentRecursive, 3, 160.0, BIG);
        assert!((st_v - 2600.0).abs() / 2600.0 < 0.03, "{st_v}");
        assert!((mrp_v - 3800.0).abs() / 3800.0 < 0.03, "{mrp_v}");
        // MR-R trails MR-P by ~800 MFLUPS on the V100 (§4.3).
        assert!((mrp_v - mrr_v - 800.0).abs() < 100.0, "{}", mrp_v - mrr_v);
        let st_m = modeled_mflups(&mi100, Pattern::Standard, 3, 304.0, BIG);
        let mrp_m = modeled_mflups(&mi100, Pattern::MomentProjective, 3, 160.0, BIG);
        let mrr_m = modeled_mflups(&mi100, Pattern::MomentRecursive, 3, 160.0, BIG);
        assert!((st_m - 2800.0).abs() / 2800.0 < 0.03, "{st_m}");
        assert!((mrp_m - 3200.0).abs() / 3200.0 < 0.03, "{mrp_m}");
        assert!((mrp_m - mrr_m - 700.0).abs() < 100.0, "{}", mrp_m - mrr_m);
    }

    /// §5 speedups: 1.32× / 1.38× (D2Q9) and 1.46× / 1.14× (D3Q19).
    #[test]
    fn conclusion_speedups() {
        let v100 = DeviceSpec::v100();
        let mi100 = DeviceSpec::mi100();
        let sp = |dev: &DeviceSpec, dim: usize, st_bpf: f64, mr_bpf: f64| {
            modeled_mflups(dev, Pattern::MomentProjective, dim, mr_bpf, BIG)
                / modeled_mflups(dev, Pattern::Standard, dim, st_bpf, BIG)
        };
        assert!((sp(&v100, 2, 144.0, 96.0) - 1.32).abs() < 0.02);
        assert!((sp(&mi100, 2, 144.0, 96.0) - 1.38).abs() < 0.02);
        assert!((sp(&v100, 3, 304.0, 160.0) - 1.46).abs() < 0.02);
        assert!((sp(&mi100, 3, 304.0, 160.0) - 1.14).abs() < 0.02);
    }

    /// Saturation ramps from ~0 to ~1 and is monotone in problem size.
    #[test]
    fn saturation_ramp() {
        let dev = DeviceSpec::v100();
        let mut prev = 0.0;
        for n in [10_000, 100_000, 1_000_000, 10_000_000] {
            let s = saturation(&dev, n);
            assert!(s > prev && s < 1.0);
            prev = s;
        }
        assert!(saturation(&dev, 50_000_000) > 0.99);
    }

    /// Table 4-style sustained bandwidths: the V100 sustains a higher
    /// fraction than the MI100 on every pattern, and ST beats MR in GB/s on
    /// both devices (while losing in MFLUPS).
    #[test]
    fn bandwidth_ordering() {
        let v100 = DeviceSpec::v100();
        let mi100 = DeviceSpec::mi100();
        for dim in [2usize, 3] {
            let st_v = modeled_bandwidth_gbps(&v100, Pattern::Standard, dim, BIG);
            let mr_v = modeled_bandwidth_gbps(&v100, Pattern::MomentProjective, dim, BIG);
            assert!(st_v > mr_v);
            let st_m = modeled_bandwidth_gbps(&mi100, Pattern::Standard, dim, BIG);
            let mr_m = modeled_bandwidth_gbps(&mi100, Pattern::MomentProjective, dim, BIG);
            assert!(st_m > mr_m);
        }
        // 2D V100: ~790 vs ~664 GB/s (§4.2).
        let st = modeled_bandwidth_gbps(&v100, Pattern::Standard, 2, BIG);
        let mr = modeled_bandwidth_gbps(&v100, Pattern::MomentProjective, 2, BIG);
        assert!((st - 763.0).abs() < 15.0, "{st}");
        assert!((mr - 672.0).abs() < 15.0, "{mr}");
    }

    /// The de-panic satellite: uncalibrated dims fall back to the nearest
    /// calibrated one (1 → 2, ≥4 → 3) with the substitution counted.
    #[test]
    fn uncalibrated_dim_falls_back_to_nearest() {
        let v100 = DeviceSpec::v100();
        let before = calibration_fallbacks();
        assert_eq!(
            bandwidth_fraction(&v100, Pattern::Standard, 1),
            bandwidth_fraction(&v100, Pattern::Standard, 2)
        );
        assert_eq!(
            bandwidth_fraction(&v100, Pattern::MomentRecursive, 4),
            bandwidth_fraction(&v100, Pattern::MomentRecursive, 3)
        );
        assert_eq!(calibration_fallbacks() - before, 2);
        // Calibrated dims never count as fallbacks.
        let _ = bandwidth_fraction(&v100, Pattern::Standard, 2);
        assert_eq!(calibration_fallbacks() - before, 2);
    }

    #[test]
    fn labels() {
        assert_eq!(Pattern::Standard.label(), "ST");
        assert_eq!(Pattern::MomentProjective.label(), "MR-P");
        assert_eq!(Pattern::MomentRecursive.label(), "MR-R");
    }
}

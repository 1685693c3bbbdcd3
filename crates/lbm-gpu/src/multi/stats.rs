//! Modeled timing of the two-phase overlap schedule.
//!
//! Every step is scheduled as: boundary strips first, then the halo
//! exchange concurrently with the interior launch, then the boundary-
//! condition kernel:
//!
//! ```text
//! t_step = t_boundary + max(t_interior, t_exchange) + t_bc
//! ```
//!
//! Device phase times are DRAM-bound (`bytes / BW`, the same model as the
//! roofline eq. 15); exchange time comes from the link spec (latency +
//! `bytes / link BW`, full duplex per link). The *overlap efficiency* is
//! the fraction of exchange time hidden behind the interior launch —
//! 1.0 when the interior is long enough to cover the exchange entirely.

use gpu_sim::interconnect::MultiGpu;
use gpu_sim::DeviceSpec;

/// Accumulated per-phase modeled times over all steps.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapStats {
    pub steps: u64,
    /// Σ max-over-devices boundary-strip time.
    pub boundary_s: f64,
    /// Σ max-over-devices interior time.
    pub interior_s: f64,
    /// Σ max-over-links exchange time.
    pub exchange_s: f64,
    /// Σ max-over-devices boundary-condition kernel time.
    pub bc_s: f64,
    /// Σ min(interior, exchange): exchange time hidden behind compute.
    pub hidden_s: f64,
    /// Σ per-step critical path.
    pub total_s: f64,
}

impl OverlapStats {
    pub(crate) fn record_step(&mut self, boundary: f64, interior: f64, exchange: f64, bc: f64) {
        self.steps += 1;
        self.boundary_s += boundary;
        self.interior_s += interior;
        self.exchange_s += exchange;
        self.bc_s += bc;
        self.hidden_s += interior.min(exchange);
        self.total_s += boundary + interior.max(exchange) + bc;
    }

    /// Fraction of exchange time hidden behind the interior launch
    /// (1.0 when nothing was exchanged).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.exchange_s <= 0.0 {
            return 1.0;
        }
        self.hidden_s / self.exchange_s
    }

    /// Modeled MFLUPS of the sharded run: global fluid updates over the
    /// accumulated critical path.
    pub fn modeled_mflups(&self, fluid_nodes: usize) -> f64 {
        if self.total_s <= 0.0 {
            return f64::NAN;
        }
        (fluid_nodes as f64 * self.steps as f64) / (1e6 * self.total_s)
    }
}

/// DRAM-bound time for one device phase moving `bytes`.
pub(crate) fn device_time_s(spec: &DeviceSpec, bytes: u64) -> f64 {
    bytes as f64 / (spec.bandwidth_gbps * 1e9)
}

/// Modeled exchange time of one step: per-link, both directions run full
/// duplex; all links run concurrently, so the step waits on the slowest.
pub(crate) fn exchange_time_s(mg: &MultiGpu, transfers: &[(usize, usize, u64)]) -> f64 {
    let mut t = 0.0f64;
    for link in mg.links() {
        let fwd: u64 = transfers
            .iter()
            .filter(|(f, to, _)| *f == link.a && *to == link.b)
            .map(|x| x.2)
            .sum();
        let rev: u64 = transfers
            .iter()
            .filter(|(f, to, _)| *f == link.b && *to == link.a)
            .map(|x| x.2)
            .sum();
        if fwd + rev > 0 {
            t = t.max(link.exchange_time_s(fwd, rev));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_efficiency_tracks_hidden_fraction() {
        let mut s = OverlapStats::default();
        // Interior fully covers the exchange.
        s.record_step(1e-6, 10e-6, 4e-6, 0.5e-6);
        assert!((s.overlap_efficiency() - 1.0).abs() < 1e-12);
        assert!((s.total_s - 11.5e-6).abs() < 1e-18);
        // Exchange-bound step: only part hides.
        s.record_step(1e-6, 2e-6, 6e-6, 0.5e-6);
        assert!((s.overlap_efficiency() - 6e-6 / 10e-6).abs() < 1e-12);
    }

    #[test]
    fn exchange_time_takes_slowest_link() {
        let mg = MultiGpu::ring(DeviceSpec::v100(), 4);
        // 1 MB on link (0,1) fwd; 2 MB on link (1,2) rev.
        let t = exchange_time_s(&mg, &[(0, 1, 1 << 20), (2, 1, 2 << 20)]);
        let expect = mg.link_spec().transfer_time_s(2 << 20);
        assert!((t - expect).abs() < 1e-15);
        // Opposite directions of one link overlap (full duplex).
        let t2 = exchange_time_s(&mg, &[(0, 1, 1 << 20), (1, 0, 1 << 20)]);
        assert!((t2 - mg.link_spec().transfer_time_s(1 << 20)).abs() < 1e-15);
    }
}

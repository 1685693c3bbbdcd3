//! Machine-readable bench records (`BENCH_<section>.json`).
//!
//! A [`BenchRecord`] captures one reproduction section as structured rows —
//! one [`BenchRow`] per (device, lattice, pattern) combination — so the
//! paper's headline numbers (Table 2 traffic ideals, Figs. 2–3 MFLUPS
//! curves, halo volumes, overlap efficiency) are diffable across commits
//! instead of living only in stdout tables. Every field is a count, a
//! byte tally or a model value: a row holds no wall-clock time, so the
//! same commit writes the same bytes on every run.

use crate::json::Value;

/// One benchmark row: a (device, lattice, pattern) measurement.
#[derive(Clone, Debug, Default)]
pub struct BenchRow {
    pub device: String,
    pub lattice: String,
    /// Traffic pattern: `st`, `mr-p`, `mr-r`, the in-place `st-aa` /
    /// `mr-t`, or the fluid-compacted `sparse-st` / `sparse-mr`.
    pub pattern: String,
    pub fluid_nodes: u64,
    pub steps: u64,
    /// Roofline-modeled MFLUPS from measured traffic and device bandwidth.
    pub mflups_modeled: f64,
    /// Measured DRAM bytes per fluid-node update (paper's B/F).
    pub dram_bytes_per_item: f64,
    /// L2 read hit rate of the bulk kernel, in [0, 1].
    pub l2_hit_rate: f64,
    /// Halo bytes exchanged per step (0 for single-device runs).
    pub halo_bytes_per_step: u64,
    /// Overlap efficiency in [0, 1] (0 for single-device runs).
    pub overlap_efficiency: f64,
}

impl BenchRow {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("device", Value::str(&self.device)),
            ("lattice", Value::str(&self.lattice)),
            ("pattern", Value::str(&self.pattern)),
            ("fluid_nodes", Value::int(self.fluid_nodes)),
            ("steps", Value::int(self.steps)),
            ("mflups_modeled", Value::num(self.mflups_modeled)),
            ("dram_bytes_per_item", Value::num(self.dram_bytes_per_item)),
            ("l2_hit_rate", Value::num(self.l2_hit_rate)),
            ("halo_bytes_per_step", Value::int(self.halo_bytes_per_step)),
            ("overlap_efficiency", Value::num(self.overlap_efficiency)),
        ])
    }
}

/// A named collection of bench rows plus free-form extras (monitor
/// summaries, porosity sweeps, …).
#[derive(Default)]
pub struct BenchRecord {
    section: String,
    rows: Vec<BenchRow>,
    extras: Vec<(String, Value)>,
}

impl BenchRecord {
    pub fn new(section: &str) -> Self {
        BenchRecord {
            section: section.to_string(),
            rows: Vec::new(),
            extras: Vec::new(),
        }
    }

    pub fn section(&self) -> &str {
        &self.section
    }

    pub fn push(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    pub fn rows(&self) -> &[BenchRow] {
        &self.rows
    }

    /// Attach an extra top-level field (e.g. `"porosity_sweep"`,
    /// `"mass_drift_tol"`). Later values win on key collision.
    pub fn set_extra(&mut self, key: &str, v: Value) {
        self.extras.retain(|(k, _)| k != key);
        self.extras.push((key.to_string(), v));
    }

    /// The record as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("section", Value::str(&self.section)),
            (
                "rows",
                Value::Arr(self.rows.iter().map(BenchRow::to_value).collect()),
            ),
        ];
        for (k, v) in &self.extras {
            pairs.push((k.as_str(), v.clone()));
        }
        Value::obj(pairs)
    }

    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// File name this record writes to: `BENCH_<section>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.section)
    }

    /// Write `BENCH_<section>.json` into `dir`; returns the path written.
    pub fn write(&self, dir: &str) -> std::io::Result<String> {
        let path = if dir.is_empty() || dir == "." {
            self.file_name()
        } else {
            format!("{}/{}", dir.trim_end_matches('/'), self.file_name())
        };
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn row() -> BenchRow {
        BenchRow {
            device: "V100".into(),
            lattice: "D2Q9".into(),
            pattern: "mr-p".into(),
            fluid_nodes: 512,
            steps: 10,
            mflups_modeled: 9375.0,
            dram_bytes_per_item: 96.0,
            l2_hit_rate: 0.25,
            halo_bytes_per_step: 0,
            overlap_efficiency: 0.0,
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = BenchRecord::new("smoke");
        rec.push(row());
        rec.set_extra("monitor_overhead_frac", Value::num(0.01));
        rec.set_extra("monitor_overhead_frac", Value::num(0.02));
        let v = json::parse(&rec.to_json()).unwrap();
        assert_eq!(v.get("section").unwrap().as_str(), Some("smoke"));
        let rows = v.get("rows").unwrap().items();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("dram_bytes_per_item").unwrap().as_f64(),
            Some(96.0)
        );
        assert_eq!(rows[0].get("pattern").unwrap().as_str(), Some("mr-p"));
        // set_extra replaces on collision.
        assert_eq!(v.get("monitor_overhead_frac").unwrap().as_f64(), Some(0.02));
    }

    #[test]
    fn file_name_is_sectioned() {
        assert_eq!(BenchRecord::new("smoke").file_name(), "BENCH_smoke.json");
    }
}

//! A labeled metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! The substrate's exec and interconnect layers publish here (see
//! `gpu-sim`), keyed by metric name plus a small label set (`kernel`,
//! `pattern`, `device`, `link`, …). The registry is the one per-kernel
//! record of launches and bytes: everything it holds exports as
//! deterministic JSON for the bench trajectory.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Metric identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Fixed-bucket histogram: `counts[i]` holds observations `≤ bounds[i]`,
/// with one overflow bucket at the end.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Mean of all observations (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Bucket-resolution quantile: the upper bound of the bucket holding
    /// the nearest-rank `q`-quantile observation (`q` in `[0, 1]`), or the
    /// last finite bound for overflow observations. `None` when empty.
    /// Coarse by construction — the fleet SLO path uses the exact
    /// [`StreamingQuantile`] and keeps this as the histogram cross-check.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(*self.bounds.get(i).unwrap_or(self.bounds.last()?));
            }
        }
        self.bounds.last().copied()
    }
}

/// Streaming quantile sketch: exact below `cap` samples, bounded-error
/// beyond.
///
/// A multi-level compaction sketch (the KLL/MRL shape): observations land
/// in a level-0 buffer of weight-1 samples; when a level fills, it is
/// sorted and every second sample (odd ranks) is promoted to the next
/// level with doubled weight. Total weight is preserved exactly by each
/// compaction, so `Σ weight == count` always. Below `cap` observations no
/// compaction ever runs and `quantile` is the exact nearest-rank
/// statistic — the property the unit tests pin down; beyond, rank error
/// grows like `O(levels · cap / 2)` in the worst case, a small fraction
/// of `count` for the capacities used here (the property test bounds it
/// against a sorted-vector oracle).
///
/// The quantile definition matches the serve-layer percentile oracle:
/// nearest rank `round(q · (n − 1))` over the weighted sorted samples.
#[derive(Clone, Debug)]
pub struct StreamingQuantile {
    cap: usize,
    /// `levels[i]` holds samples of weight `2^i`; only level 0 is unsorted.
    levels: Vec<Vec<f64>>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Default per-level capacity: exact up to 512 samples, ≲1% rank error at
/// the 100k-observation scale of a serve load test.
pub const DEFAULT_QUANTILE_CAPACITY: usize = 512;

impl Default for StreamingQuantile {
    fn default() -> Self {
        Self::new(DEFAULT_QUANTILE_CAPACITY)
    }
}

impl StreamingQuantile {
    /// An empty sketch with per-level capacity `cap` (rounded up to even).
    pub fn new(cap: usize) -> Self {
        let cap = {
            let c = cap.max(2);
            c + c % 2
        };
        StreamingQuantile {
            cap,
            levels: vec![Vec::new()],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Ingest one observation (non-finite values are counted in `count`
    /// and the sum but excluded from the sample set).
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if !v.is_finite() {
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.levels[0].push(v);
        let mut lvl = 0;
        while self.levels[lvl].len() >= self.cap {
            // Sort and promote the odd ranks with doubled weight; the even
            // ranks are discarded. Total weight is preserved exactly.
            self.levels[lvl].sort_by(f64::total_cmp);
            let promoted: Vec<f64> = self.levels[lvl]
                .iter()
                .skip(1)
                .step_by(2)
                .copied()
                .collect();
            self.levels[lvl].clear();
            if self.levels.len() == lvl + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[lvl + 1].extend(promoted);
            lvl += 1;
        }
    }

    /// Nearest-rank `q`-quantile estimate (`q` in `[0, 1]`); `None` when
    /// no finite observation has been ingested. Exact while fewer than
    /// `cap` observations have been seen.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let q = q.clamp(0.0, 1.0);
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        let mut total: u64 = 0;
        for (lvl, samples) in self.levels.iter().enumerate() {
            let w = 1u64 << lvl;
            for &v in samples {
                weighted.push((v, w));
                total += w;
            }
        }
        if total == 0 {
            return None;
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (v, w) in weighted {
            seen += w;
            if seen > rank {
                return Some(v);
            }
        }
        Some(self.max)
    }

    /// Observations ingested.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact running mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Smallest finite observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }
}

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Thread-safe registry of labeled metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a counter (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// Set a gauge to a value.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map.entry(key).or_insert(Metric::Gauge(v)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Record one observation into a fixed-bucket histogram. `bounds` is
    /// only used on first creation; later calls must agree.
    pub fn histogram_observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], v: f64) {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => {
                assert_eq!(h.bounds, bounds, "histogram '{name}' bounds changed");
                h.observe(v);
            }
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Current counter value, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self
            .inner
            .lock()
            .unwrap()
            .get(&MetricKey::new(name, labels))
        {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Current gauge value, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .inner
            .lock()
            .unwrap()
            .get(&MetricKey::new(name, labels))
        {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Current histogram, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self
            .inner
            .lock()
            .unwrap()
            .get(&MetricKey::new(name, labels))
        {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Snapshot of every metric, sorted by key.
    pub fn snapshot(&self) -> Vec<(MetricKey, Metric)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export as a JSON document: `{"metrics": [{name, labels, type, …}]}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<Value> = self
            .snapshot()
            .into_iter()
            .map(|(k, m)| {
                let labels = Value::Obj(
                    k.labels
                        .iter()
                        .map(|(lk, lv)| (lk.clone(), Value::str(lv)))
                        .collect(),
                );
                let mut pairs = vec![("name", Value::str(&k.name)), ("labels", labels)];
                match m {
                    Metric::Counter(c) => {
                        pairs.push(("type", Value::str("counter")));
                        pairs.push(("value", Value::int(c)));
                    }
                    Metric::Gauge(g) => {
                        pairs.push(("type", Value::str("gauge")));
                        pairs.push(("value", Value::num(g)));
                    }
                    Metric::Histogram(h) => {
                        pairs.push(("type", Value::str("histogram")));
                        pairs.push((
                            "bounds",
                            Value::Arr(h.bounds.iter().map(|&b| Value::num(b)).collect()),
                        ));
                        pairs.push((
                            "counts",
                            Value::Arr(h.counts.iter().map(|&c| Value::int(c)).collect()),
                        ));
                        pairs.push(("sum", Value::num(h.sum)));
                        pairs.push(("count", Value::int(h.count)));
                    }
                }
                Value::obj(pairs)
            })
            .collect();
        Value::obj(vec![("metrics", Value::Arr(metrics))]).to_json()
    }

    /// Write the JSON export to a file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = MetricsRegistry::new();
        r.counter_add("bytes", &[("kernel", "a")], 10);
        r.counter_add("bytes", &[("kernel", "a")], 5);
        r.counter_add("bytes", &[("kernel", "b")], 1);
        assert_eq!(r.counter("bytes", &[("kernel", "a")]), Some(15));
        assert_eq!(r.counter("bytes", &[("kernel", "b")]), Some(1));
        assert_eq!(r.counter("bytes", &[("kernel", "c")]), None);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = MetricsRegistry::new();
        r.counter_add("x", &[("a", "1"), ("b", "2")], 7);
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]), Some(7));
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.gauge_set("bpf", &[("kernel", "st-bulk")], 144.0);
        r.gauge_set("bpf", &[("kernel", "st-bulk")], 96.0);
        assert_eq!(r.gauge("bpf", &[("kernel", "st-bulk")]), Some(96.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = MetricsRegistry::new();
        let bounds = [1.0, 10.0, 100.0];
        for v in [0.5, 5.0, 50.0, 500.0, 7.0] {
            r.histogram_observe("lat", &[], &bounds, v);
        }
        let h = r.histogram("lat", &[]).unwrap();
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.mean() - 112.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.gauge_set("m", &[], 1.0);
        r.counter_add("m", &[], 1);
    }

    /// Nearest-rank oracle over a plain sorted vector — the definition the
    /// sketch (and the serve percentile reporter) must agree with.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut s = values.to_vec();
        s.sort_by(f64::total_cmp);
        s[((s.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn quantile_exact_on_uniform_input_below_capacity() {
        let mut sk = StreamingQuantile::new(512);
        // 0, 1, …, 400 in a scrambled but deterministic order.
        let vals: Vec<f64> = (0..=400).map(|i| ((i * 173) % 401) as f64).collect();
        for &v in &vals {
            sk.observe(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                sk.quantile(q),
                Some(oracle(&vals, q)),
                "exact nearest-rank at q={q}"
            );
        }
        assert_eq!(sk.min(), Some(0.0));
        assert_eq!(sk.max(), Some(400.0));
        assert_eq!(sk.count(), 401);
    }

    #[test]
    fn quantile_exact_on_bimodal_input_below_capacity() {
        // Two tight modes far apart: 100 samples near 1 ms, 50 near 900 ms.
        let mut sk = StreamingQuantile::new(512);
        let mut vals = Vec::new();
        for i in 0..100 {
            vals.push(1.0 + 0.001 * i as f64);
        }
        for i in 0..50 {
            vals.push(900.0 + 0.01 * i as f64);
        }
        for &v in &vals {
            sk.observe(v);
        }
        // The median sits in the low mode, p99 in the high mode — the
        // sketch must not interpolate across the gap.
        let p50 = sk.quantile(0.5).unwrap();
        let p99 = sk.quantile(0.99).unwrap();
        assert_eq!(p50, oracle(&vals, 0.5));
        assert_eq!(p99, oracle(&vals, 0.99));
        assert!(p50 < 2.0, "median in the low mode, got {p50}");
        assert!(p99 > 900.0, "p99 in the high mode, got {p99}");
    }

    #[test]
    fn quantile_degenerate_single_value() {
        let mut sk = StreamingQuantile::new(8);
        assert_eq!(sk.quantile(0.5), None, "empty sketch has no quantile");
        for _ in 0..1000 {
            sk.observe(42.0);
        }
        // Far past capacity, but every compaction keeps only 42s.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(sk.quantile(q), Some(42.0));
        }
        assert_eq!(sk.count(), 1000);
        assert_eq!(sk.mean(), 42.0);
    }

    #[test]
    fn quantile_property_check_against_sorted_oracle() {
        // Deterministic LCG stream, well past capacity: the estimate's
        // *rank* in the true sorted data must stay within a small fraction
        // of the target rank.
        let mut sk = StreamingQuantile::new(256);
        let mut vals = Vec::new();
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 17) % 1_000_000) as f64 / 100.0;
            vals.push(v);
            sk.observe(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let est = sk.quantile(q).unwrap();
            let target = ((n - 1) as f64 * q).round() as i64;
            // Rank of the estimate in the true data.
            let rank = sorted.partition_point(|&v| v < est) as i64;
            let err = (rank - target).abs();
            assert!(
                err <= (n / 50) as i64,
                "q={q}: rank error {err} exceeds 2% of {n} (est {est})"
            );
        }
        // Exact moments survive compaction untouched.
        let true_sum: f64 = vals.iter().sum();
        assert_eq!(sk.sum(), true_sum);
        assert_eq!(sk.count(), n as u64);
    }

    #[test]
    fn histogram_quantile_returns_bucket_upper_bounds() {
        let r = MetricsRegistry::new();
        let bounds = [1.0, 10.0, 100.0];
        for v in [0.5, 5.0, 6.0, 50.0, 500.0] {
            r.histogram_observe("lat", &[], &bounds, v);
        }
        let h = r.histogram("lat", &[]).unwrap();
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(10.0));
        // Overflow observations clamp to the last finite bound.
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn json_export_parses_and_is_deterministic() {
        let r = MetricsRegistry::new();
        r.counter_add("launches", &[("kernel", "mr2d-p"), ("device", "V100")], 3);
        r.gauge_set("dram_b_per_item", &[("kernel", "mr2d-p")], 96.0);
        r.histogram_observe("t", &[], &[1.0], 0.5);
        let s1 = r.to_json();
        let s2 = r.to_json();
        assert_eq!(s1, s2);
        let v = json::parse(&s1).unwrap();
        let ms = v.get("metrics").unwrap().items();
        assert_eq!(ms.len(), 3);
        let g = ms
            .iter()
            .find(|m| m.get("type").unwrap().as_str() == Some("gauge"))
            .unwrap();
        assert_eq!(g.get("value").unwrap().as_f64(), Some(96.0));
    }
}

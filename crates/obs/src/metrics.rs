//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! The registry is a plain mutable value (no atomics, no globals): the
//! drivers own one per run and fold per-tick observations into it on the
//! coordinating thread, so recording cannot perturb the paced execution it
//! observes. Names use dot-separated paths (`work.scan`,
//! `buffer.sp3.high_water`, `tick.wall_us`).

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: powers of four, covering everything
/// from single-row ticks to full-table rescans. Values above the last bound
/// land in the implicit overflow bucket.
pub const DEFAULT_BUCKETS: [f64; 12] =
    [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0];

/// A fixed-bucket histogram with running count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket, strictly increasing.
    bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]` (and above the previous
    /// bound); `counts[bounds.len()]` is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// New histogram with the given bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation, 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest observation, 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Bucket upper bounds (the overflow bucket has no bound).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket, so
    /// `bucket_counts().len() == bounds().len() + 1`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation within the covering bucket, clamped to the observed
    /// `[min, max]` range.
    ///
    /// Edge cases are exact rather than interpolated: an empty histogram
    /// returns 0, a single sample returns that sample for every `q`, `q = 0`
    /// returns the minimum, and `q = 1` (p100) returns the maximum —
    /// interpolation can neither undershoot the smallest observation nor
    /// overshoot the largest (the overflow bucket has no upper bound, so it
    /// reports the observed maximum).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if self.count == 1 {
            // min == max == the one sample.
            return self.min;
        }
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Rank of the target observation, 1-based: ceil(q * count).
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cumulative + c >= rank {
                // Target falls in bucket i. Interpolate between the bucket's
                // lower and upper bound by the rank's position within it.
                if i >= self.bounds.len() {
                    // Overflow bucket: unbounded above, report the max.
                    return self.max;
                }
                let hi = self.bounds[i].min(self.max);
                let lo = if i == 0 { self.min } else { self.bounds[i - 1].max(self.min) };
                let lo = lo.min(hi);
                let frac = (rank - cumulative) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            cumulative += c;
        }
        self.max
    }

    fn to_json(&self) -> Value {
        json!({
            "bounds": self.bounds.clone(),
            "counts": self.counts.clone(),
            "count": self.count,
            "sum": self.sum,
            "min": self.min(),
            "max": self.max(),
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p100": self.quantile(1.0),
        })
    }
}

/// A registry of named metrics, snapshotable to JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a (monotonically increasing) counter, creating it at 0.
    pub fn counter_add(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Raise a gauge to `v` if `v` is larger (high-water-mark semantics).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(v);
        if v > *g {
            *g = v;
        }
    }

    /// Record into a histogram with [`DEFAULT_BUCKETS`].
    pub fn histogram_record(&mut self, name: &str, v: f64) {
        self.histogram_record_with(name, &DEFAULT_BUCKETS, v);
    }

    /// Record into a histogram, creating it with the given bounds. Bounds are
    /// fixed at creation; later calls ignore the `bounds` argument.
    pub fn histogram_record_with(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds)).record(v);
    }

    /// Current counter value.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counter names and values in lexicographic order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauge names and values in lexicographic order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histogram names and values in lexicographic order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Snapshot every metric as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {bounds,
    /// counts, count, sum, min, max, mean}}}`. Keys are sorted, so equal
    /// registries produce byte-equal snapshots.
    pub fn snapshot(&self) -> Value {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect::<Vec<_>>();
        let gauges =
            self.gauges.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect::<Vec<_>>();
        let histograms =
            self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect::<Vec<_>>();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }

    /// Like [`snapshot`](Self::snapshot) but with every wall-clock-derived
    /// metric removed (any name mentioning `wall` or `time`, e.g.
    /// `tick.wall_us`, `adapt.reopt_time_us`). Everything left is folded
    /// from deterministic measured work, so two identical runs — regardless
    /// of thread count, obs timing, or process — serialize to byte-equal
    /// documents; golden snapshots and the cross-process determinism test
    /// diff this form.
    pub fn snapshot_deterministic(&self) -> Value {
        fn keep(name: &str) -> bool {
            !name.contains("wall") && !name.contains("time")
        }
        let counters = self
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect::<Vec<_>>();
        let gauges = self
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect::<Vec<_>>();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }
}

/// Record one subplan's per-partition exchange statistics as gauges:
/// `partition.sp{sp}.p{j}.rows` / `.work` for each partition `j` (from the
/// `(routed rows, charged work)` pairs) plus `partition.sp{sp}.skew`, the
/// max/mean row ratio (1.0 = perfectly balanced; P = everything on one of P
/// partitions). Passive like every other gauge: the drivers call this once
/// at end of run from the executors' accumulated stats, never on the
/// execution path.
pub fn record_partition_gauges(metrics: &mut MetricsRegistry, sp: usize, stats: &[(u64, f64)]) {
    if stats.is_empty() {
        return;
    }
    let mut max_rows = 0u64;
    let mut total_rows = 0u64;
    for (j, &(rows, work)) in stats.iter().enumerate() {
        metrics.gauge_set(&format!("partition.sp{sp}.p{j}.rows"), rows as f64);
        metrics.gauge_set(&format!("partition.sp{sp}.p{j}.work"), work);
        max_rows = max_rows.max(rows);
        total_rows += rows;
    }
    let mean = total_rows as f64 / stats.len() as f64;
    let skew = if mean > 0.0 { max_rows as f64 / mean } else { 1.0 };
    metrics.gauge_set(&format!("partition.sp{sp}.skew"), skew);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.counter_add("work.scan", 2.5);
        m.counter_add("work.scan", 1.5);
        m.gauge_set("buffer.sp0.high_water", 10.0);
        m.gauge_set("buffer.sp0.high_water", 7.0);
        m.gauge_max("peak", 3.0);
        m.gauge_max("peak", 1.0);
        assert_eq!(m.counter("work.scan"), Some(4.0));
        assert_eq!(m.gauge("buffer.sp0.high_water"), Some(7.0));
        assert_eq!(m.gauge("peak"), Some(3.0));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 500.0);
        assert!((h.sum() - 560.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0.
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);

        // Single sample: every quantile is that sample.
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(7.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.0, "q={q}");
        }

        // p0 = min, p100 = max, even when max lives in the overflow bucket.
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 5.0, 500.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.5);
        assert_eq!(h.quantile(1.0), 500.0);
        // The overflow bucket reports the observed max, not infinity.
        assert_eq!(h.quantile(0.99), 500.0);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-3.0), 0.5);
        assert_eq!(h.quantile(2.0), 500.0);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
        for v in [2.0, 12.0, 14.0, 16.0, 18.0, 22.0, 24.0, 26.0, 28.0, 29.0] {
            h.record(v);
        }
        // Median falls in the (10, 20] bucket and never leaves [min, max].
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "p50 = {p50}");
        let p90 = h.quantile(0.9);
        assert!((20.0..=30.0).contains(&p90), "p90 = {p90}");
        // Quantiles are monotone in q.
        let qs: Vec<f64> =
            [0.1, 0.25, 0.5, 0.75, 0.9, 1.0].iter().map(|&q| h.quantile(q)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn deterministic_snapshot_filters_wall_metrics() {
        let mut m = MetricsRegistry::new();
        m.counter_add("work.total", 5.0);
        m.gauge_set("adapt.reopt_time_us", 120.0);
        m.histogram_record("tick.wall_us", 33.0);
        m.histogram_record("tick.work", 5.0);
        let det = m.snapshot_deterministic();
        assert!(det["counters"].get("work.total").is_some());
        assert!(det["gauges"].get("adapt.reopt_time_us").is_none());
        assert!(det["histograms"].get("tick.wall_us").is_none());
        assert!(det["histograms"].get("tick.work").is_some());
    }

    #[test]
    fn partition_gauges_record_rows_work_and_skew() {
        let mut m = MetricsRegistry::new();
        // 3 partitions, one carrying double the mean.
        record_partition_gauges(&mut m, 2, &[(30, 7.5), (60, 15.0), (0, 0.0)]);
        assert_eq!(m.gauge("partition.sp2.p0.rows"), Some(30.0));
        assert_eq!(m.gauge("partition.sp2.p1.work"), Some(15.0));
        assert_eq!(m.gauge("partition.sp2.p2.rows"), Some(0.0));
        assert_eq!(m.gauge("partition.sp2.skew"), Some(2.0));
        // Empty stats record nothing; all-zero stats report balanced.
        record_partition_gauges(&mut m, 3, &[]);
        assert_eq!(m.gauge("partition.sp3.skew"), None);
        record_partition_gauges(&mut m, 4, &[(0, 0.0), (0, 0.0)]);
        assert_eq!(m.gauge("partition.sp4.skew"), Some(1.0));
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let mut m = MetricsRegistry::new();
        m.counter_add("work.total", 123.5);
        m.gauge_set("buffer.sp1.high_water", 42.0);
        m.histogram_record_with("tick.work", &[1.0, 10.0], 3.0);
        let snap = m.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(reparsed, snap);
        assert_eq!(reparsed["counters"]["work.total"].as_f64(), Some(123.5));
        assert_eq!(reparsed["histograms"]["tick.work"]["count"].as_i64(), Some(1));
    }
}

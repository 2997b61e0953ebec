//! Frozen, bit-stable views of a [`MetricsRegistry`]: JSON
//! round-tripping for `RunArtifact` embedding and the Prometheus text
//! exposition export.
//!
//! Determinism contract: a snapshot is a pure function of the observed
//! values — metrics sort by name, histogram buckets are sparse
//! `(index, count)` pairs over *fixed* boundaries, and every number
//! survives the JSON round trip exactly (counts are integers; gauges are
//! the recorded `f64`s). Two runs with the same seed and config
//! therefore serialize byte-identically on every platform.
//!
//! [`MetricsRegistry`]: crate::telemetry::MetricsRegistry

use crate::telemetry::histogram::LogHistogram;
use cfmerge_json::{json_struct, FromJson, Json, JsonError, ToJson};

/// Frozen histogram state: sparse buckets plus derived statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (ns for `*_seconds` metrics).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound; see [`LogHistogram::quantile`]).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Sparse `(bucket index, count)` pairs, ascending in index.
    pub buckets: Vec<(u32, u64)>,
}

impl From<LogHistogram> for HistogramSnapshot {
    fn from(h: LogHistogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            buckets: h.buckets().to_vec(),
        }
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("p50", Json::from(self.p50)),
            ("p99", Json::from(self.p99)),
            ("p999", Json::from(self.p999)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let buckets = v
            .req("buckets")?
            .as_arr()
            .ok_or_else(|| JsonError::new("expected bucket array"))?
            .iter()
            .map(|pair| {
                let pair =
                    pair.as_arr().ok_or_else(|| JsonError::new("expected [index, count] pair"))?;
                match pair {
                    [i, c] => Ok((
                        u32::from_json(i)
                            .map_err(|e| JsonError::new(format!("bad bucket index: {e}")))?,
                        u64::from_json(c)
                            .map_err(|e| JsonError::new(format!("bad bucket count: {e}")))?,
                    )),
                    _ => Err(JsonError::new("expected [index, count] pair")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            count: v.field("count")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
            p50: v.field("p50")?,
            p99: v.field("p99")?,
            p999: v.field("p999")?,
            buckets,
        })
    }
}

/// Frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last recorded level.
    Gauge(f64),
    /// Distribution with percentiles.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The exposition-format kind label (`counter` / `gauge` /
    /// `histogram`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (free-form `snake_case`).
    pub name: String,
    /// Its frozen value.
    pub value: MetricValue,
}

impl ToJson for MetricSnapshot {
    fn to_json(&self) -> Json {
        let mut pairs =
            vec![("name", Json::from(self.name.as_str())), ("kind", Json::from(self.value.kind()))];
        match &self.value {
            MetricValue::Counter(c) => pairs.push(("value", Json::from(*c))),
            MetricValue::Gauge(g) => pairs.push(("value", Json::from(*g))),
            MetricValue::Histogram(h) => pairs.push(("histogram", h.to_json())),
        }
        Json::obj(pairs)
    }
}

impl FromJson for MetricSnapshot {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name: String = v.field("name")?;
        let kind: String = v.field("kind")?;
        let value = match kind.as_str() {
            "counter" => MetricValue::Counter(v.field("value")?),
            "gauge" => MetricValue::Gauge(v.field("value")?),
            "histogram" => MetricValue::Histogram(v.field("histogram")?),
            other => return Err(JsonError::new(format!("unknown metric kind {other:?}"))),
        };
        Ok(Self { name, value })
    }
}

/// A full frozen registry: every metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Metrics in ascending name order.
    pub metrics: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// Look up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// A copy with `prefix` prepended to every metric name (used to
    /// combine several registries — e.g. one per service scenario — into
    /// one artifact without collisions). Re-sorts by the new names.
    #[must_use]
    pub fn with_prefix(&self, prefix: &str) -> MetricsSnapshot {
        let mut metrics: Vec<MetricSnapshot> = self
            .metrics
            .iter()
            .map(|m| MetricSnapshot { name: format!("{prefix}{}", m.name), value: m.value.clone() })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics }
    }

    /// Combine with `other` into one snapshot sorted by name. Duplicate
    /// names keep `other`'s entry (last writer wins); prefix snapshots
    /// with [`Self::with_prefix`] to avoid collisions altogether.
    #[must_use]
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut metrics: Vec<MetricSnapshot> = other.metrics.clone();
        for m in &self.metrics {
            if !metrics.iter().any(|n| n.name == m.name) {
                metrics.push(m.clone());
            }
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics }
    }

    /// Render in the Prometheus text exposition format: `# TYPE` lines,
    /// sanitized `cfmerge_`-prefixed names, cumulative `_bucket{le=…}`
    /// series plus `_sum`/`_count` for histograms. Histogram bounds are
    /// converted from modeled ns back to seconds, matching the
    /// convention that histogram metrics record durations.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = format!("cfmerge_{}", sanitize(&m.name));
            out.push_str(&format!("# TYPE {name} {}\n", m.value.kind()));
            match &m.value {
                MetricValue::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(idx, n) in &h.buckets {
                        cum += n;
                        let le = LogHistogram::bucket_upper_bound(idx) as f64 / 1e9;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n", h.sum as f64 / 1e9));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

json_struct! { MetricsSnapshot { metrics } }

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let mut r = MetricsRegistry::new();
        r.inc("jobs_total", 7);
        r.set_gauge("queue_depth", 3.5);
        r.observe_seconds("job_latency_seconds", 1.5e-6);
        r.observe_seconds("job_latency_seconds", 2.5e-6);
        r.observe_seconds("job_latency_seconds", 4.0e-3);
        r.snapshot()
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample();
        let text = snap.to_json().to_string_pretty();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }

    #[test]
    fn out_of_range_bucket_index_fails_to_load() {
        let h = sample().histogram("job_latency_seconds").unwrap().clone();
        let text = h.to_json().to_string_compact();
        let (head, _) = text.split_once(r#""buckets":[["#).unwrap();
        let bad = format!(r#"{head}"buckets":[[4294967296,1]]}}"#);
        let e = HistogramSnapshot::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(e.message, "bad bucket index: 4294967296 is out of range for u32");
    }

    #[test]
    fn histogram_snapshot_reports_percentiles() {
        let snap = sample();
        let h = snap.histogram("job_latency_seconds").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1500);
        assert_eq!(h.max, 4_000_000);
        assert!(h.p50 >= 2500 && h.p50 < 4_000_000, "p50 = {}", h.p50);
        assert_eq!(h.p999, 4_000_000);
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE cfmerge_jobs_total counter"));
        assert!(text.contains("cfmerge_jobs_total 7"));
        assert!(text.contains("# TYPE cfmerge_queue_depth gauge"));
        assert!(text.contains("cfmerge_queue_depth 3.5"));
        assert!(text.contains("# TYPE cfmerge_job_latency_seconds histogram"));
        assert!(text.contains("cfmerge_job_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cfmerge_job_latency_seconds_count 3"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn prefix_and_merge_combine_disjoint_snapshots() {
        let snap = sample();
        let a = snap.with_prefix("storm_");
        let b = snap.with_prefix("overflow_");
        let merged = a.merged(&b);
        assert_eq!(merged.metrics.len(), a.metrics.len() + b.metrics.len());
        assert!(merged.get("storm_jobs_total").is_some());
        assert!(merged.get("overflow_jobs_total").is_some());
        // Sorted by name.
        for pair in merged.metrics.windows(2) {
            assert!(pair[0].name < pair[1].name);
        }
    }

    #[test]
    fn sanitize_rewrites_illegal_chars() {
        assert_eq!(sanitize("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }
}

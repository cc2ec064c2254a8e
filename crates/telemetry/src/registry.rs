//! The labeled metrics registry.
//!
//! A [`Registry`] is a flat, ordered collection of named metrics, each with an
//! optional label set (`("bank", "3")`-style pairs) and a value: a monotonic
//! counter, a point-in-time gauge, or a binned [`Histogram`] (whose
//! [`Histogram::quantile`] gives the `p50`/`p90`/`p99` the JSON form
//! carries). The simulator's [`autorfm_sim_core`] statistics primitives
//! plug in directly: [`Counter`] and [`Average`] via the `record_*`
//! helpers, [`Histogram`] via [`Registry::histogram`].

use crate::json::Json;
use autorfm_sim_core::{Average, Counter, Histogram};
use std::fmt;

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing event count.
    Counter(u64),
    /// A point-in-time or derived value.
    Gauge(f64),
    /// A binned distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// A scalar view: the counter value, the gauge, or the histogram mean.
    pub fn scalar(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.mean(),
        }
    }
}

/// One named, labeled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `"dram_acts"`.
    pub name: String,
    /// Label pairs, e.g. `[("scenario", "AutoRFM-4")]`. May be empty.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

impl Metric {
    /// `name{k=v,…}` — the canonical identity used for lookups and diffs.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {:.6}", self.key(), self.value.scalar())
    }
}

/// An ordered collection of labeled metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<Metric>,
}

/// Borrowed label pairs, as every recording method accepts them.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, labels: Labels<'_>, value: MetricValue) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(existing) = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name && m.labels == labels)
        {
            existing.value = value;
        } else {
            self.metrics.push(Metric {
                name: name.to_string(),
                labels,
                value,
            });
        }
    }

    /// Records (or replaces) a counter metric.
    pub fn counter(&mut self, name: &str, labels: Labels<'_>, value: u64) {
        self.push(name, labels, MetricValue::Counter(value));
    }

    /// Records (or replaces) a gauge metric.
    pub fn gauge(&mut self, name: &str, labels: Labels<'_>, value: f64) {
        self.push(name, labels, MetricValue::Gauge(value));
    }

    /// Adds `delta` to a counter metric, creating it at `delta` if absent.
    /// Unlike [`Registry::counter`] (which replaces the value), this is the
    /// accumulation primitive long-running services want: each event site
    /// bumps the metric without owning its total. A same-identity metric
    /// that is not a counter is replaced by `Counter(delta)`.
    pub fn incr_counter(&mut self, name: &str, labels: Labels<'_>, delta: u64) {
        let current = match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        self.push(name, labels, MetricValue::Counter(current + delta));
    }

    /// Records (or replaces) a histogram metric with a copy of `h`.
    pub fn histogram(&mut self, name: &str, labels: Labels<'_>, h: &Histogram) {
        self.push(name, labels, MetricValue::Histogram(h.clone()));
    }

    /// Plugs a [`Counter`] in as a counter metric.
    pub fn record_counter(&mut self, name: &str, labels: Labels<'_>, c: &Counter) {
        self.counter(name, labels, c.get());
    }

    /// Plugs an [`Average`] in as a gauge of its mean.
    pub fn record_average(&mut self, name: &str, labels: Labels<'_>, a: &Average) {
        self.gauge(name, labels, a.mean());
    }

    /// All metrics, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks a metric up by name and exact label set.
    pub fn get(&self, name: &str, labels: Labels<'_>) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
            })
            .map(|m| &m.value)
    }

    /// Serializes the registry as a JSON array of metric objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.metrics
                .iter()
                .map(|m| {
                    let mut pairs = vec![("name", Json::Str(m.name.clone()))];
                    if !m.labels.is_empty() {
                        pairs.push((
                            "labels",
                            Json::Obj(
                                m.labels
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                    .collect(),
                            ),
                        ));
                    }
                    match &m.value {
                        MetricValue::Counter(v) => {
                            pairs.push(("type", Json::Str("counter".into())));
                            pairs.push(("value", Json::Num(*v as f64)));
                        }
                        MetricValue::Gauge(v) => {
                            pairs.push(("type", Json::Str("gauge".into())));
                            pairs.push(("value", Json::Num(*v)));
                        }
                        MetricValue::Histogram(h) => {
                            pairs.push(("type", Json::Str("histogram".into())));
                            pairs.push((
                                "value",
                                Json::obj(vec![
                                    ("bin_width", Json::Num(h.bin_width() as f64)),
                                    (
                                        "bins",
                                        Json::Arr(
                                            h.bins().iter().map(|&c| Json::Num(c as f64)).collect(),
                                        ),
                                    ),
                                    ("overflow", Json::Num(h.overflow() as f64)),
                                    ("total", Json::Num(h.total() as f64)),
                                    ("sum", Json::Num(h.sum() as f64)),
                                    ("max", Json::Num(h.max() as f64)),
                                    ("p50", Json::Num(h.quantile(0.50))),
                                    ("p90", Json::Num(h.quantile(0.90))),
                                    ("p99", Json::Num(h.quantile(0.99))),
                                ]),
                            ));
                        }
                    }
                    Json::obj(pairs)
                })
                .collect(),
        )
    }

    /// Reconstructs a registry from [`Registry::to_json`] output.
    ///
    /// Unknown metric types are skipped (forward compatibility), and so is a
    /// histogram of a shape [`Histogram::new`] rejects (zero or missing bin
    /// width, no bins).
    pub fn from_json(json: &Json) -> Registry {
        let mut reg = Registry::new();
        let Some(items) = json.as_arr() else {
            return reg;
        };
        for item in items {
            let Some(name) = item.get("name").and_then(Json::as_str) else {
                continue;
            };
            let labels: Vec<(String, String)> = match item.get("labels") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_string())))
                    .collect(),
                _ => Vec::new(),
            };
            let value = match (item.get("type").and_then(Json::as_str), item.get("value")) {
                (Some("counter"), Some(v)) => v.as_u64().map(MetricValue::Counter),
                (Some("gauge"), Some(v)) => v.as_f64().map(MetricValue::Gauge),
                (Some("histogram"), Some(v)) => {
                    let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                    Histogram::from_parts(
                        num("bin_width"),
                        v.get("bins")
                            .and_then(Json::as_arr)
                            .map(|xs| xs.iter().filter_map(Json::as_u64).collect())
                            .unwrap_or_default(),
                        num("overflow"),
                        num("total"),
                        v.get("sum").and_then(Json::as_f64).unwrap_or(0.0) as u128,
                        num("max"),
                    )
                    .map(MetricValue::Histogram)
                }
                _ => None,
            };
            if let Some(value) = value {
                reg.metrics.push(Metric {
                    name: name.to_string(),
                    labels,
                    value,
                });
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(bin_width: u64, nbins: usize, samples: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new(bin_width, nbins);
        for v in samples {
            h.record(v);
        }
        h
    }

    fn uniform_hist() -> Histogram {
        // 100 samples spread evenly: 10 in each of bins [0,10), [10,20), …
        recorded(10, 10, 0..100)
    }

    #[test]
    fn quantile_uniform_interpolates() {
        let h = uniform_hist();
        // Rank 50 lands at the end of bin 4 ([40,50)): 40 + 10·(50−40)/10 = 50.
        assert!((h.quantile(0.5) - 50.0).abs() < 1e-9);
        assert!((h.quantile(0.25) - 25.0).abs() < 1e-9);
        // Interpolation inside a bin: rank 95 → 90 + 10·(95−90)/10 = 95.
        assert!((h.quantile(0.95) - 95.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edges() {
        let h = uniform_hist();
        assert_eq!(h.quantile(1.0), 99.0, "p100 is the recorded max");
        assert!(h.quantile(0.0) <= 10.0, "p0 stays in the first bin");
        assert_eq!(Histogram::new(1, 4).quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_overflow_resolves_to_max() {
        // Five samples in bin [0,10), five past the last bin, max 1234.
        let h = recorded(10, 3, [0, 1, 2, 3, 4, 30, 40, 50, 60, 1234]);
        assert_eq!(h.overflow(), 5);
        assert_eq!(h.quantile(0.9), 1234.0);
        assert!(h.quantile(0.4) <= 10.0);
    }

    #[test]
    fn quantile_single_spike() {
        // All mass in one width-1 bin: every quantile stays inside [7, 8).
        let h = recorded(1, 8, [7; 20]);
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q);
            assert!((7.0..8.0).contains(&v), "q{q} -> {v}");
        }
    }

    #[test]
    fn registry_lookup_and_replace() {
        let mut reg = Registry::new();
        reg.counter("acts", &[("bank", "0")], 10);
        reg.counter("acts", &[("bank", "1")], 20);
        reg.counter("acts", &[("bank", "0")], 15); // replace
        reg.gauge("ipc", &[], 1.5);
        assert_eq!(reg.len(), 3);
        assert_eq!(
            reg.get("acts", &[("bank", "0")]),
            Some(&MetricValue::Counter(15))
        );
        assert_eq!(reg.get("ipc", &[]), Some(&MetricValue::Gauge(1.5)));
        assert_eq!(reg.get("acts", &[]), None, "labels are part of identity");
    }

    #[test]
    fn incr_counter_accumulates() {
        let mut reg = Registry::new();
        reg.incr_counter("cells_done", &[], 1);
        reg.incr_counter("cells_done", &[], 2);
        reg.incr_counter("cells_done", &[("campaign", "a")], 5);
        assert_eq!(reg.get("cells_done", &[]), Some(&MetricValue::Counter(3)));
        assert_eq!(
            reg.get("cells_done", &[("campaign", "a")]),
            Some(&MetricValue::Counter(5))
        );
        // A non-counter under the same identity is replaced, not summed.
        reg.gauge("load", &[], 9.0);
        reg.incr_counter("load", &[], 4);
        assert_eq!(reg.get("load", &[]), Some(&MetricValue::Counter(4)));
    }

    #[test]
    fn sim_core_primitives_plug_in() {
        let mut c = Counter::new();
        c.add(7);
        let avg: Average = [1.0, 3.0].into_iter().collect();
        let h = recorded(1, 4, [2]);

        let mut reg = Registry::new();
        reg.record_counter("c", &[], &c);
        reg.record_average("a", &[], &avg);
        reg.histogram("h", &[], &h);
        assert_eq!(reg.get("c", &[]), Some(&MetricValue::Counter(7)));
        assert_eq!(reg.get("a", &[]), Some(&MetricValue::Gauge(2.0)));
        assert_eq!(reg.get("h", &[]), Some(&MetricValue::Histogram(h)));
    }

    #[test]
    fn json_round_trip() {
        let mut reg = Registry::new();
        reg.counter("acts", &[("scenario", "AutoRFM-4")], 123);
        reg.gauge("ipc", &[], 2.25);
        reg.histogram("lat", &[], &recorded(2, 3, [1, 5, 99]));

        let json = reg.to_json();
        let back = Registry::from_json(&Json::parse(&json.to_pretty()).unwrap());
        assert_eq!(back, reg);
    }

    #[test]
    fn metric_key_format() {
        let mut reg = Registry::new();
        reg.counter("acts", &[("bank", "3"), ("ch", "0")], 1);
        reg.gauge("ipc", &[], 0.0);
        let keys: Vec<String> = reg.iter().map(Metric::key).collect();
        assert_eq!(keys, vec!["acts{bank=3,ch=0}", "ipc"]);
    }
}

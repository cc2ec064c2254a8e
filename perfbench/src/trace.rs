//! In-memory spans of a traced run. Hot layer calls are aggregated by
//! `(name, parent)` into count and total time; coarse spans (round, cell,
//! campaign, request) also keep their own id and parent id. A layer's self
//! time is its total minus the totals of the spans whose parent it is. The
//! whole trace is written as one JSON file when the run ends.

use autorfm::telemetry::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Count and total duration of every span with one `(name, parent)`.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
}

/// One coarse span.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// The spans of one traced run.
pub struct Tracer {
    origin: Instant,
    layers: BTreeMap<(String, String), Agg>,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            next_id: 1,
        }
    }
}

/// Nanoseconds between two instants.
pub fn ns(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

impl Tracer {
    /// A fresh span id.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Adds `count` calls of `name` under `parent` that took `total_ns`.
    pub fn add(&mut self, name: &str, parent: &str, count: u64, total_ns: u64) {
        let agg = self
            .layers
            .entry((name.to_string(), parent.to_string()))
            .or_default();
        agg.count += count;
        agg.total_ns += total_ns;
    }

    /// Records coarse span `id` (child of `parent`, a `(id, name)` pair)
    /// from `start` to `end`, and aggregates it like a layer call.
    pub fn span(
        &mut self,
        id: u64,
        name: &str,
        parent: Option<(u64, &str)>,
        start: Instant,
        end: Instant,
    ) {
        self.add(name, parent.map_or("", |p| p.1), 1, ns(start, end));
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            name: name.to_string(),
            start_ns: ns(self.origin, start),
            dur_ns: ns(start, end),
        });
    }

    /// Total time of `name` under any parent.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, a)| a.total_ns)
            .sum()
    }

    /// Calls of `name` under any parent.
    pub fn count(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, a)| a.count)
            .sum()
    }

    /// Total time of `name` minus the time of its direct children.
    pub fn self_ns(&self, name: &str) -> u64 {
        let children: u64 = self
            .layers
            .iter()
            .filter(|((_, p), _)| p == name)
            .map(|(_, a)| a.total_ns)
            .sum();
        self.total_ns(name).saturating_sub(children)
    }

    /// Writes `<dir>/<workload>.trace.json`: the `header` fields, then every
    /// layer with count, total and self time, then every coarse span.
    pub fn write(
        &self,
        dir: &Path,
        workload: &str,
        header: Vec<(&str, Json)>,
    ) -> std::io::Result<()> {
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        let layers = self
            .layers
            .iter()
            .map(|((name, parent), agg)| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("parent", Json::Str(parent.clone())),
                    ("count", Json::Num(agg.count as f64)),
                    ("total_ms", ms(agg.total_ns)),
                    ("self_ms", ms(self.self_ns(name))),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ms", ms(s.start_ns)),
                    ("dur_ms", ms(s.dur_ns)),
                ])
            })
            .collect();
        let mut fields = header;
        fields.push(("layers", Json::Arr(layers)));
        fields.push(("spans", Json::Arr(spans)));
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{workload}.trace.json")),
            Json::obj(fields).to_pretty(),
        )
    }
}

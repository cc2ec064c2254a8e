//! Machine-readable run manifests.
//!
//! A [`RunManifest`] is the JSON document written to `results/<target>.json`
//! alongside each experiment's human-readable `.txt` report. It captures what
//! was run (config, seed, jobs), on what (host parallelism), how it went
//! (wall-clock, exit code, simulated-cycles-per-second throughput), the final
//! metrics registry, and optional per-run epoch time series. The documented
//! schema lives in EXPERIMENTS.md; [`SCHEMA_VERSION`] gates compatibility.

use crate::epoch::EpochSeries;
use crate::json::Json;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::path::Path;

/// Current manifest schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Metrics and optional time series for one `(workload, scenario)` cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunEntry {
    /// Identity, e.g. `"bwaves/AutoRFM-4"`.
    pub key: String,
    /// Final metrics of the cell.
    pub metrics: Registry,
    /// Epoch time series, when sampling was enabled.
    pub series: Option<EpochSeries>,
}

/// The manifest of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Experiment target name, e.g. `"fig03_rfm_slowdown"`.
    pub target: String,
    /// Schema version ([`SCHEMA_VERSION`] on write).
    pub schema_version: u64,
    /// Free-form configuration pairs (cores, instructions, seed, …).
    pub config: Vec<(String, Json)>,
    /// Worker threads the run used.
    pub jobs: u64,
    /// `available_parallelism()` of the host that produced the run.
    pub host_parallelism: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process exit code, when recorded by the harness.
    pub exit_code: Option<i64>,
    /// Total simulated cycles across all simulations of the run.
    pub sim_cycles: u64,
    /// Simulated cycles per wall-clock second (throughput trajectory metric).
    pub cycles_per_sec: f64,
    /// Aggregate final metrics.
    pub metrics: Registry,
    /// Per-`(workload, scenario)` cells.
    pub runs: Vec<RunEntry>,
}

impl RunManifest {
    /// Creates an empty manifest for `target`.
    pub fn new(target: &str) -> Self {
        RunManifest {
            target: target.to_string(),
            schema_version: SCHEMA_VERSION,
            config: Vec::new(),
            jobs: 1,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            wall_s: 0.0,
            exit_code: None,
            sim_cycles: 0,
            cycles_per_sec: 0.0,
            metrics: Registry::new(),
            runs: Vec::new(),
        }
    }

    /// Adds (or replaces) a configuration pair.
    pub fn set_config(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.config.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.config.push((key.to_string(), value));
        }
    }

    /// Serializes the manifest.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("target", Json::Str(self.target.clone())),
            ("config", Json::Obj(self.config.clone())),
            ("jobs", Json::Num(self.jobs as f64)),
            ("host_parallelism", Json::Num(self.host_parallelism as f64)),
            ("wall_s", Json::Num(self.wall_s)),
        ];
        if let Some(code) = self.exit_code {
            pairs.push(("exit_code", Json::Num(code as f64)));
        }
        pairs.push(("sim_cycles", Json::Num(self.sim_cycles as f64)));
        pairs.push(("cycles_per_sec", Json::Num(self.cycles_per_sec)));
        pairs.push(("metrics", self.metrics.to_json()));
        pairs.push((
            "runs",
            Json::Arr(
                self.runs
                    .iter()
                    .map(|r| {
                        let mut entry = vec![
                            ("key", Json::Str(r.key.clone())),
                            ("metrics", r.metrics.to_json()),
                        ];
                        if let Some(series) = &r.series {
                            entry.push(("series", series.to_json()));
                        }
                        Json::obj(entry)
                    })
                    .collect(),
            ),
        ));
        Json::obj(pairs)
    }

    /// Parses a manifest from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message if the document is not a manifest (missing `target`
    /// or an unsupported `schema_version`).
    pub fn from_json(json: &Json) -> Result<RunManifest, String> {
        let target = json
            .get("target")
            .and_then(Json::as_str)
            .ok_or("manifest is missing \"target\"")?
            .to_string();
        let schema_version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("manifest is missing \"schema_version\"")?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "manifest schema v{schema_version} is newer than supported v{SCHEMA_VERSION}"
            ));
        }
        let config = match json.get("config") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        };
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|item| {
                        Some(RunEntry {
                            key: item.get("key")?.as_str()?.to_string(),
                            metrics: item
                                .get("metrics")
                                .map(Registry::from_json)
                                .unwrap_or_default(),
                            series: item.get("series").map(EpochSeries::from_json),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunManifest {
            target,
            schema_version,
            config,
            jobs: json.get("jobs").and_then(Json::as_u64).unwrap_or(1),
            host_parallelism: json
                .get("host_parallelism")
                .and_then(Json::as_u64)
                .unwrap_or(1),
            wall_s: json.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
            exit_code: json
                .get("exit_code")
                .and_then(Json::as_f64)
                .map(|c| c as i64),
            sim_cycles: json.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0),
            cycles_per_sec: json
                .get("cycles_per_sec")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            metrics: json
                .get("metrics")
                .map(Registry::from_json)
                .unwrap_or_default(),
            runs,
        })
    }

    /// Reads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O, JSON, or schema problems.
    pub fn load(path: &Path) -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json =
            Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        Self::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Finds the run entry with the given key.
    pub fn run(&self, key: &str) -> Option<&RunEntry> {
        self.runs.iter().find(|r| r.key == key)
    }

    /// A human-readable summary (the `telemetry_report summary` output).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "target            : {}", self.target);
        for (k, v) in &self.config {
            let _ = writeln!(out, "config.{k:<11}: {}", v.to_compact());
        }
        let _ = writeln!(out, "jobs              : {}", self.jobs);
        let _ = writeln!(out, "host parallelism  : {}", self.host_parallelism);
        let _ = writeln!(out, "wall clock        : {:.3} s", self.wall_s);
        if let Some(code) = self.exit_code {
            let _ = writeln!(out, "exit code         : {code}");
        }
        if self.sim_cycles > 0 {
            let _ = writeln!(out, "simulated cycles  : {}", self.sim_cycles);
            let _ = writeln!(
                out,
                "throughput        : {:.3e} cycles/s",
                self.cycles_per_sec
            );
        }
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "metrics           :");
            for m in self.metrics.iter() {
                let _ = writeln!(out, "    {m}");
            }
        }
        if !self.runs.is_empty() {
            let with_series = self.runs.iter().filter(|r| r.series.is_some()).count();
            let _ = writeln!(
                out,
                "runs              : {} ({} with epoch series)",
                self.runs.len(),
                with_series
            );
            for r in &self.runs {
                let epochs = r.series.as_ref().map_or(0, |s| s.samples.len());
                let _ = writeln!(out, "    {} [{} epochs]", r.key, epochs);
            }
        }
        out
    }

    /// Compares this manifest's top-level metrics against `other`'s.
    pub fn diff(&self, other: &RunManifest) -> Vec<MetricDelta> {
        let mut deltas = Vec::new();
        for m in self.metrics.iter() {
            let key = m.key();
            let b = other
                .metrics
                .iter()
                .find(|o| o.key() == key)
                .map(|o| o.value.scalar());
            deltas.push(MetricDelta {
                key,
                a: Some(m.value.scalar()),
                b,
            });
        }
        for o in other.metrics.iter() {
            let key = o.key();
            if !self.metrics.iter().any(|m| m.key() == key) {
                deltas.push(MetricDelta {
                    key,
                    a: None,
                    b: Some(o.value.scalar()),
                });
            }
        }
        deltas
    }
}

/// One metric compared across two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric identity (`name{labels}`).
    pub key: String,
    /// Value in the first manifest, if present.
    pub a: Option<f64>,
    /// Value in the second manifest, if present.
    pub b: Option<f64>,
}

impl MetricDelta {
    /// `b − a`, when both sides exist.
    pub fn delta(&self) -> Option<f64> {
        Some(self.b? - self.a?)
    }

    /// Relative change `(b − a) / a`, when defined.
    pub fn relative(&self) -> Option<f64> {
        let (a, b) = (self.a?, self.b?);
        if a == 0.0 {
            None
        } else {
            Some((b - a) / a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        let mut m = RunManifest::new("fig03_rfm_slowdown");
        m.set_config("cores", Json::Num(8.0));
        m.set_config("instructions", Json::Num(25_000.0));
        m.set_config("seed", Json::Num(42.0));
        m.jobs = 4;
        m.wall_s = 1.25;
        m.sim_cycles = 4_000_000;
        m.cycles_per_sec = 3.2e6;
        m.metrics.counter("acts", &[], 1000);
        m.metrics.gauge("mean_slowdown", &[], 0.33);
        m.runs.push(RunEntry {
            key: "bwaves/RFM-4".into(),
            metrics: {
                let mut r = Registry::new();
                r.counter("acts", &[], 500);
                r
            },
            series: None,
        });
        m
    }

    #[test]
    fn round_trips_through_json() {
        let m = manifest();
        let text = m.to_json().to_pretty();
        let back = RunManifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("autorfm-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        let m = manifest();
        std::fs::write(&path, m.to_json().to_pretty()).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back.target, "fig03_rfm_slowdown");
        assert_eq!(back.run("bwaves/RFM-4").unwrap().metrics.len(), 1);
    }

    #[test]
    fn rejects_non_manifests() {
        assert!(RunManifest::from_json(&Json::parse("{}").unwrap()).is_err());
        let newer = Json::obj(vec![
            ("target", Json::Str("x".into())),
            ("schema_version", Json::Num(99.0)),
        ]);
        assert!(RunManifest::from_json(&newer).is_err());
    }

    /// Malformed and truncated files must come back as `Err`, never a panic —
    /// `telemetry_report` turns these into a message and a nonzero exit.
    #[test]
    fn load_errors_cleanly_on_damaged_files() {
        let dir = std::env::temp_dir().join("autorfm-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [
            ("garbage.json", "not json at all"),
            ("truncated.json", "{\"target\": \"x\", \"exit_code\":"),
            ("empty.json", ""),
            ("wrong_shape.json", "[1, 2, 3]"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let err = RunManifest::load(&path).expect_err(name);
            assert!(err.contains(name), "error should name the file: {err}");
            let _ = std::fs::remove_file(&path);
        }
        assert!(RunManifest::load(&dir.join("missing.json")).is_err());
    }

    #[test]
    fn set_config_replaces() {
        let mut m = RunManifest::new("t");
        m.set_config("cores", Json::Num(8.0));
        m.set_config("cores", Json::Num(2.0));
        assert_eq!(m.config.len(), 1);
        assert_eq!(m.config[0].1, Json::Num(2.0));
    }

    #[test]
    fn diff_reports_changes_and_missing() {
        let a = manifest();
        let mut b = manifest();
        b.metrics.counter("acts", &[], 1100);
        b.metrics.gauge("extra", &[], 1.0);
        let deltas = a.diff(&b);
        let acts = deltas.iter().find(|d| d.key == "acts").unwrap();
        assert_eq!(acts.delta(), Some(100.0));
        assert!((acts.relative().unwrap() - 0.1).abs() < 1e-12);
        let extra = deltas.iter().find(|d| d.key == "extra").unwrap();
        assert_eq!(extra.a, None);
        assert_eq!(extra.delta(), None);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let s = manifest().summary();
        assert!(s.contains("fig03_rfm_slowdown"));
        assert!(s.contains("config.cores"));
        assert!(s.contains("cycles/s"));
        assert!(s.contains("bwaves/RFM-4"));
    }
}

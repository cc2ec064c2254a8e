//! Sweep cells and sweep requests.
//!
//! A **cell** is one point of a sweep: a workload under a scenario at a core
//! count, instruction budget, and seed. Its identity is the key of the
//! configuration it runs ([`SimConfig::key`]: the model fingerprint plus
//! every configuration field), which is also the file name in the
//! content-addressed store — so two campaigns (or a campaign and a `run_all`
//! batch) asking for the same simulation land on the same record, and a
//! record written by another model is never served.
//!
//! A **sweep request** is the client-facing description: lists of workloads,
//! scenario names, tracker names, and thresholds that expand into the cross
//! product of cells. Its canonical JSON form doubles as the campaign
//! identity (a digest of the compact encoding), so resubmitting the same
//! request is idempotent.

use autorfm::experiments::Scenario;
use autorfm::sim_core::ConfigError;
use autorfm::snapshot::store::CellRecord;
use autorfm::snapshot::{digest64, Reader, Snapshot, Writer};
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;
use autorfm::workloads::WorkloadSpec;
use autorfm::{SimConfig, SimResult};
use std::collections::HashSet;

/// One sweep point: everything that determines a simulation's result bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The workload every core runs (rate mode).
    pub workload: &'static WorkloadSpec,
    /// The mitigation scenario.
    pub scenario: Scenario,
    /// Number of cores.
    pub cores: u8,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload-generator seed.
    pub seed: u64,
}

impl CellSpec {
    /// The cell's content-address in the store: the [`SimConfig::key`] of
    /// the configuration [`CellSpec::config`] builds. Computed before
    /// validation, so an invalid cell still has a key for its failure record.
    pub fn key(&self) -> u64 {
        self.assemble().key()
    }

    /// Builds the runnable configuration for this cell.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the combination is invalid (e.g. a zero
    /// core count).
    pub fn config(&self) -> Result<SimConfig, ConfigError> {
        let cfg = self.assemble();
        cfg.validate()?;
        Ok(cfg)
    }

    /// The cell's configuration, not yet validated.
    fn assemble(&self) -> SimConfig {
        let mut cfg = SimConfig::scenario(self.workload, self.scenario);
        cfg.num_cores = self.cores;
        cfg.instructions_per_core = self.instructions;
        cfg.seed = self.seed;
        cfg
    }

    /// The cell as a JSON object (the manifest row shape).
    pub fn to_json(&self) -> Json {
        self.json_row(self.key())
    }

    /// [`CellSpec::to_json`] with the key already at hand (computing it
    /// renders the whole configuration).
    pub(crate) fn json_row(&self, key: u64) -> Json {
        Json::obj(vec![
            ("key", Json::Str(format!("{key:016x}"))),
            ("workload", Json::Str(self.workload.name.to_string())),
            ("scenario", Json::Str(self.scenario.to_string())),
            ("cores", Json::Num(f64::from(self.cores))),
            ("instructions", Json::Num(self.instructions as f64)),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    /// Rebuilds a cell from [`CellSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on a missing field, an unknown workload, an
    /// unparsable scenario name, or a number out of its field's range.
    pub fn from_json(json: &Json) -> Result<Self, ConfigError> {
        let workload_name = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError::new("cell is missing 'workload'"))?;
        let workload = WorkloadSpec::by_name(workload_name)
            .ok_or_else(|| ConfigError::new(format!("unknown workload '{workload_name}'")))?;
        let scenario: Scenario = json
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError::new("cell is missing 'scenario'"))?
            .parse()?;
        Ok(CellSpec {
            workload,
            scenario,
            cores: number(json.get("cores"), "cores", 8)?,
            instructions: number(json.get("instructions"), "instructions", 100_000)?,
            seed: number(json.get("seed"), "seed", 42)?,
        })
    }
}

/// `value` (the field `key`; `default` when absent) as a `T`: a value that
/// is not a non-negative integer or does not fit `T` is a [`ConfigError`],
/// never a silently truncated cast.
fn number<T: TryFrom<u64>>(value: Option<&Json>, key: &str, default: T) -> Result<T, ConfigError> {
    let Some(value) = value else {
        return Ok(default);
    };
    let n = value.as_u64().and_then(|n| T::try_from(n).ok());
    n.ok_or_else(|| ConfigError::new(format!("'{key}' out of range: {}", value.to_compact())))
}

/// The store record of cell `key`'s outcome (the result's [`Snapshot`]
/// bytes, or the failure message): the one stored form of a finished cell,
/// whoever computed it. `campaign check` digests the same bytes.
pub fn encode_record(key: u64, outcome: Result<&SimResult, &str>) -> CellRecord {
    match outcome {
        Ok(result) => {
            let mut w = Writer::new();
            result.encode(&mut w);
            CellRecord::ok(key, w.into_bytes())
        }
        Err(error) => CellRecord::failed(key, error),
    }
}

/// Decodes an [`encode_record`] record: the result, or the failure message,
/// or why the bytes no longer decode (e.g. an older build's). Callers set
/// their own policy: the harness re-runs a failure, the daemon serves it.
pub fn decode_record(record: &CellRecord) -> Result<SimResult, String> {
    let bytes = record.outcome.as_ref().map_err(String::clone)?;
    SimResult::decode(&mut Reader::new(bytes)).map_err(|e| format!("undecodable record: {e}"))
}

/// A client-submitted sweep: the cross product of workloads and scenarios.
///
/// Scenarios come from two axes that are unioned:
///
/// * `scenarios` — explicit scenario names (`"AutoRFM-4"`, `"baseline-zen"`,
///   any form [`Scenario`]'s `Display` prints);
/// * `trackers` × `thresholds` — every named tracker paired with every
///   threshold as `AutoRFM-{th}-{tracker}`. With `trackers` empty,
///   `thresholds` alone expand to plain `AutoRFM-{th}`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Human-readable campaign name (not part of cell identity).
    pub name: String,
    /// Workload names ([`WorkloadSpec::by_name`]).
    pub workloads: Vec<String>,
    /// Explicit scenario names.
    pub scenarios: Vec<String>,
    /// Tracker names to cross with `thresholds`.
    pub trackers: Vec<String>,
    /// AutoRFM thresholds.
    pub thresholds: Vec<u32>,
    /// Cores per cell.
    pub cores: u8,
    /// Instruction budget per core.
    pub instructions: u64,
    /// Workload-generator seed.
    pub seed: u64,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            name: "sweep".to_string(),
            workloads: Vec::new(),
            scenarios: Vec::new(),
            trackers: Vec::new(),
            thresholds: Vec::new(),
            cores: 8,
            instructions: 100_000,
            seed: 42,
        }
    }
}

impl SweepRequest {
    /// The campaign identity: a digest of the canonical (compact JSON)
    /// encoding, as 16 hex digits. Two textually different but semantically
    /// identical requests get the same id, so resubmission is idempotent.
    pub fn id(&self) -> String {
        format!("{:016x}", digest64(self.to_json().to_compact().as_bytes()))
    }

    /// Expands the request into its distinct cells, in deterministic
    /// (workload-major, then scenario) order. Cells that repeat within the
    /// request (e.g. `AutoRFM-4` listed explicitly *and* produced by the
    /// tracker × threshold cross) are emitted once.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an unknown workload, scenario, or tracker
    /// name, or when the request expands to no cells at all.
    pub fn expand(&self) -> Result<Vec<CellSpec>, ConfigError> {
        let mut scenarios: Vec<Scenario> = Vec::new();
        for name in &self.scenarios {
            scenarios.push(name.parse()?);
        }
        for tracker_name in &self.trackers {
            let tracker: TrackerKind = tracker_name.parse()?;
            for &th in &self.thresholds {
                scenarios.push(Scenario::AutoRfmWith { th, tracker });
            }
        }
        if self.trackers.is_empty() {
            for &th in &self.thresholds {
                scenarios.push(Scenario::AutoRfm { th });
            }
        }
        if scenarios.is_empty() {
            return Err(ConfigError::new(
                "sweep expands to no scenarios (give 'scenarios', 'thresholds', \
                 or 'trackers' + 'thresholds')",
            ));
        }
        if self.workloads.is_empty() {
            return Err(ConfigError::new("sweep names no workloads"));
        }
        let mut seen = HashSet::new();
        let mut cells = Vec::new();
        for workload_name in &self.workloads {
            let workload = WorkloadSpec::by_name(workload_name)
                .ok_or_else(|| ConfigError::new(format!("unknown workload '{workload_name}'")))?;
            for &scenario in &scenarios {
                let cell = CellSpec {
                    workload,
                    scenario,
                    cores: self.cores,
                    instructions: self.instructions,
                    seed: self.seed,
                };
                if seen.insert(cell.key()) {
                    cells.push(cell);
                }
            }
        }
        Ok(cells)
    }

    /// The canonical JSON form (fixed field order — the bytes [`Self::id`]
    /// digests).
    pub fn to_json(&self) -> Json {
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("workloads", strs(&self.workloads)),
            ("scenarios", strs(&self.scenarios)),
            ("trackers", strs(&self.trackers)),
            (
                "thresholds",
                Json::Arr(
                    self.thresholds
                        .iter()
                        .map(|&t| Json::Num(f64::from(t)))
                        .collect(),
                ),
            ),
            ("cores", Json::Num(f64::from(self.cores))),
            ("instructions", Json::Num(self.instructions as f64)),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    /// Parses a request from JSON; absent fields take the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `json` is not an object or a number is out
    /// of its field's range. (Name resolution errors surface later, from
    /// [`SweepRequest::expand`].)
    pub fn from_json(json: &Json) -> Result<Self, ConfigError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(ConfigError::new("sweep request must be a JSON object"));
        }
        let strings = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(|xs| {
                    xs.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        let defaults = SweepRequest::default();
        Ok(SweepRequest {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or(&defaults.name)
                .to_string(),
            workloads: strings("workloads"),
            scenarios: strings("scenarios"),
            trackers: strings("trackers"),
            thresholds: json
                .get("thresholds")
                .and_then(Json::as_arr)
                .map(|xs| {
                    xs.iter()
                        .map(|t| number(Some(t), "thresholds", 0))
                        .collect()
                })
                .transpose()?
                .unwrap_or_default(),
            cores: number(json.get("cores"), "cores", defaults.cores)?,
            instructions: number(
                json.get("instructions"),
                "instructions",
                defaults.instructions,
            )?,
            seed: number(json.get("seed"), "seed", defaults.seed)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SweepRequest {
        SweepRequest {
            name: "t".into(),
            workloads: vec!["mcf".into(), "wrf".into()],
            scenarios: vec!["baseline-zen".into()],
            trackers: vec!["pride".into()],
            thresholds: vec![4, 8],
            cores: 2,
            instructions: 5_000,
            seed: 42,
        }
    }

    #[test]
    fn expansion_is_the_cross_product() {
        // 2 workloads × (1 explicit + 1 tracker × 2 thresholds) = 6 cells.
        let cells = request().expand().unwrap();
        assert_eq!(cells.len(), 6);
        let names: Vec<String> = cells.iter().map(|c| c.scenario.to_string()).collect();
        assert!(names.contains(&"AutoRFM-4-pride".to_string()));
        assert!(names.contains(&"baseline-zen".to_string()));
    }

    #[test]
    fn zoo_trackers_expand_via_the_registry() {
        // Sweep requests resolve tracker names through the plugin registry,
        // so the zoo trackers (and any future registration) are sweepable
        // with no campaign-side edit — case-insensitively, like the CLI.
        let mut req = request();
        req.workloads = vec!["mcf".into()];
        req.scenarios.clear();
        req.trackers = vec!["graphene".into(), "ABACUS".into(), "oracle".into()];
        req.thresholds = vec![4];
        let names: Vec<String> = req
            .expand()
            .unwrap()
            .iter()
            .map(|c| c.scenario.to_string())
            .collect();
        assert_eq!(
            names,
            ["AutoRFM-4-graphene", "AutoRFM-4-abacus", "AutoRFM-4-oracle"]
        );
    }

    #[test]
    fn thresholds_without_trackers_mean_plain_autorfm() {
        let mut req = request();
        req.trackers.clear();
        req.scenarios.clear();
        let cells = req.expand().unwrap();
        assert_eq!(cells.len(), 4); // 2 workloads × 2 thresholds
        assert!(cells
            .iter()
            .all(|c| matches!(c.scenario, Scenario::AutoRfm { .. })));
    }

    #[test]
    fn duplicate_cells_collapse() {
        let mut req = request();
        req.workloads = vec!["mcf".into(), "mcf".into()];
        req.trackers.clear();
        req.thresholds.clear();
        assert_eq!(req.expand().unwrap().len(), 1);
    }

    #[test]
    fn empty_requests_are_rejected() {
        let mut req = request();
        req.workloads.clear();
        assert!(req.expand().is_err());
        let mut req = request();
        req.scenarios.clear();
        req.trackers.clear();
        req.thresholds.clear();
        assert!(req.expand().is_err());
    }

    #[test]
    fn request_round_trips_and_id_is_stable() {
        let req = request();
        let back =
            SweepRequest::from_json(&Json::parse(&req.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.id(), req.id());
        let mut other = request();
        other.seed = 43;
        assert_ne!(other.id(), req.id());
    }

    #[test]
    fn cell_round_trips() {
        let cell = request().expand().unwrap()[3];
        let back = CellSpec::from_json(&cell.to_json()).unwrap();
        assert_eq!(back, cell);
        assert_eq!(back.key(), cell.key());
    }

    #[test]
    fn cell_key_matches_store_keying() {
        // A cell's key is the key of the configuration it runs — the same
        // key the experiment harness files that configuration under.
        let cell = request().expand().unwrap()[0];
        let built = SimConfig::builder(cell.workload)
            .scenario(cell.scenario)
            .cores(cell.cores)
            .instructions(cell.instructions)
            .seed(cell.seed)
            .build()
            .unwrap();
        assert_eq!(cell.key(), built.key());
        assert_eq!(cell.key(), cell.config().unwrap().key());
        // An invalid cell still has a key (for its failure record).
        let invalid = CellSpec { cores: 0, ..cell };
        assert!(invalid.config().is_err());
        assert_ne!(invalid.key(), cell.key());
    }

    /// `json` with the value of `field` replaced by `value`.
    fn with_field(mut json: Json, field: &str, value: Json) -> Json {
        if let Json::Obj(pairs) = &mut json {
            for (key, v) in pairs.iter_mut() {
                if key == field {
                    *v = value.clone();
                }
            }
        }
        json
    }

    #[test]
    fn out_of_range_request_numbers_are_rejected() {
        let with =
            |field, value| SweepRequest::from_json(&with_field(request().to_json(), field, value));
        let over_u32 = Json::Num((u64::from(u32::MAX) + 5) as f64);
        assert!(
            with("cores", Json::Num(264.0)).is_err(),
            "264 cores is not 8"
        );
        assert!(with("cores", Json::Num(-1.0)).is_err());
        assert!(with("thresholds", Json::Arr(vec![over_u32])).is_err());
        assert!(with("thresholds", Json::Arr(vec![Json::Num(4.5)])).is_err());
        assert!(with("instructions", Json::Num(-5.0)).is_err());
        assert!(with("instructions", Json::Num(2f64.powi(60))).is_err());
        assert!(with("seed", Json::Num(0.5)).is_err());
        assert!(with("seed", Json::Str("42".into())).is_err());
        // In-range values still parse to themselves.
        let ok = with("cores", Json::Num(255.0)).unwrap();
        assert_eq!(ok.cores, 255);
    }

    #[test]
    fn out_of_range_cell_numbers_are_rejected() {
        let cell = request().expand().unwrap()[0];
        let with = |field, value| CellSpec::from_json(&with_field(cell.to_json(), field, value));
        assert!(with("cores", Json::Num(264.0)).is_err());
        assert!(with("instructions", Json::Num(-1.0)).is_err());
        assert!(with("seed", Json::Num(1.5)).is_err());
        assert_eq!(with("cores", Json::Num(2.0)).unwrap(), cell);
    }
}

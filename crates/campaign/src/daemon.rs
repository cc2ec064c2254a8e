//! The campaign daemon: scheduler, worker pool, dedup, and resumption.
//!
//! A [`Daemon`] owns one [`CellStore`] plus the in-memory view of every
//! campaign it knows about. Submitting a [`SweepRequest`] expands it into
//! cells and classifies each against the store and the live schedule:
//!
//! * already completed (in memory or on disk) → counted as a **dedup hit**;
//! * already queued or running for another campaign → dedup hit (the cell's
//!   one execution will serve both campaigns);
//! * genuinely new → grouped with same-shape cells
//!   ([`shape_units`]) into work units of at
//!   most `batch` lanes and queued.
//!
//! Workers pop units, run them through
//! [`run_batch_fallible`] — building lanes
//! from the bounded **warm pool** of [`Warm`] values, so only a shape's first
//! unit pays warmup — and persist every outcome (success *or* deterministic
//! failure) to the store before marking it finished. Because records hit disk
//! before the in-memory status turns done, a SIGKILL can lose at most the
//! in-flight unit: on restart the daemon rescans `<store>/campaigns/*.json`,
//! resubmits every persisted request, and the store classifies all previously
//! completed cells as dedup hits, so nothing finished is ever recomputed.

use crate::cell::{decode_record, encode_record, CellSpec, SweepRequest};
use crate::runner::{run_batch_fallible, shape_units, LANES};
use autorfm::sim_core::ConfigError;
use autorfm::snapshot::store::{CellRecord, CellStore};
use autorfm::telemetry::{Json, MetricValue, Registry};
use autorfm::{KernelKind, SimConfig, Warm};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The most shapes the warm pool holds (each one warmed LLC, about 2 MB at
/// the paper's geometry); when full it evicts its oldest entry first.
pub const WARM_POOL_SHAPES: usize = 16;

/// How a daemon is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the content-addressed store (shared across restarts and with
    /// `run_all --store` batches).
    pub store: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Maximum lanes per work unit: cells served by one warmup.
    pub batch: usize,
    /// Simulation kernel.
    pub kernel: KernelKind,
}

impl DaemonConfig {
    /// A configuration with sensible defaults: workers = available
    /// parallelism (capped at 8), batch [`LANES`], the event kernel.
    pub fn new(store: impl Into<PathBuf>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        DaemonConfig {
            store: store.into(),
            workers,
            batch: LANES,
            kernel: KernelKind::Event,
        }
    }
}

/// One queued unit of work: same-shape cells built from one warm state.
struct WorkUnit {
    /// The lanes' shared [`autorfm::warm_digest`] (the warm-pool key).
    shape: u64,
    /// `(cell key, configuration)` per lane.
    cells: Vec<(u64, SimConfig)>,
}

/// A registered campaign.
struct CampaignState {
    name: String,
    /// Every cell key the campaign covers, in expansion order.
    cells: Vec<u64>,
}

/// Where a cell is in its lifecycle: queued → running → done or failed, or
/// done or failed straight from a record already in the store.
#[derive(Clone)]
enum Status {
    /// In a queued work unit.
    Queued,
    /// Popped by a worker, currently executing.
    Running,
    /// Completed; a success record is in the store.
    Done,
    /// Failed deterministically; a failure record is in the store.
    Failed(String),
}

/// Status names, in [`Status::rank`] order.
const STATUS_NAMES: [&str; 4] = ["queued", "running", "done", "failed"];

impl Status {
    /// The status a stored record stands for.
    fn stored(record: &CellRecord) -> Self {
        match &record.outcome {
            Ok(_) => Status::Done,
            Err(msg) => Status::Failed(msg.clone()),
        }
    }

    fn rank(&self) -> usize {
        match self {
            Status::Queued => 0,
            Status::Running => 1,
            Status::Done => 2,
            Status::Failed(_) => 3,
        }
    }
}

/// One cell submitted in this daemon life.
struct Cell {
    spec: CellSpec,
    status: Status,
    /// Wall time (ns) of the work unit that computed it in this daemon life
    /// (`None` for store hits and cells that failed at submit).
    elapsed_ns: Option<u64>,
}

/// Cells per status, in [`Status::rank`] order: one pass over `cells`.
fn tally<'a>(cells: impl Iterator<Item = &'a Cell>) -> [usize; 4] {
    let mut counts = [0; 4];
    for cell in cells {
        counts[cell.status.rank()] += 1;
    }
    counts
}

/// All mutable scheduler state, under one lock.
#[derive(Default)]
struct State {
    campaigns: BTreeMap<String, CampaignState>,
    queue: VecDeque<WorkUnit>,
    /// Every cell submitted in this daemon life, by key.
    cells: HashMap<u64, Cell>,
    /// Warm pool: `(shape digest, warm state)`, oldest first, at most
    /// [`WARM_POOL_SHAPES`] entries.
    warm: VecDeque<(u64, Arc<Warm>)>,
}

struct Inner {
    cfg: DaemonConfig,
    store: CellStore,
    state: Mutex<State>,
    work_ready: Condvar,
    /// The daemon's one set of counters (`/metrics`; `/stats` reads them
    /// too). Bumped under the state lock, so a reader holding that lock sees
    /// counters that agree with the cell statuses.
    metrics: Mutex<Registry>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Inner {
    /// The unlabelled registry counter `name`.
    fn counter(&self, name: &str) -> u64 {
        match self.metrics.lock().expect("metrics lock").get(name, &[]) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }
}

/// What a submission did, per cell class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The campaign id ([`SweepRequest::id`]).
    pub id: String,
    /// Total distinct cells in the campaign.
    pub total: usize,
    /// Cells newly scheduled by this submission.
    pub scheduled: usize,
    /// Cells served by existing records or in-flight executions.
    pub deduped: usize,
}

/// The always-on campaign service. Cheap to clone (an [`Arc`] handle); all
/// clones share one scheduler, store, and worker pool.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Opens the store, starts the worker pool, and resumes every campaign
    /// persisted under `<store>/campaigns/` from a previous daemon life.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directories cannot be created.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Self> {
        let store = CellStore::open(&cfg.store)?;
        std::fs::create_dir_all(store.root().join("campaigns"))?;
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            store,
            state: Mutex::new(State::default()),
            work_ready: Condvar::new(),
            metrics: Mutex::new(Registry::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("campaign-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let daemon = Daemon {
            inner,
            workers: Arc::new(Mutex::new(handles)),
        };
        daemon.resume_persisted();
        Ok(daemon)
    }

    /// Re-submits every persisted campaign spec (crash/restart recovery).
    fn resume_persisted(&self) {
        let dir = self.inner.store.root().join("campaigns");
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut specs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        specs.sort();
        for path in specs {
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
                .and_then(|json| SweepRequest::from_json(&json).map_err(|e| e.to_string()));
            match parsed {
                Ok(req) => {
                    if let Err(e) = self.submit(&req) {
                        eprintln!("campaignd: cannot resume {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("campaignd: skipping {}: {e}", path.display()),
            }
        }
    }

    /// Registers a campaign and schedules its not-yet-known cells. The whole
    /// classification runs under the scheduler lock, so concurrent
    /// submissions with overlapping cells serialize and each shared cell is
    /// scheduled exactly once (the later submitter finds it known and takes
    /// a dedup hit). Resubmitting an identical request is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the request does not expand (unknown
    /// names, empty cross product).
    pub fn submit(&self, req: &SweepRequest) -> Result<SubmitOutcome, ConfigError> {
        let cells = req.expand()?;
        let id = req.id();
        // Persist the spec before scheduling: once a client has an id, a
        // restarted daemon must know how to finish the campaign. The write
        // is atomic, so a kill mid-write never leaves a truncated spec that
        // the restart would skip.
        let spec_path = self
            .inner
            .store
            .root()
            .join("campaigns")
            .join(format!("{id}.json"));
        let spec = req.to_json().to_pretty() + "\n";
        if let Err(e) = autorfm::snapshot::write_atomic(&spec_path, spec.as_bytes()) {
            eprintln!("campaignd: cannot persist {}: {e}", spec_path.display());
        }

        let keys: Vec<u64> = cells.iter().map(CellSpec::key).collect();
        let mut buildable: Vec<(u64, SimConfig)> = Vec::new();
        let mut deduped = 0usize;
        let mut failed = 0u64;
        let mut st = self.inner.state.lock().expect("state lock");
        for (&key, spec) in keys.iter().zip(&cells) {
            if st.cells.contains_key(&key) {
                deduped += 1;
                continue;
            }
            // Unknown to this life: adopt a stored record, else schedule.
            // A cell whose config is invalid fails here, without a worker,
            // and its record is stored for restarts and sibling campaigns.
            let status = if let Some(record) = self.inner.store.get(key) {
                deduped += 1;
                Status::stored(&record)
            } else {
                match spec.config() {
                    Ok(cfg) => {
                        buildable.push((key, cfg));
                        Status::Queued
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        let _ = self.inner.store.put(key, &encode_record(key, Err(&msg)));
                        failed += 1;
                        Status::Failed(msg)
                    }
                }
            };
            st.cells.insert(
                key,
                Cell {
                    spec: *spec,
                    status,
                    elapsed_ns: None,
                },
            );
        }
        let scheduled = buildable.len();
        // Group schedulable cells by shape so each unit shares one warmup,
        // chunked to the configured lane limit.
        for (shape, cells) in shape_units(buildable, self.inner.cfg.batch) {
            st.queue.push_back(WorkUnit { shape, cells });
        }
        st.campaigns.insert(
            id.clone(),
            CampaignState {
                name: req.name.clone(),
                cells: keys,
            },
        );
        {
            // `cells_queued` counts every new cell, config-invalid ones too.
            let new = (cells.len() - deduped) as u64;
            let mut m = self.inner.metrics.lock().expect("metrics lock");
            m.incr_counter("cells_queued", &[], new);
            m.incr_counter("cells_deduped", &[], deduped as u64);
            m.incr_counter("cells_failed", &[], failed);
            m.incr_counter("cells_queued", &[("campaign", &id)], new);
            m.incr_counter("cells_deduped", &[("campaign", &id)], deduped as u64);
        }
        drop(st);
        self.inner.work_ready.notify_all();
        Ok(SubmitOutcome {
            id,
            total: cells.len(),
            scheduled,
            deduped,
        })
    }

    /// The daemon's store (shared with tests and the HTTP layer).
    pub fn store(&self) -> &CellStore {
        &self.inner.store
    }

    /// Time since this daemon started.
    pub(crate) fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Asks workers to stop after their current unit. Queued units are
    /// abandoned (they resume from the store on the next start).
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Take the state lock before notifying: a worker that read the flag
        // as false under it is then already waiting, and wakes; notified
        // between its check and its wait, it would sleep forever.
        drop(self.inner.state.lock().expect("state lock"));
        self.inner.work_ready.notify_all();
    }

    /// Requests shutdown and joins the worker pool.
    pub fn stop(&self) {
        self.request_shutdown();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Dedup hits recorded in this daemon life.
    pub fn dedup_hits(&self) -> u64 {
        self.inner.counter("cells_deduped")
    }

    /// Cells simulated to completion in this daemon life.
    pub fn cells_computed(&self) -> u64 {
        self.inner.counter("cells_done")
    }

    /// Whether every cell of campaign `id` has finished (done or failed).
    /// `None` for an unknown campaign.
    pub fn is_complete(&self, id: &str) -> Option<bool> {
        let st = self.inner.state.lock().expect("state lock");
        let campaign = st.campaigns.get(id)?;
        Some(campaign.cells.iter().all(|k| {
            st.cells
                .get(k)
                .is_some_and(|c| matches!(c.status, Status::Done | Status::Failed(_)))
        }))
    }

    /// Status of campaign `id` as JSON; `None` for an unknown campaign.
    pub fn campaign_status(&self, id: &str) -> Option<Json> {
        let st = self.inner.state.lock().expect("state lock");
        let campaign = st.campaigns.get(id)?;
        Some(status_json(id, campaign, &st))
    }

    /// All campaigns' statuses.
    pub fn campaigns(&self) -> Json {
        let st = self.inner.state.lock().expect("state lock");
        Json::Arr(
            st.campaigns
                .iter()
                .map(|(id, c)| status_json(id, c, &st))
                .collect(),
        )
    }

    /// Full per-cell manifest of campaign `id`: spec, status, and (for
    /// completed cells) the result digest and headline perf, decoded from
    /// the store. `None` for an unknown campaign.
    pub fn campaign_manifest(&self, id: &str) -> Option<Json> {
        let st = self.inner.state.lock().expect("state lock");
        let campaign = st.campaigns.get(id)?;
        let rows = campaign
            .cells
            .iter()
            .filter_map(|key| self.cell_json_locked(*key, &st))
            .collect();
        let mut status = status_json(id, campaign, &st);
        if let Json::Obj(pairs) = &mut status {
            pairs.push(("cells".to_string(), Json::Arr(rows)));
        }
        Some(status)
    }

    /// One cell's record as JSON (spec, status, digest, perf, error). A cell
    /// only the store knows (another writer's, or from an earlier life whose
    /// campaign was not resubmitted) takes its status from the stored
    /// record. `None` for a key neither the daemon nor the store knows.
    pub fn cell(&self, key: u64) -> Option<Json> {
        let st = self.inner.state.lock().expect("state lock");
        self.cell_json_locked(key, &st)
    }

    fn cell_json_locked(&self, key: u64, st: &State) -> Option<Json> {
        let cell = st.cells.get(&key);
        let record = match cell.map(|c| &c.status) {
            Some(Status::Done) | None => self.inner.store.get(key),
            Some(_) => None,
        };
        let status = match (cell, &record) {
            (Some(c), _) => c.status.clone(),
            (None, Some(r)) => Status::stored(r),
            (None, None) => return None,
        };
        let mut pairs: Vec<(String, Json)> = match cell.map(|c| c.spec.json_row(key)) {
            Some(Json::Obj(fields)) => fields,
            _ => vec![("key".into(), Json::Str(format!("{key:016x}")))],
        };
        pairs.push((
            "status".into(),
            Json::Str(STATUS_NAMES[status.rank()].into()),
        ));
        if let Status::Failed(msg) = &status {
            pairs.push(("error".into(), Json::Str(msg.clone())));
        }
        if let Some(ns) = cell.and_then(|c| c.elapsed_ns) {
            pairs.push(("elapsed_ns".into(), Json::Num(ns as f64)));
        }
        if let (Status::Done, Some(record)) = (&status, &record) {
            if let Some(digest) = record.result_digest() {
                pairs.push(("result_digest".into(), Json::Str(format!("{digest:#018x}"))));
            }
            if let Ok(result) = decode_record(record) {
                pairs.push(("perf".into(), Json::Num(result.perf())));
                pairs.push((
                    "elapsed_sim_ns".into(),
                    Json::Num(result.elapsed.as_ns() as f64),
                ));
            }
        }
        Some(Json::Obj(pairs))
    }

    /// Global service statistics: the `/stats` payload, which the campaign
    /// smoke in `scripts/verify.sh` saves as `results/campaign_stats.json`.
    /// Cell statuses come from the cell table, computed and deduped cells
    /// from the metrics registry.
    pub fn stats(&self) -> Json {
        let (campaigns, queue_depth, [_, running, done, failed], computed, deduped) = {
            let st = self.inner.state.lock().expect("state lock");
            (
                st.campaigns.len(),
                st.queue.len(),
                tally(st.cells.values()),
                self.inner.counter("cells_done"),
                self.inner.counter("cells_deduped"),
            )
        };
        let uptime = self.uptime();
        let cells_per_sec = if uptime.as_secs_f64() > 0.0 {
            computed as f64 / uptime.as_secs_f64()
        } else {
            0.0
        };
        Json::obj(vec![
            ("campaigns", Json::Num(campaigns as f64)),
            // Fuzz-evaluation records adopted alongside sweep cells: the
            // store root is shared with the `attack_fuzz` experiment, so a
            // daemon pointed at its store reports the persisted evaluations.
            (
                "fuzz_records",
                Json::Num(self.inner.store.fuzz_len() as f64),
            ),
            ("cells_done", Json::Num(done as f64)),
            ("cells_failed", Json::Num(failed as f64)),
            ("cells_computed", Json::Num(computed as f64)),
            ("cells_deduped", Json::Num(deduped as f64)),
            ("cells_running", Json::Num(running as f64)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("cells_per_sec", Json::Num(cells_per_sec)),
            ("uptime_ns", Json::Num(uptime.as_nanos() as f64)),
            ("workers", Json::Num(self.inner.cfg.workers as f64)),
            ("batch", Json::Num(self.inner.cfg.batch as f64)),
            (
                "kernel",
                Json::Str(self.inner.cfg.kernel.name().to_string()),
            ),
        ])
    }

    /// The metrics registry as JSON, with point-in-time gauges refreshed.
    pub fn metrics_json(&self) -> Json {
        let stats = self.stats();
        let mut m = self.inner.metrics.lock().expect("metrics lock");
        for gauge in ["cells_running", "queue_depth", "cells_per_sec"] {
            if let Some(v) = stats.get(gauge).and_then(Json::as_f64) {
                m.gauge(gauge, &[], v);
            }
        }
        m.incr_counter("cells_done", &[], 0);
        m.to_json()
    }
}

fn status_json(id: &str, campaign: &CampaignState, st: &State) -> Json {
    let [queued, running, done, failed] =
        tally(campaign.cells.iter().filter_map(|k| st.cells.get(k)));
    Json::obj(vec![
        ("id", Json::Str(id.to_string())),
        ("name", Json::Str(campaign.name.clone())),
        ("total", Json::Num(campaign.cells.len() as f64)),
        ("done", Json::Num(done as f64)),
        ("failed", Json::Num(failed as f64)),
        ("running", Json::Num(running as f64)),
        ("queued", Json::Num(queued as f64)),
        (
            "complete",
            Json::Bool(done + failed == campaign.cells.len()),
        ),
    ])
}

/// The worker thread body: pop a unit, run it (from the pool's warm state
/// when it has the shape), persist every outcome, mark cells finished.
fn worker_loop(inner: &Inner) {
    loop {
        let (unit, warm) = {
            let mut st = inner.state.lock().expect("state lock");
            let unit = loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(unit) = st.queue.pop_front() {
                    break unit;
                }
                st = inner.work_ready.wait(st).expect("state lock");
            };
            for (key, _) in &unit.cells {
                if let Some(cell) = st.cells.get_mut(key) {
                    cell.status = Status::Running;
                }
            }
            let warm = st.warm.iter().find(|(shape, _)| *shape == unit.shape);
            (unit, warm.map(|(_, w)| Arc::clone(w)))
        };
        let cfgs: Vec<SimConfig> = unit.cells.iter().map(|(_, cfg)| cfg.clone()).collect();
        let t0 = Instant::now();
        let outcome = run_batch_fallible(&cfgs, warm, inner.cfg.kernel);
        let unit_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if let Some(warm) = outcome.warm {
            let mut st = inner.state.lock().expect("state lock");
            if st.warm.iter().all(|(shape, _)| *shape != unit.shape) {
                if st.warm.len() == WARM_POOL_SHAPES {
                    st.warm.pop_front();
                }
                st.warm.push_back((unit.shape, warm));
            }
        }
        for ((key, _), result) in unit.cells.iter().zip(outcome.results) {
            // Disk first, then the in-memory status: a kill between the two
            // re-runs an already-stored cell on restart (harmless, identical
            // bytes) rather than ever losing a "finished" cell.
            let record = encode_record(*key, result.as_ref().map_err(String::as_str));
            if let Err(e) = inner.store.put(*key, &record) {
                eprintln!("campaignd: cannot store cell {key:016x}: {e}");
            }
            let (status, counter) = match result {
                Ok(_) => (Status::Done, "cells_done"),
                Err(msg) => (Status::Failed(msg), "cells_failed"),
            };
            let mut st = inner.state.lock().expect("state lock");
            if let Some(cell) = st.cells.get_mut(key) {
                cell.status = status;
                cell.elapsed_ns = Some(unit_ns);
            }
            let mut m = inner.metrics.lock().expect("metrics lock");
            m.incr_counter(counter, &[], 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autorfm-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config(store: PathBuf) -> DaemonConfig {
        DaemonConfig {
            store,
            workers: 2,
            batch: 4,
            kernel: KernelKind::Event,
        }
    }

    fn wait_complete(daemon: &Daemon, id: &str) {
        let deadline = Instant::now() + Duration::from_secs(300);
        while !daemon.is_complete(id).unwrap_or(false) {
            assert!(Instant::now() < deadline, "campaign {id} timed out");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn campaign_runs_to_completion_and_persists() {
        let dir = scratch("basic");
        let daemon = Daemon::start(tiny_config(dir.clone())).unwrap();
        let req = SweepRequest {
            name: "basic".into(),
            workloads: vec!["mcf".into()],
            scenarios: vec!["baseline-zen".into(), "AutoRFM-4".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        let outcome = daemon.submit(&req).unwrap();
        assert_eq!(outcome.total, 2);
        assert_eq!(outcome.scheduled, 2);
        assert_eq!(outcome.deduped, 0);
        wait_complete(&daemon, &outcome.id);
        assert_eq!(daemon.cells_computed(), 2);
        assert_eq!(daemon.store().len(), 2);
        // Resubmission is pure dedup.
        let again = daemon.submit(&req).unwrap();
        assert_eq!(again.id, outcome.id);
        assert_eq!(again.scheduled, 0);
        assert_eq!(again.deduped, 2);
        let status = daemon.campaign_status(&outcome.id).unwrap();
        assert_eq!(status.get("done").and_then(Json::as_u64), Some(2));
        daemon.stop();
        // A fresh daemon over the same store resumes with everything done.
        let daemon2 = Daemon::start(tiny_config(dir.clone())).unwrap();
        assert_eq!(daemon2.is_complete(&outcome.id), Some(true));
        assert_eq!(daemon2.cells_computed(), 0, "nothing recomputed");
        daemon2.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cells_are_recorded_not_fatal() {
        let dir = scratch("failure");
        let daemon = Daemon::start(tiny_config(dir.clone())).unwrap();
        let req = SweepRequest {
            name: "failure".into(),
            workloads: vec!["mcf".into()],
            // Threshold 0 is invalid for every tracker; 4 is fine.
            scenarios: vec!["AutoRFM-0".into(), "AutoRFM-4".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        let outcome = daemon.submit(&req).unwrap();
        wait_complete(&daemon, &outcome.id);
        let status = daemon.campaign_status(&outcome.id).unwrap();
        assert_eq!(status.get("done").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("failed").and_then(Json::as_u64), Some(1));
        let manifest = daemon.campaign_manifest(&outcome.id).unwrap();
        let cells = manifest.get("cells").and_then(Json::as_arr).unwrap();
        let failed = cells
            .iter()
            .find(|c| c.get("status").and_then(Json::as_str) == Some("failed"))
            .unwrap();
        assert!(failed.get("error").and_then(Json::as_str).is_some());
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/stats` `[cells_done, cells_failed, cells_computed, cells_deduped]`
    /// and `/metrics` `[cells_queued, cells_deduped, cells_done,
    /// cells_failed]` (unlabelled).
    fn counts(daemon: &Daemon) -> ([u64; 4], [u64; 4]) {
        let stats = daemon.stats();
        let stat = |name| stats.get(name).and_then(Json::as_u64).unwrap();
        let metrics = daemon.metrics_json();
        let metric = |name| {
            let row = metrics.as_arr().unwrap().iter().find(|m| {
                m.get("name").and_then(Json::as_str) == Some(name) && m.get("labels").is_none()
            });
            row.and_then(|m| m.get("value"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        (
            [
                "cells_done",
                "cells_failed",
                "cells_computed",
                "cells_deduped",
            ]
            .map(stat),
            [
                "cells_queued",
                "cells_deduped",
                "cells_done",
                "cells_failed",
            ]
            .map(metric),
        )
    }

    #[test]
    fn submit_time_failures_and_dedups_are_counted() {
        let dir = scratch("counters");
        let daemon = Daemon::start(tiny_config(dir.clone())).unwrap();
        let valid = SweepRequest {
            name: "valid".into(),
            workloads: vec!["mcf".into()],
            scenarios: vec!["AutoRFM-4".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        // A zero instruction budget fails at submit (invalid config).
        let invalid = SweepRequest {
            name: "invalid".into(),
            instructions: 0,
            ..valid.clone()
        };
        let submit = |req: &SweepRequest| {
            let outcome = daemon.submit(req).unwrap();
            wait_complete(&daemon, &outcome.id);
            (outcome.scheduled, outcome.deduped)
        };
        assert_eq!((submit(&valid), submit(&invalid)), ((1, 0), (0, 0)));
        assert_eq!(counts(&daemon), ([1, 1, 1, 0], [2, 0, 1, 1]));
        // Resubmission: both cells are dedup hits, nothing else moves.
        assert_eq!((submit(&valid), submit(&invalid)), ((0, 1), (0, 1)));
        assert_eq!(counts(&daemon), ([1, 1, 1, 2], [2, 2, 1, 1]));
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One worker and one lane per unit: every unit after a shape's first is
    /// built from the pooled warm state, and its record is still the
    /// standalone run's.
    #[test]
    fn pooled_units_store_standalone_records() {
        let dir = scratch("pooled");
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            batch: 1,
            ..tiny_config(dir.clone())
        })
        .unwrap();
        let req = SweepRequest {
            name: "pooled".into(),
            workloads: vec!["mcf".into()],
            scenarios: vec!["baseline-zen".into(), "AutoRFM-4".into(), "RFM-8".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        let outcome = daemon.submit(&req).unwrap();
        assert_eq!(outcome.scheduled, 3);
        wait_complete(&daemon, &outcome.id);
        assert_eq!(daemon.inner.state.lock().unwrap().warm.len(), 1);
        for spec in req.expand().unwrap() {
            let standalone = autorfm::System::new(spec.config().unwrap()).unwrap().run();
            assert_eq!(
                daemon.store().get(spec.key()),
                Some(encode_record(spec.key(), Ok(&standalone)))
            );
        }
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_pool_evicts_its_oldest_shape_when_full() {
        let dir = scratch("pool-cap");
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            ..tiny_config(dir.clone())
        })
        .unwrap();
        let mut shapes = Vec::new();
        for seed in 0..=WARM_POOL_SHAPES as u64 {
            let req = SweepRequest {
                name: format!("seed-{seed}"),
                workloads: vec!["mcf".into()],
                scenarios: vec!["AutoRFM-4".into()],
                cores: 1,
                instructions: 1_000,
                seed,
                ..SweepRequest::default()
            };
            let cfg = req.expand().unwrap()[0].config().unwrap();
            shapes.push(autorfm::warm_digest(&cfg));
            let outcome = daemon.submit(&req).unwrap();
            wait_complete(&daemon, &outcome.id);
        }
        let pooled: Vec<u64> = daemon
            .inner
            .state
            .lock()
            .unwrap()
            .warm
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(pooled.len(), WARM_POOL_SHAPES);
        assert_eq!(pooled, shapes[1..], "the first shape is the one evicted");
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_only_cells_report_their_stored_status() {
        let dir = scratch("store-only");
        let daemon = Daemon::start(tiny_config(dir.clone())).unwrap();
        // Another writer (e.g. `run_all --store`) fills the shared root.
        let req = SweepRequest {
            workloads: vec!["mcf".into()],
            scenarios: vec!["AutoRFM-4".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        let spec = req.expand().unwrap()[0];
        let (key, failed_key) = (spec.key(), 0x5678);
        let result = autorfm::System::new(spec.config().unwrap()).unwrap().run();
        let record = encode_record(key, Ok(&result));
        let other = CellStore::open(&dir).unwrap();
        other.put(key, &record).unwrap();
        other
            .put(failed_key, &encode_record(failed_key, Err("lane panicked")))
            .unwrap();

        let done = daemon.cell(key).unwrap();
        assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
        let digest = format!("{:#018x}", record.result_digest().unwrap());
        assert_eq!(
            done.get("result_digest").and_then(Json::as_str),
            Some(digest.as_str())
        );
        assert_eq!(done.get("perf").and_then(Json::as_f64), Some(result.perf()));
        let failed = daemon.cell(failed_key).unwrap();
        assert_eq!(failed.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            failed.get("error").and_then(Json::as_str),
            Some("lane panicked")
        );
        assert!(daemon.cell(0x9abc).is_none(), "unknown keys stay unknown");
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

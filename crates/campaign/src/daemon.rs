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
//!   ([`shape_units`](crate::runner::shape_units)) into work units of at
//!   most `batch` lanes and queued.
//!
//! Workers pop units, run them through
//! [`run_batch_fallible`](crate::runner::run_batch_fallible) — seeding from
//! the daemon's **warm pool** so only the first batch of a shape pays
//! warmup — and persist every outcome (success *or* deterministic failure)
//! to the store before marking it finished. Because records hit disk before
//! the in-memory `done` set, a SIGKILL can lose at most the in-flight unit:
//! on restart the daemon rescans `<store>/campaigns/*.json`, resubmits every
//! persisted request, and the store classifies all previously completed
//! cells as dedup hits, so nothing finished is ever recomputed.

use crate::cell::{CellSpec, SweepRequest};
use crate::runner::{run_batch_fallible, shape_units, LANES};
use autorfm::sim_core::ConfigError;
use autorfm::snapshot::store::{CellRecord, CellStore};
use autorfm::snapshot::{Reader, Snapshot, Writer};
use autorfm::telemetry::{Json, Registry};
use autorfm::{KernelKind, SimConfig, SimResult};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a daemon is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the content-addressed store (shared across restarts and with
    /// `run_all --store` batches).
    pub store: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Maximum lockstep lanes per work unit.
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

/// One queued unit of work: same-shape cells that run as lockstep lanes.
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

/// All mutable scheduler state, under one lock.
#[derive(Default)]
struct State {
    campaigns: BTreeMap<String, CampaignState>,
    queue: VecDeque<WorkUnit>,
    /// Scheduled but not yet finished (superset of `running`).
    pending: HashSet<u64>,
    /// Popped by a worker, currently executing.
    running: HashSet<u64>,
    /// Completed successfully (a success record is in the store).
    done: HashSet<u64>,
    /// Failed deterministically (a failure record is in the store).
    errors: HashMap<u64, String>,
    /// Warm pool: shape digest → captured lane-0 warm state.
    warm: HashMap<u64, Arc<Vec<u8>>>,
    /// Cell key → spec, for manifests and the `/cells` endpoint.
    index: HashMap<u64, CellSpec>,
    /// Cell key → wall time (ns) of the work unit that computed it this
    /// daemon life (0 for store hits).
    elapsed_ns: HashMap<u64, u64>,
}

struct Inner {
    cfg: DaemonConfig,
    store: CellStore,
    state: Mutex<State>,
    work_ready: Condvar,
    metrics: Mutex<Registry>,
    shutdown: AtomicBool,
    started: Instant,
    /// Cells simulated to completion in this daemon life.
    computed: AtomicU64,
    /// Cells that finished with an error in this daemon life.
    failed: AtomicU64,
    /// Dedup hits (submitted cells served by an existing record or an
    /// in-flight execution) in this daemon life.
    deduped: AtomicU64,
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

/// Encodes a result with its `Snapshot` codec, exactly as the harness's
/// `ResultCache` does — these bytes (and their digest) are the store's one
/// canonical form of a completed cell, whoever computed it.
fn encode_result(result: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    result.encode(&mut w);
    w.into_bytes()
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
            computed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
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
    /// scheduled exactly once (the later submitter sees it pending and takes
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
        // restarted daemon must know how to finish the campaign.
        let spec_path = self
            .inner
            .store
            .root()
            .join("campaigns")
            .join(format!("{id}.json"));
        if let Err(e) = std::fs::write(&spec_path, req.to_json().to_pretty() + "\n") {
            eprintln!("campaignd: cannot persist {}: {e}", spec_path.display());
        }

        let mut scheduled: Vec<CellSpec> = Vec::new();
        let mut deduped = 0usize;
        let mut failed_now: Vec<(u64, String)> = Vec::new();
        {
            let mut st = self.inner.state.lock().expect("state lock");
            for cell in &cells {
                let key = cell.key();
                st.index.entry(key).or_insert(*cell);
                if st.done.contains(&key)
                    || st.errors.contains_key(&key)
                    || st.pending.contains(&key)
                {
                    deduped += 1;
                    continue;
                }
                // Unknown to this life — maybe a previous life finished it.
                if let Some(record) = self.inner.store.get(key) {
                    match record.outcome {
                        Ok(_) => {
                            st.done.insert(key);
                        }
                        Err(msg) => {
                            st.errors.insert(key, msg);
                        }
                    }
                    deduped += 1;
                    continue;
                }
                st.pending.insert(key);
                scheduled.push(*cell);
            }
            // Group schedulable cells by shape so they batch into lockstep
            // lanes, chunked to the configured lane limit. A cell that
            // cannot even build a config fails right here, deterministically,
            // without a worker.
            let mut buildable: Vec<(u64, SimConfig)> = Vec::new();
            for cell in &scheduled {
                match cell.config() {
                    Ok(cfg) => buildable.push((cell.key(), cfg)),
                    Err(e) => failed_now.push((cell.key(), e.to_string())),
                }
            }
            for (key, msg) in &failed_now {
                st.pending.remove(key);
                st.errors.insert(*key, msg.clone());
            }
            for (shape, cells) in shape_units(buildable, self.inner.cfg.batch) {
                st.queue.push_back(WorkUnit { shape, cells });
            }
            st.campaigns.insert(
                id.clone(),
                CampaignState {
                    name: req.name.clone(),
                    cells: cells.iter().map(CellSpec::key).collect(),
                },
            );
        }
        self.inner.work_ready.notify_all();

        // Failure records for config-invalid cells still go to the store so
        // restarts and sibling campaigns see them.
        for (key, msg) in &failed_now {
            let _ = self
                .inner
                .store
                .put(*key, &CellRecord::failed(*key, msg.clone()));
            self.inner.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.inner
            .deduped
            .fetch_add(deduped as u64, Ordering::Relaxed);
        {
            let mut m = self.inner.metrics.lock().expect("metrics lock");
            m.incr_counter("cells_queued", &[], scheduled.len() as u64);
            m.incr_counter("cells_deduped", &[], deduped as u64);
            m.incr_counter("cells_queued", &[("campaign", &id)], scheduled.len() as u64);
            m.incr_counter("cells_deduped", &[("campaign", &id)], deduped as u64);
        }
        Ok(SubmitOutcome {
            id,
            total: cells.len(),
            scheduled: scheduled.len() - failed_now.len(),
            deduped,
        })
    }

    /// The daemon's store (shared with tests and the HTTP layer).
    pub fn store(&self) -> &CellStore {
        &self.inner.store
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Asks workers to stop after their current unit. Queued units are
    /// abandoned (they resume from the store on the next start).
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
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
        self.inner.deduped.load(Ordering::Relaxed)
    }

    /// Cells simulated to completion in this daemon life.
    pub fn cells_computed(&self) -> u64 {
        self.inner.computed.load(Ordering::Relaxed)
    }

    /// Whether every cell of campaign `id` has finished (done or failed).
    /// `None` for an unknown campaign.
    pub fn is_complete(&self, id: &str) -> Option<bool> {
        let st = self.inner.state.lock().expect("state lock");
        let campaign = st.campaigns.get(id)?;
        Some(
            campaign
                .cells
                .iter()
                .all(|k| st.done.contains(k) || st.errors.contains_key(k)),
        )
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
        let mut rows = Vec::with_capacity(campaign.cells.len());
        for key in &campaign.cells {
            rows.push(self.cell_json_locked(*key, &st));
        }
        let mut status = status_json(id, campaign, &st);
        if let Json::Obj(pairs) = &mut status {
            pairs.push(("cells".to_string(), Json::Arr(rows)));
        }
        Some(status)
    }

    /// One cell's record as JSON (spec, status, digest, perf, error).
    /// `None` for a key the daemon has never seen.
    pub fn cell(&self, key: u64) -> Option<Json> {
        let st = self.inner.state.lock().expect("state lock");
        if !st.index.contains_key(&key) && !self.inner.store.contains(key) {
            return None;
        }
        Some(self.cell_json_locked(key, &st))
    }

    fn cell_json_locked(&self, key: u64, st: &State) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        let spec_json = st.index.get(&key).map(CellSpec::to_json);
        match spec_json {
            Some(Json::Obj(fields)) => {
                for (k, v) in fields {
                    match k.as_str() {
                        "key" => pairs.push(("key", v)),
                        "workload" => pairs.push(("workload", v)),
                        "scenario" => pairs.push(("scenario", v)),
                        "cores" => pairs.push(("cores", v)),
                        "instructions" => pairs.push(("instructions", v)),
                        "seed" => pairs.push(("seed", v)),
                        _ => {}
                    }
                }
            }
            _ => pairs.push(("key", Json::Str(format!("{key:016x}")))),
        }
        let status = if st.done.contains(&key) {
            "done"
        } else if st.errors.contains_key(&key) {
            "failed"
        } else if st.running.contains(&key) {
            "running"
        } else {
            "queued"
        };
        pairs.push(("status", Json::Str(status.to_string())));
        if let Some(msg) = st.errors.get(&key) {
            pairs.push(("error", Json::Str(msg.clone())));
        }
        if let Some(ns) = st.elapsed_ns.get(&key) {
            pairs.push(("elapsed_ns", Json::Num(*ns as f64)));
        }
        if status == "done" {
            if let Some(record) = self.inner.store.get(key) {
                if let Some(digest) = record.result_digest() {
                    pairs.push(("result_digest", Json::Str(format!("{digest:#018x}"))));
                }
                if let Ok(bytes) = &record.outcome {
                    let mut r = Reader::new(bytes);
                    if let Ok(result) = SimResult::decode(&mut r) {
                        pairs.push(("perf", Json::Num(result.perf())));
                        pairs.push(("elapsed_sim_ns", Json::Num(result.elapsed.as_ns() as f64)));
                    }
                }
            }
        }
        Json::obj(pairs)
    }

    /// Global service statistics (the `/stats` payload and the source of
    /// BENCH_7.json).
    pub fn stats(&self) -> Json {
        let (campaigns, queue_depth, running, done, failed) = {
            let st = self.inner.state.lock().expect("state lock");
            (
                st.campaigns.len(),
                st.queue.len(),
                st.running.len(),
                st.done.len(),
                st.errors.len(),
            )
        };
        let computed = self.inner.computed.load(Ordering::Relaxed);
        let uptime = self.inner.started.elapsed();
        let cells_per_sec = if uptime.as_secs_f64() > 0.0 {
            computed as f64 / uptime.as_secs_f64()
        } else {
            0.0
        };
        Json::obj(vec![
            ("campaigns", Json::Num(campaigns as f64)),
            // Fuzz-evaluation records adopted alongside sweep cells: the
            // store root is shared with `attack_fuzz --store`, so a daemon
            // pointed at a fuzz store reports its persisted evaluations.
            (
                "fuzz_records",
                Json::Num(self.inner.store.fuzz_len() as f64),
            ),
            ("cells_done", Json::Num(done as f64)),
            ("cells_failed", Json::Num(failed as f64)),
            ("cells_computed", Json::Num(computed as f64)),
            (
                "cells_deduped",
                Json::Num(self.inner.deduped.load(Ordering::Relaxed) as f64),
            ),
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
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut running = 0usize;
    let mut queued = 0usize;
    for key in &campaign.cells {
        if st.done.contains(key) {
            done += 1;
        } else if st.errors.contains_key(key) {
            failed += 1;
        } else if st.running.contains(key) {
            running += 1;
        } else {
            queued += 1;
        }
    }
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

/// The worker thread body: pop a unit, run it (warm-seeded when the pool has
/// the shape), persist every outcome, mark cells finished.
fn worker_loop(inner: &Inner) {
    loop {
        let unit = {
            let mut st = inner.state.lock().expect("state lock");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(unit) = st.queue.pop_front() {
                    for (key, _) in &unit.cells {
                        st.running.insert(*key);
                    }
                    break unit;
                }
                st = inner.work_ready.wait(st).expect("state lock");
            }
        };
        let warm: Option<Arc<Vec<u8>>> = {
            let st = inner.state.lock().expect("state lock");
            st.warm.get(&unit.shape).cloned()
        };
        let cfgs: Vec<SimConfig> = unit.cells.iter().map(|(_, cfg)| cfg.clone()).collect();
        let t0 = Instant::now();
        let outcome = run_batch_fallible(
            &cfgs,
            warm.as_ref().map(|w| w.as_slice()),
            inner.cfg.kernel,
            warm.is_none(),
        );
        let unit_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if let Some(bytes) = outcome.warm_state {
            let mut st = inner.state.lock().expect("state lock");
            st.warm.entry(unit.shape).or_insert_with(|| Arc::new(bytes));
        }
        let mut computed = 0u64;
        let mut failed = 0u64;
        for ((key, _), result) in unit.cells.iter().zip(outcome.results) {
            // Disk first, then the in-memory finished sets: a kill between
            // the two re-runs an already-stored cell on restart (harmless,
            // identical bytes) rather than ever losing a "finished" cell.
            let record = match &result {
                Ok(sim) => CellRecord::ok(*key, encode_result(sim)),
                Err(msg) => CellRecord::failed(*key, msg.clone()),
            };
            if let Err(e) = inner.store.put(*key, &record) {
                eprintln!("campaignd: cannot store cell {key:016x}: {e}");
            }
            let mut st = inner.state.lock().expect("state lock");
            st.running.remove(key);
            st.pending.remove(key);
            st.elapsed_ns.insert(*key, unit_ns);
            match result {
                Ok(_) => {
                    st.done.insert(*key);
                    computed += 1;
                }
                Err(msg) => {
                    st.errors.insert(*key, msg);
                    failed += 1;
                }
            }
        }
        inner.computed.fetch_add(computed, Ordering::Relaxed);
        inner.failed.fetch_add(failed, Ordering::Relaxed);
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            m.incr_counter("cells_done", &[], computed);
            m.incr_counter("cells_failed", &[], failed);
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
}

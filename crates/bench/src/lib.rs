//! # autorfm-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md for the index), plus Criterion micro-benchmarks (`benches/`).
//!
//! Every binary accepts the same flags:
//!
//! * `--quick` — 25K instructions/core (smoke-test fidelity),
//! * `--full` — 400K instructions/core (report fidelity),
//! * `--instructions N`, `--cores N`, `--workloads a,b,c` — manual control,
//! * `--jobs N` — worker threads for the simulation fan-out (see below),
//! * `--telemetry` — record epoch time series and full final-metric
//!   registries, and write a `results/<target>.json` manifest (see
//!   [`Harness`]),
//! * `--epoch-ns N` — telemetry sampling window (default: one tREFI),
//! * `--telemetry-csv DIR` — stream each run's epoch series as CSV,
//! * `--store DIR` — persist and reload every simulation through the
//!   content-addressed cell store at `DIR` (see [`ResultCache::new`]),
//! * `--manifest PATH` — write the run manifest to `PATH`,
//! * `--tracker NAME` — tracker override for the tracker-sweep binaries.
//!
//! Defaults: 100K instructions/core, 8 cores, all 21 Table-V workloads.
//!
//! ## Parallel execution
//!
//! Each `(workload, scenario)` simulation is completely independent and
//! deterministic given its seed, so the harness fans the experiment matrix out
//! across threads:
//!
//! * [`run_matrix`] runs a slice of `(workload, scenario)` jobs on
//!   `opts.jobs` scoped worker threads (an atomic work index — no external
//!   thread-pool dependency) and returns results **in input order**,
//!   regardless of completion order.
//! * [`ResultCache`] is shared and thread-safe: each distinct
//!   `(workload, scenario)` key is simulated **exactly once** even when many
//!   scenarios request it concurrently (e.g. the Zen/Rubix baselines every
//!   figure normalizes against). The first request claims the key's
//!   `OnceLock` slot; later requesters block on it.
//! * [`par_map`] is the underlying generic fan-out for experiments that build
//!   custom [`SimConfig`]s (ablations, seed sweeps).
//!
//! `--jobs N` selects the worker count; the default is the machine's
//! available parallelism (`--jobs 1` runs strictly serially).
//! **Determinism guarantee:** simulations share no mutable state, so every
//! `SimResult` — and therefore every table and figure — is bitwise identical
//! for any `--jobs` value; only wall-clock changes. Expected speedup on an
//! N-thread host is close to N× for the big matrices (21 workloads × several
//! scenarios), bounded by the longest single simulation.
//!
//! ## Batched lockstep execution
//!
//! Every simulation the harness runs goes through one place,
//! [`ResultCache::prefetch`]: it groups the pending jobs by shape (equal
//! `autorfm::warm_digest`, i.e. same workloads, core count, seed, and
//! warmup), splits each group into lockstep batches and runs every batch
//! through `autorfm_campaign::run_batch_fallible` — warmup simulated once per
//! batch, the instruction trace generated once per core and replayed by all
//! lanes, and the lanes advanced in cache-friendly chunks. The lane count is
//! derived, not configured: `min(LANES, ceil(pending / opts.jobs))` with
//! `autorfm_campaign::LANES` = 8, so a small matrix still spreads over every
//! worker. Batching is a pure scheduling transform: every lane is bitwise
//! identical to its standalone run (pinned by `tests/batch_differential.rs`),
//! so — like `--jobs` — it changes wall-clock only, never results.
//! Telemetry runs batch too; each lane keeps its own sink.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::{cell_key, CellRecord, CellStore};
use autorfm::snapshot::{Reader, Snapshot, Writer};
use autorfm::telemetry::{Json, Labels, RunEntry, RunManifest};
use autorfm::trackers::TrackerKind;
use autorfm::{KernelKind, MappingKind, SimConfig, SimResult, TelemetryConfig};
use autorfm_campaign::{run_batch_fallible, shape_units, LANES};
use autorfm_sim_core::Cycle;
use autorfm_workloads::{WorkloadSpec, ALL_WORKLOADS};
use std::collections::hash_map::{Entry, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Common run options for every experiment binary: the built-in
/// [`RunOpts::default`] overridden by command-line flags
/// ([`RunOpts::from_args`]). Every field has a flag, so the command line
/// describes the whole run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Cores per simulation.
    pub cores: u8,
    /// Instructions per core.
    pub instructions: u64,
    /// Workloads to simulate.
    pub workloads: Vec<&'static WorkloadSpec>,
    /// Worker threads for [`run_matrix`] / [`par_map`] (`--jobs N`;
    /// default: available parallelism).
    pub jobs: usize,
    /// Record epoch time series and final-metric registries
    /// (`--telemetry`; default off — the default path is bitwise identical
    /// to a build without telemetry).
    pub telemetry: bool,
    /// Telemetry epoch length in nanoseconds (`--epoch-ns N`, implies
    /// `--telemetry`; default: one tREFI).
    pub epoch_ns: Option<u64>,
    /// Stream each run's epoch series as CSV into this directory
    /// (`--telemetry-csv DIR`, implies `--telemetry`).
    pub telemetry_csv: Option<PathBuf>,
    /// Root of the campaign service's content-addressed cell store
    /// (`--store DIR`). When set, [`ResultCache::new`] reads and writes
    /// per-cell records there — shared with `campaignd` and every other
    /// experiment — so completed simulations survive a killed run.
    pub store: Option<PathBuf>,
    /// Where [`Harness::finish`] writes the run manifest (`--manifest PATH`;
    /// default: `results/<target>.json` under `--telemetry`, else nowhere).
    pub manifest: Option<PathBuf>,
    /// Tracker override for tracker-sweep binaries (`--tracker NAME`; see
    /// `autorfm::trackers::names()`; default: each binary's own set).
    pub tracker: Option<TrackerKind>,
}

impl Default for RunOpts {
    /// The built-in defaults: 100K instructions/core, 8 cores, every
    /// workload, one worker per available core, everything else off.
    fn default() -> Self {
        RunOpts {
            cores: 8,
            instructions: 100_000,
            workloads: ALL_WORKLOADS.iter().collect(),
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            telemetry: false,
            epoch_ns: None,
            telemetry_csv: None,
            store: None,
            manifest: None,
            tracker: None,
        }
    }
}

impl RunOpts {
    /// Parses `std::env::args()` on top of [`RunOpts::default`].
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = RunOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.instructions = 25_000,
                "--full" => opts.instructions = 400_000,
                "--instructions" => {
                    opts.instructions = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--instructions needs a number");
                }
                "--cores" => {
                    opts.cores =
                        args.next().and_then(|v| v.parse().ok()).expect("--cores needs a number");
                }
                "--jobs" => {
                    opts.jobs = args
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .map(|n| n.max(1))
                        .expect("--jobs needs a positive number");
                }
                "--workloads" => {
                    let list = args.next().expect("--workloads needs a comma-separated list");
                    opts.workloads = list
                        .split(',')
                        .map(|n| {
                            WorkloadSpec::by_name(n)
                                .unwrap_or_else(|| panic!("unknown workload {n}"))
                        })
                        .collect();
                }
                "--telemetry" => opts.telemetry = true,
                "--epoch-ns" => {
                    opts.telemetry = true;
                    opts.epoch_ns = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .expect("--epoch-ns needs a positive number"),
                    );
                }
                "--telemetry-csv" => {
                    opts.telemetry = true;
                    opts.telemetry_csv =
                        Some(args.next().expect("--telemetry-csv needs a directory").into());
                }
                "--store" => {
                    opts.store = Some(args.next().expect("--store needs a directory").into());
                }
                "--manifest" => {
                    opts.manifest = Some(args.next().expect("--manifest needs a path").into());
                }
                "--tracker" => {
                    let v = args.next().expect("--tracker needs a tracker name");
                    opts.tracker = Some(
                        v.parse::<TrackerKind>()
                            .unwrap_or_else(|e| panic!("--tracker: {e}")),
                    );
                }
                other => panic!(
                    "unknown flag {other}; expected --quick|--full|--instructions N|--cores N|--jobs N|--workloads a,b|--telemetry|--epoch-ns N|--telemetry-csv DIR|--store DIR|--manifest PATH|--tracker T"
                ),
            }
        }
        opts
    }
}

/// Builds the [`TelemetryConfig`] `opts` asks for (`None` when disabled).
/// `tag` names the streamed CSV file inside `opts.telemetry_csv`.
pub fn telemetry_config(opts: &RunOpts, tag: &str) -> Option<TelemetryConfig> {
    if !opts.telemetry {
        return None;
    }
    let csv_path = opts.telemetry_csv.as_ref().map(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        }
        dir.join(format!("{tag}.csv"))
    });
    Some(TelemetryConfig {
        epoch: opts.epoch_ns.map(Cycle::from_ns),
        max_samples: None,
        csv_path,
    })
}

/// The [`SimConfig`] for one `(workload, scenario)` job under `opts`; an
/// invalid cell becomes a [`CellFailure`] record instead of a panic.
fn job_config(
    spec: &'static WorkloadSpec,
    scenario: Scenario,
    opts: &RunOpts,
) -> Result<SimConfig, autorfm_sim_core::ConfigError> {
    let mut builder = SimConfig::builder(spec)
        .scenario(scenario)
        .cores(opts.cores)
        .instructions(opts.instructions);
    if let Some(t) = telemetry_config(opts, &format!("{}__{scenario}", spec.name)) {
        builder = builder.telemetry(t);
    }
    builder.build()
}

/// One entry of an experiment matrix: a workload under a scenario.
pub type SimJob = (&'static WorkloadSpec, Scenario);

/// Applies `f` to every item on `jobs` scoped worker threads, returning
/// results in input order regardless of completion order.
///
/// Work is distributed through an atomic index, so uneven item costs balance
/// automatically. With `jobs <= 1` (or a single item) the map runs serially
/// on the calling thread — the `--jobs 1` reproduction path.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Runs a `(workload, scenario)` matrix in parallel, returning results in
/// input order.
///
/// Duplicate jobs are simulated once (a fresh shared [`ResultCache`] dedups
/// them) and the duplicates receive clones. Use [`ResultCache::prefetch`]
/// instead when the cache should outlive the call.
pub fn run_matrix(jobs: &[SimJob], opts: &RunOpts) -> Vec<SimResult> {
    run_matrix_cached(jobs, opts, &ResultCache::new(opts))
}

/// [`run_matrix`] against a caller-supplied cache (so the cache — and its
/// store wiring, or deliberate lack of it — can outlive the call).
pub fn run_matrix_cached(jobs: &[SimJob], opts: &RunOpts, cache: &ResultCache) -> Vec<SimResult> {
    cache.prefetch(jobs, opts);
    jobs.iter()
        .map(|&(spec, scenario)| (*cache.get(spec, scenario, opts)).clone())
        .collect()
}

/// Cache key: (scenario display name, workload name).
type CacheKey = (String, &'static str);

/// One cached cell: filled exactly once, by the prefetch that claimed it,
/// with the result or the failed cell's error text; concurrent requesters
/// block on it.
type CacheSlot = Arc<OnceLock<Result<Arc<SimResult>, String>>>;

/// A thread-safe cache of per-`(workload, scenario)` results so shared
/// scenarios (the normalization baselines above all) are simulated only once.
///
/// The first [`ResultCache::prefetch`] (or [`ResultCache::get`]) to request
/// a key claims its [`OnceLock`] slot and fills it; concurrent requesters
/// block until the result is ready — never re-running the simulation.
#[derive(Default)]
pub struct ResultCache {
    results: Mutex<HashMap<CacheKey, CacheSlot>>,
    runs: AtomicUsize,
    store: Option<CellStore>,
    failures: Mutex<Vec<CellFailure>>,
}

/// One cell that failed in a prefetch: the job's identity plus the panic or
/// configuration-error text. Recorded by [`ResultCache::prefetch`] instead of
/// letting a single bad lane poison its whole batch; read back via
/// [`ResultCache::failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Workload name of the failed job.
    pub workload: &'static str,
    /// Scenario display name of the failed job.
    pub scenario: String,
    /// The job's [`job_digest`] / store cell key.
    pub key: u64,
    /// Why it failed (panic message or configuration error).
    pub error: String,
}

/// Fills every claimed slot a prefetch leaves empty when it ends. Normally
/// there are none; if the prefetch panicked, its waiters get an error
/// instead of blocking forever.
struct AbandonGuard<'a>(&'a [(SimJob, CacheSlot)]);

impl Drop for AbandonGuard<'_> {
    fn drop(&mut self) {
        for (_, slot) in self.0 {
            let _ = slot.set(Err("abandoned: the prefetch running it panicked".into()));
        }
    }
}

impl ResultCache {
    /// Creates an empty cache backed by `opts.store` (`--store DIR`, the
    /// content-addressed cell store `run_all` and `campaignd` share): with a
    /// store, completed results are reloaded and every fresh simulation is
    /// persisted — so a killed experiment resumes instead of starting over.
    /// Without one the cache lives in memory only. `ResultCache::default()`
    /// never touches a store; [`ResultCache::with_store`] passes an explicit
    /// root.
    pub fn new(opts: &RunOpts) -> Self {
        opts.store
            .clone()
            .map_or_else(Self::default, Self::with_store)
    }

    /// Creates an empty cache backed by the content-addressed cell store at
    /// `root` — the same store `campaignd` serves, so harness runs and
    /// campaign cells share one result per sweep point. An unopenable store
    /// degrades (with a warning) to a plain in-memory cache.
    pub fn with_store(root: PathBuf) -> Self {
        let store = match CellStore::open(&root) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: could not open store {}: {e}", root.display());
                None
            }
        };
        ResultCache {
            store,
            ..Self::default()
        }
    }

    /// Runs (or returns the cached result of) `scenario` on `spec`: a miss
    /// is a one-job [`ResultCache::prefetch`].
    ///
    /// # Panics
    ///
    /// Panics with the cell's error text if it failed (see
    /// [`ResultCache::failures`]), or if an internal lock is poisoned.
    pub fn get(
        &self,
        spec: &'static WorkloadSpec,
        scenario: Scenario,
        opts: &RunOpts,
    ) -> Arc<SimResult> {
        self.prefetch(&[(spec, scenario)], opts);
        match self.slot((scenario.to_string(), spec.name)).wait() {
            Ok(result) => Arc::clone(result),
            Err(error) => panic!("{}/{scenario} failed: {error}", spec.name),
        }
    }

    /// The completed result the cell store holds under `key`, if a store is
    /// configured. A record of a *failed* cell — or one that no longer
    /// decodes, e.g. written by an older build — is not a result: the job
    /// re-runs (and a failure re-fails, loudly) rather than silently
    /// vanishing from the matrix.
    fn persisted(&self, key: u64) -> Option<SimResult> {
        let bytes = self.store.as_ref()?.get(key)?.outcome.ok()?;
        SimResult::decode(&mut Reader::new(&bytes)).ok()
    }

    /// Persists a completed result under `key` when a store is configured.
    fn persist(&self, key: u64, result: &SimResult) {
        let Some(store) = &self.store else { return };
        let mut w = Writer::new();
        result.encode(&mut w);
        if let Err(e) = store.put(key, &CellRecord::ok(key, w.into_bytes())) {
            eprintln!("warning: could not write store cell {key:016x}: {e}");
        }
    }

    /// Every [`CellFailure`] recorded by [`ResultCache::prefetch`] so far,
    /// in recording order.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn failures(&self) -> Vec<CellFailure> {
        self.failures
            .lock()
            .expect("failures lock poisoned")
            .clone()
    }

    /// Records one failed cell: a structured [`CellFailure`] in memory and,
    /// with a store configured, a persisted failed-cell record.
    fn record_failure(&self, (spec, scenario): SimJob, opts: &RunOpts, error: String) {
        let key = job_digest(spec, scenario, opts);
        if let Some(store) = &self.store {
            let _ = store.put(key, &CellRecord::failed(key, error.clone()));
        }
        self.failures
            .lock()
            .expect("failures lock poisoned")
            .push(CellFailure {
                workload: spec.name,
                scenario: scenario.to_string(),
                key,
                error,
            });
    }

    /// The rendezvous slot for `key`, creating it if absent.
    fn slot(&self, key: CacheKey) -> CacheSlot {
        let mut map = self.results.lock().expect("cache lock poisoned");
        map.entry(key).or_default().clone()
    }

    /// Simulates every job in the matrix that no earlier request claimed, so
    /// later `get`s are instant hits. This is the harness's one simulation
    /// path:
    ///
    /// 1. claim the keys no one has requested yet (duplicates and keys
    ///    already cached or in flight are left to their owner);
    /// 2. answer claimed keys the cell store already holds;
    /// 3. group the rest by shape into lockstep batches of
    ///    `min(LANES, ceil(pending / opts.jobs))` lanes
    ///    (`autorfm_campaign::shape_units`) and run the batches on
    ///    `opts.jobs` threads through `autorfm_campaign::run_batch_fallible`.
    ///
    /// Lanes are bitwise identical to standalone simulations, so no later
    /// `get` can tell how a result was computed. A lane that panics (or a
    /// cell whose configuration is invalid) does not poison its batchmates:
    /// the bad cell becomes a structured [`CellFailure`] record — cell key
    /// plus error text — readable via [`ResultCache::failures`] (and, with a
    /// store configured, a persisted failed-cell record). Telemetry runs
    /// neither read nor write the store: their epoch series cannot be
    /// persisted (see `SimResult`'s snapshot docs).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned.
    pub fn prefetch(&self, jobs: &[SimJob], opts: &RunOpts) {
        let claimed: Vec<(SimJob, CacheSlot)> = {
            let mut map = self.results.lock().expect("cache lock poisoned");
            jobs.iter()
                .filter_map(|&(spec, scenario)| {
                    match map.entry((scenario.to_string(), spec.name)) {
                        Entry::Occupied(_) => None,
                        Entry::Vacant(v) => {
                            Some(((spec, scenario), v.insert(CacheSlot::default()).clone()))
                        }
                    }
                })
                .collect()
        };
        let _guard = AbandonGuard(&claimed);
        let mut cells: Vec<(usize, SimConfig)> = Vec::new();
        for (i, &((spec, scenario), ref slot)) in claimed.iter().enumerate() {
            if !opts.telemetry {
                if let Some(prior) = self.persisted(job_digest(spec, scenario, opts)) {
                    let _ = slot.set(Ok(Arc::new(prior)));
                    continue;
                }
            }
            match job_config(spec, scenario, opts) {
                Ok(cfg) => cells.push((i, cfg)),
                Err(e) => {
                    self.record_failure((spec, scenario), opts, e.to_string());
                    let _ = slot.set(Err(e.to_string()));
                }
            }
        }
        let lanes = LANES.min(cells.len().div_ceil(opts.jobs.max(1)));
        par_map(&shape_units(cells, lanes), opts.jobs, |(_, unit)| {
            let cfgs: Vec<SimConfig> = unit.iter().map(|(_, cfg)| cfg.clone()).collect();
            let outcome = run_batch_fallible(&cfgs, None, KernelKind::Event, false);
            for (&(i, _), result) in unit.iter().zip(outcome.results) {
                let ((spec, scenario), slot) = &claimed[i];
                let filled = match result {
                    Ok(result) => {
                        self.runs.fetch_add(1, Ordering::Relaxed);
                        if !opts.telemetry {
                            self.persist(job_digest(spec, *scenario, opts), &result);
                        }
                        Ok(Arc::new(result))
                    }
                    Err(error) => {
                        self.record_failure((spec, *scenario), opts, error.clone());
                        Err(error)
                    }
                };
                let _ = slot.set(filled);
            }
        });
    }

    /// Number of distinct `(workload, scenario)` keys requested so far
    /// (completed, failed, or in flight).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn len(&self) -> usize {
        self.results.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total simulations actually executed: cells that neither hit the cache
    /// nor the store and completed without error.
    pub fn simulations_run(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Every completed result as `(workload, scenario, result)`, sorted by
    /// key for deterministic iteration. Slots still being simulated by
    /// another thread, and failed cells, are skipped.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn results(&self) -> Vec<(&'static str, String, Arc<SimResult>)> {
        let map = self.results.lock().expect("cache lock poisoned");
        let mut out: Vec<_> = map
            .iter()
            .filter_map(|((scenario, workload), slot)| match slot.get() {
                Some(Ok(r)) => Some((*workload, scenario.clone(), r.clone())),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }
}

/// Stable identity of one simulation job: scenario, workload, and the run
/// shape (cores, instructions, the harness's fixed seed 42). Everything else
/// that could change the result (geometry, timings) is fixed by the scenario
/// constructors. Delegates to [`cell_key`], so a harness job and the campaign
/// daemon's cell for the same sweep point share one key — which is what lets
/// [`ResultCache`] and the service route through the same content-addressed
/// store.
pub fn job_digest(spec: &WorkloadSpec, scenario: Scenario, opts: &RunOpts) -> u64 {
    cell_key(
        spec.name,
        &scenario.to_string(),
        opts.cores,
        opts.instructions,
        42,
    )
}

/// Records a machine-readable manifest of one experiment binary's runs and
/// writes it to `results/<target>.json` (see `autorfm_telemetry::RunManifest`
/// for the schema).
///
/// Where the manifest goes:
///
/// * `--manifest PATH` ([`RunOpts::manifest`]), when given (how `run_all`
///   directs each child's manifest next to its `.txt` report), else
/// * `results/<target>.json` when telemetry is enabled, else
/// * nowhere — [`Harness::finish`] is a no-op, so default runs leave the
///   filesystem untouched.
pub struct Harness {
    manifest: RunManifest,
    path: Option<PathBuf>,
    started: Instant,
}

impl Harness {
    /// Starts recording for the current binary (`target` is the executable
    /// name) and snapshots `opts` into the manifest's config block.
    pub fn new(opts: &RunOpts) -> Self {
        let target = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "experiment".into());
        let mut manifest = RunManifest::new(&target);
        manifest.jobs = opts.jobs as u64;
        manifest.set_config("cores", Json::Num(f64::from(opts.cores)));
        manifest.set_config("instructions_per_core", Json::Num(opts.instructions as f64));
        manifest.set_config(
            "workloads",
            Json::Arr(
                opts.workloads
                    .iter()
                    .map(|w| Json::Str(w.name.to_string()))
                    .collect(),
            ),
        );
        manifest.set_config("seed", Json::Num(42.0));
        manifest.set_config("telemetry", Json::Bool(opts.telemetry));
        if let Some(ns) = opts.epoch_ns {
            manifest.set_config("epoch_ns", Json::Num(ns as f64));
        }
        let path = opts.manifest.clone().or_else(|| {
            opts.telemetry
                .then(|| PathBuf::from("results").join(format!("{target}.json")))
        });
        Harness {
            manifest,
            path,
            started: Instant::now(),
        }
    }

    /// Records one simulation under `key` (convention: `workload/scenario`).
    /// Duplicate keys are kept once — the first recording wins.
    pub fn record(&mut self, key: &str, result: &SimResult) {
        if self.manifest.run(key).is_some() {
            return;
        }
        self.manifest.runs.push(RunEntry {
            key: key.to_string(),
            metrics: result.to_registry(),
            series: result.series.clone(),
        });
    }

    /// Records every completed simulation in `cache` (the usual one-liner for
    /// cache-driven experiments).
    pub fn record_cache(&mut self, cache: &ResultCache) {
        for (workload, scenario, result) in cache.results() {
            self.record(&format!("{workload}/{scenario}"), &result);
        }
    }

    /// Adds a free-form config entry (experiment-specific knobs).
    pub fn set_config(&mut self, key: &str, value: Json) {
        self.manifest.set_config(key, value);
    }

    /// Records a top-level scalar metric — for analytic experiments whose
    /// outputs aren't full simulation results.
    pub fn gauge(&mut self, name: &str, labels: Labels<'_>, value: f64) {
        self.manifest.metrics.gauge(name, labels, value);
    }

    /// Finalizes wall-clock and throughput figures and writes the manifest.
    /// Does nothing unless telemetry is enabled or `--manifest` is given.
    pub fn finish(mut self) {
        let Some(path) = self.path.take() else { return };
        self.manifest.wall_s = self.started.elapsed().as_secs_f64();
        self.manifest.sim_cycles = self
            .manifest
            .runs
            .iter()
            .filter_map(|r| r.metrics.get("elapsed_cycles", &[]))
            .map(|v| v.scalar() as u64)
            .sum();
        self.manifest.cycles_per_sec = if self.manifest.wall_s > 0.0 {
            self.manifest.sim_cycles as f64 / self.manifest.wall_s
        } else {
            0.0
        };
        let simulations = self.manifest.runs.len() as u64;
        self.manifest
            .metrics
            .counter("simulations", &[], simulations);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = self.manifest.save(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// The Zen-mapping no-mitigation baseline used for most normalizations.
pub const BASELINE_ZEN: Scenario = Scenario::Baseline {
    mapping: MappingKind::Zen,
};

/// The Rubix-mapping no-mitigation baseline (Appendix C normalization).
pub const BASELINE_RUBIX: Scenario = Scenario::Baseline {
    mapping: MappingKind::Rubix { key: 0xAB1E },
};

/// Formats a fraction as a signed percentage, e.g. `3.1%` or `-0.4%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Renders a horizontal ASCII bar chart (for the figure targets).
///
/// Bars are scaled to the largest absolute value; negative values (speedups)
/// render with `<` markers instead of `#`.
pub fn bar_chart(title: &str, entries: &[(String, f64)], fmt_value: impl Fn(f64) -> String) {
    if entries.is_empty() {
        return;
    }
    println!("\n{title}");
    let max = entries
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(8);
    const WIDTH: usize = 48;
    for (label, value) in entries {
        let filled = ((value.abs() / max) * WIDTH as f64).round() as usize;
        let ch = if *value < 0.0 { '<' } else { '#' };
        let bar: String = std::iter::repeat_n(ch, filled.min(WIDTH)).collect();
        println!("{label:<label_w$} |{bar:<WIDTH$}| {}", fmt_value(*value));
    }
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, opts: &RunOpts) {
    println!("=== {title} ===");
    println!(
        "({} workloads, {} cores, {} instructions/core)\n",
        opts.workloads.len(),
        opts.cores,
        opts.instructions
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_cover_all_workloads() {
        let opts = RunOpts::default();
        assert_eq!(opts.workloads.len(), 21);
        assert_eq!(opts.cores, 8);
        assert!(opts.jobs >= 1);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.031), "3.1%");
        assert_eq!(pct(-0.004), "-0.4%");
    }

    #[test]
    fn cache_runs_once() {
        let spec = WorkloadSpec::by_name("wrf").unwrap();
        let opts = RunOpts {
            cores: 1,
            instructions: 2_000,
            workloads: vec![spec],
            jobs: 1,
            ..RunOpts::default()
        };
        let cache = ResultCache::new(&opts);
        let a = cache.get(spec, BASELINE_ZEN, &opts).perf();
        let b = cache.get(spec, BASELINE_ZEN, &opts).perf();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.simulations_run(), 1);
    }

    #[test]
    fn batched_matrix_matches_unbatched() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let mut opts = RunOpts {
            cores: 2,
            instructions: 2_000,
            workloads: vec![spec],
            jobs: 1,
            ..RunOpts::default()
        };
        // 11 same-shape cells: more than one LANES-wide batch.
        let mut matrix: Vec<SimJob> = vec![(spec, BASELINE_ZEN)];
        for th in [4, 8, 16, 32, 64] {
            matrix.push((spec, Scenario::Rfm { th }));
            matrix.push((spec, Scenario::AutoRfm { th }));
        }
        let distinct = matrix.len();
        assert!(distinct > LANES);
        matrix.push((spec, BASELINE_ZEN)); // duplicate: must dedup, not double-run
        let standalone: Vec<SimResult> = matrix
            .iter()
            .map(|&(spec, scenario)| {
                let cfg = job_config(spec, scenario, &opts).unwrap();
                autorfm::System::new(cfg)
                    .unwrap()
                    .run_with(KernelKind::Event)
            })
            .collect();
        // One worker: full 8-lane batches. More workers than cells: one
        // lane per batch.
        for jobs in [1, 2 * distinct] {
            opts.jobs = jobs;
            let cache = ResultCache::default();
            let batched = run_matrix_cached(&matrix, &opts, &cache);
            assert_eq!(
                format!("{standalone:?}"),
                format!("{batched:?}"),
                "jobs {jobs}"
            );
            assert_eq!(cache.simulations_run(), distinct);
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost so completion order differs from input order.
        let out = par_map(&items, 8, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_when_one_job() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map::<u32, u32, _>(&[], 4, |&x| x), Vec::<u32>::new());
    }
}

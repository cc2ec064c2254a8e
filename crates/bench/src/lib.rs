//! # autorfm-bench
//!
//! The experiment harness: every table/figure of the paper is a registered
//! function in [`experiments::ALL`] (see DESIGN.md for the index), run in
//! one process over one shared [`ResultCache`] by the `run_all` binary
//! (`run_all --only <target>` runs one), plus Criterion micro-benchmarks
//! (`benches/`).
//!
//! Every run accepts the same flags ([`RunOpts::from_args`]):
//!
//! * `--quick` — 25K instructions/core (smoke-test fidelity),
//! * `--full` — 400K instructions/core (report fidelity),
//! * `--instructions N`, `--cores N`, `--workloads a,b,c` — manual control,
//! * `--jobs N` — worker threads for the simulation fan-out (see below),
//! * `--telemetry` — record epoch time series and full final-metric
//!   registries in each target's manifest (see [`experiments::Ctx`]),
//! * `--epoch-ns N` — telemetry sampling window (default: one tREFI),
//! * `--telemetry-csv DIR` — stream each run's epoch series as CSV,
//! * `--store DIR` — persist and reload every simulation through the
//!   content-addressed cell store at `DIR` (see [`ResultCache::new`]),
//! * `--tracker NAME` — tracker override for the tracker-sweep targets.
//!
//! Defaults: 100K instructions/core, 8 cores, all 21 Table-V workloads.
//!
//! ## Cells
//!
//! A **cell** is one [`SimJob`]: a labelled [`SimConfig`], keyed by
//! [`SimConfig::key`] (the model fingerprint plus *every* configuration
//! field). A figure's `(workload, scenario)` point, an ablation variant and a
//! seed-sensitivity point are all cells, and equal configurations are one
//! cell however they were built. Every simulation goes through one place,
//! [`ResultCache::prefetch`], which simulates each distinct key **exactly
//! once** (reloading it from the `--store` cell store when it can): it groups
//! pending cells by shape (`autorfm::warm_digest`) into work units of
//! `min(autorfm_campaign::LANES, ceil(pending / opts.jobs))` lanes — warmup
//! simulated once per unit, every lane a warm fork run to completion — and
//! runs the units on `opts.jobs` threads ([`par_map`]).
//!
//! **Determinism guarantee:** every warm-forked lane is bitwise identical to
//! its standalone run (pinned by `tests/batch_differential.rs`) and simulations
//! share no mutable state, so every table is bitwise identical for any
//! `--jobs` value; only wall-clock changes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::{CellRecord, CellStore};
use autorfm::snapshot::{Reader, Snapshot, Writer};
use autorfm::trackers::TrackerKind;
use autorfm::{KernelKind, MappingKind, SimConfig, SimResult, TelemetryConfig};
use autorfm_campaign::{run_batch_fallible, shape_units, LANES};
use autorfm_sim_core::Cycle;
use autorfm_workloads::{WorkloadSpec, ALL_WORKLOADS};
use std::collections::hash_map::{Entry, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Common run options for every experiment: the built-in
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
    /// Tracker override for tracker-sweep targets (`--tracker NAME`; see
    /// `autorfm::trackers::names()`; default: each target's own set).
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
            tracker: None,
        }
    }
}

impl RunOpts {
    /// Parses command-line `args` (without the program name) on top of
    /// [`RunOpts::default`].
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = RunOpts::default();
        let mut args = args.into_iter();
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
                "--tracker" => {
                    let v = args.next().expect("--tracker needs a tracker name");
                    opts.tracker = Some(
                        v.parse::<TrackerKind>()
                            .unwrap_or_else(|e| panic!("--tracker: {e}")),
                    );
                }
                other => panic!(
                    "unknown flag {other}; expected --quick|--full|--instructions N|--cores N|--jobs N|--workloads a,b|--telemetry|--epoch-ns N|--telemetry-csv DIR|--store DIR|--tracker T"
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

/// One cell of an experiment matrix: a labelled [`SimConfig`].
///
/// The configuration *is* the cell: [`ResultCache`] keys results by
/// [`SimConfig::key`], so two jobs with equal configurations are one
/// simulation whatever their labels say. The label (`"workload/scenario"`,
/// plus one `/tag` per [`SimJob::variant`]) only names the cell — in
/// manifests, in [`CellFailure`] records and in telemetry CSV file names.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable name of the cell.
    pub label: String,
    /// What the cell simulates; assembled, not yet validated (an invalid
    /// configuration becomes a [`CellFailure`] when the job runs).
    pub cfg: SimConfig,
}

impl SimJob {
    /// The cell for `scenario` on `spec` at `opts`' core count and
    /// instruction budget (seed 42), labelled `"workload/scenario"`.
    pub fn new(spec: &'static WorkloadSpec, scenario: Scenario, opts: &RunOpts) -> Self {
        let label = format!("{}/{scenario}", spec.name);
        let mut cfg = SimConfig::scenario(spec, scenario);
        cfg.num_cores = opts.cores;
        cfg.instructions_per_core = opts.instructions;
        cfg.telemetry = telemetry_config(opts, &csv_tag(&label));
        SimJob { label, cfg }
    }

    /// This cell with `tweak` applied to its configuration, labelled
    /// `"{label}/{tag}"`. A tweak that restates a value the configuration
    /// already has leaves the cell — and its key — unchanged (unless a
    /// telemetry CSV file, named after the label, is streamed).
    #[must_use]
    pub fn variant(mut self, tag: &str, tweak: impl FnOnce(&mut SimConfig)) -> Self {
        self.label = format!("{}/{tag}", self.label);
        tweak(&mut self.cfg);
        if let Some(path) = self
            .cfg
            .telemetry
            .as_mut()
            .and_then(|t| t.csv_path.as_mut())
        {
            path.set_file_name(format!("{}.csv", csv_tag(&self.label)));
        }
        self
    }
}

/// The telemetry CSV file stem of a job label: `workload__scenario[__tag]`.
fn csv_tag(label: &str) -> String {
    label.replace('/', "__")
}

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

/// Runs a matrix of jobs in parallel (duplicates once), returning results in
/// input order.
pub fn run_matrix(jobs: &[SimJob], opts: &RunOpts) -> Vec<SimResult> {
    let cache = ResultCache::new(opts);
    cache.prefetch(jobs, opts);
    jobs.iter().map(|job| (*cache.get(job)).clone()).collect()
}

/// One cached cell: filled exactly once, by the prefetch that claimed it,
/// with the result or the failed cell's error text; concurrent requesters
/// block on it.
type CacheSlot = Arc<OnceLock<Result<Arc<SimResult>, String>>>;

/// A thread-safe cache of cell results keyed by [`SimConfig::key`], so a
/// configuration many experiments share (the normalization baselines above
/// all, or an ablation variant equal to a scenario) is simulated only once.
///
/// The first [`ResultCache::prefetch`] (or [`ResultCache::get`]) to request
/// a key claims its [`OnceLock`] slot and fills it; concurrent requesters
/// block until the result is ready — never re-running the simulation.
#[derive(Default)]
pub struct ResultCache {
    results: Mutex<HashMap<u64, CacheSlot>>,
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
    /// Label of the failed job.
    pub label: String,
    /// The job's configuration key ([`SimConfig::key`]; also its store key).
    pub key: u64,
    /// Why it failed (panic message or configuration error).
    pub error: String,
}

/// Fills every claimed slot a prefetch leaves empty when it ends. Normally
/// there are none; if the prefetch panicked, its waiters get an error
/// instead of blocking forever.
struct AbandonGuard<'a>(&'a [Claim<'a>]);

/// A job a prefetch claimed: its key, the job, and the slot to fill.
type Claim<'a> = (u64, &'a SimJob, CacheSlot);

impl Drop for AbandonGuard<'_> {
    fn drop(&mut self) {
        for (_, _, slot) in self.0 {
            let _ = slot.set(Err("abandoned: the prefetch running it panicked".into()));
        }
    }
}

impl ResultCache {
    /// Creates an empty cache backed by `opts.store` (`--store DIR`, the
    /// content-addressed cell store `run_all` and `campaignd` share): with a
    /// store, completed results are reloaded and every fresh simulation is
    /// persisted — so a killed experiment resumes instead of starting over.
    /// Without one (or if it cannot be opened, with a warning) the cache
    /// lives in memory only, like `ResultCache::default()`.
    pub fn new(opts: &RunOpts) -> Self {
        let store = opts.store.as_ref().and_then(|root| {
            CellStore::open(root)
                .map_err(|e| eprintln!("warning: could not open store {}: {e}", root.display()))
                .ok()
        });
        ResultCache {
            store,
            ..Self::default()
        }
    }

    /// Runs (or returns the cached result of) `job`: a miss is a one-job
    /// [`ResultCache::prefetch`].
    ///
    /// # Panics
    ///
    /// Panics with the cell's error text if it failed (see
    /// [`ResultCache::failures`]), or if an internal lock is poisoned.
    pub fn get(&self, job: &SimJob) -> Arc<SimResult> {
        self.run_jobs(std::slice::from_ref(job), 1);
        let slot = {
            let map = self.results.lock().expect("cache lock poisoned");
            map.get(&job.cfg.key())
                .expect("run_jobs claimed the key")
                .clone()
        };
        match slot.wait() {
            Ok(result) => Arc::clone(result),
            Err(error) => panic!("{} failed: {error}", job.label),
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
    fn record_failure(&self, key: u64, job: &SimJob, error: String) {
        if let Some(store) = &self.store {
            let _ = store.put(key, &CellRecord::failed(key, error.clone()));
        }
        self.failures
            .lock()
            .expect("failures lock poisoned")
            .push(CellFailure {
                label: job.label.clone(),
                key,
                error,
            });
    }

    /// Simulates every job in the matrix that no earlier request claimed, so
    /// later `get`s are instant hits. This is the harness's one simulation
    /// path:
    ///
    /// 1. claim the configuration keys no one has requested yet (duplicates
    ///    and keys already cached or in flight are left to their owner);
    /// 2. answer claimed keys the cell store already holds;
    /// 3. group the rest by shape into work units of
    ///    `min(LANES, ceil(pending / opts.jobs))` lanes
    ///    (`autorfm_campaign::shape_units`) and run the units on
    ///    `opts.jobs` threads through `autorfm_campaign::run_batch_fallible`,
    ///    which warms up once per unit and forks each lane from that donor.
    ///
    /// Lanes are bitwise identical to standalone simulations, so no later
    /// `get` can tell how a result was computed. A lane that panics (or a
    /// cell whose configuration is invalid) does not poison its batchmates:
    /// the bad cell becomes a structured [`CellFailure`] record — cell key
    /// plus error text — readable via [`ResultCache::failures`] (and, with a
    /// store configured, a persisted failed-cell record). Cells with
    /// telemetry enabled neither read nor write the store: their epoch series
    /// and metric registries cannot be persisted (see `SimResult`'s snapshot
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned.
    pub fn prefetch(&self, jobs: &[SimJob], opts: &RunOpts) {
        self.run_jobs(jobs, opts.jobs);
    }

    /// [`ResultCache::prefetch`] on `threads` worker threads.
    fn run_jobs(&self, jobs: &[SimJob], threads: usize) {
        let claimed: Vec<Claim<'_>> = {
            let mut map = self.results.lock().expect("cache lock poisoned");
            jobs.iter()
                .filter_map(|job| {
                    let key = job.cfg.key();
                    match map.entry(key) {
                        Entry::Occupied(_) => None,
                        Entry::Vacant(v) => {
                            Some((key, job, v.insert(CacheSlot::default()).clone()))
                        }
                    }
                })
                .collect()
        };
        let _guard = AbandonGuard(&claimed);
        let mut cells: Vec<(usize, SimConfig)> = Vec::new();
        for (i, (key, job, slot)) in claimed.iter().enumerate() {
            if job.cfg.telemetry.is_none() {
                if let Some(prior) = self.persisted(*key) {
                    let _ = slot.set(Ok(Arc::new(prior)));
                    continue;
                }
            }
            match job.cfg.validate() {
                Ok(()) => cells.push((i, job.cfg.clone())),
                Err(e) => {
                    self.record_failure(*key, job, e.to_string());
                    let _ = slot.set(Err(e.to_string()));
                }
            }
        }
        let lanes = LANES.min(cells.len().div_ceil(threads.max(1)));
        par_map(&shape_units(cells, lanes), threads, |(_, unit)| {
            let cfgs: Vec<SimConfig> = unit.iter().map(|(_, cfg)| cfg.clone()).collect();
            let outcome = run_batch_fallible(&cfgs, None, KernelKind::Event, false);
            for (&(i, _), result) in unit.iter().zip(outcome.results) {
                let (key, job, slot) = &claimed[i];
                let filled = match result {
                    Ok(result) => {
                        self.runs.fetch_add(1, Ordering::Relaxed);
                        if job.cfg.telemetry.is_none() {
                            self.persist(*key, &result);
                        }
                        Ok(Arc::new(result))
                    }
                    Err(error) => {
                        self.record_failure(*key, job, error.clone());
                        Err(error)
                    }
                };
                let _ = slot.set(filled);
            }
        });
    }

    /// Number of distinct configuration keys requested so far (completed,
    /// failed, or in flight).
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

    /// The completed result cached under `key`, if any: keys never
    /// requested, still being simulated by another thread, or failed read as
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub(crate) fn result(&self, key: u64) -> Option<Arc<SimResult>> {
        let map = self.results.lock().expect("cache lock poisoned");
        match map.get(&key)?.get() {
            Some(Ok(r)) => Some(Arc::clone(r)),
            _ => None,
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

/// Renders a fixed-width table: a header row, a rule, then data rows, one
/// line each.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let line = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ");
        line + "\n"
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let mut out = fmt_row(&head);
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    out.push('\n');
    for row in rows {
        out += &fmt_row(row);
    }
    out
}

/// Renders a horizontal ASCII bar chart (for the figure targets), preceded
/// by a blank line and the title; empty for no entries.
///
/// Bars are scaled to the largest absolute value; negative values (speedups)
/// render with `<` markers instead of `#`.
pub fn bar_chart(
    title: &str,
    entries: &[(String, f64)],
    fmt_value: impl Fn(f64) -> String,
) -> String {
    if entries.is_empty() {
        return String::new();
    }
    let mut out = format!("\n{title}\n");
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
        out += &format!("{label:<label_w$} |{bar:<WIDTH$}| {}\n", fmt_value(*value));
    }
    out
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
        let job = SimJob::new(spec, BASELINE_ZEN, &opts);
        let a = cache.get(&job).perf();
        let b = cache.get(&job).perf();
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
        let job = |scenario| SimJob::new(spec, scenario, &opts);
        let mut matrix: Vec<SimJob> = vec![job(BASELINE_ZEN)];
        for th in [4, 8, 16, 32, 64] {
            matrix.push(job(Scenario::Rfm { th }));
            matrix.push(job(Scenario::AutoRfm { th }));
        }
        let distinct = matrix.len();
        assert!(distinct > LANES);
        matrix.push(job(BASELINE_ZEN)); // duplicate: must dedup, not double-run
        let standalone: Vec<SimResult> = matrix
            .iter()
            .map(|job| {
                autorfm::System::new(job.cfg.clone())
                    .unwrap()
                    .run_with(KernelKind::Event)
            })
            .collect();
        // One worker: full 8-lane batches. More workers than cells: one
        // lane per batch.
        for jobs in [1, 2 * distinct] {
            opts.jobs = jobs;
            let cache = ResultCache::default();
            cache.prefetch(&matrix, &opts);
            let batched: Vec<SimResult> = matrix.iter().map(|j| (*cache.get(j)).clone()).collect();
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

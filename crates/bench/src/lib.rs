//! # autorfm-bench
//!
//! The experiment harness: every table/figure of the paper is a registered
//! function in [`experiments::ALL`] (see DESIGN.md for the index), run in
//! one process over one [`ResultCache`] by the `run_all` binary
//! (`run_all --only <target>` runs one).
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
//! cell however they were built. Every simulation goes through one call,
//! [`ResultCache::run`], which returns each job's result in job order and
//! simulates each distinct key **exactly once** (reloading it from the
//! `--store` cell store when it can): it groups
//! pending cells by shape (`autorfm::warm_digest`) into work units of
//! `min(autorfm_campaign::LANES, ceil(pending / opts.jobs))` lanes — warmup
//! simulated once per unit, every lane built from that warm state and run to
//! completion — and runs the units on `opts.jobs` threads ([`par_map`]).
//! Those worker threads are the only concurrency: the cache has one owner,
//! `run` takes `&mut self`, and the targets ask for their cells one after
//! another.
//!
//! **Determinism guarantee:** every lane built from warm state is bitwise
//! identical to its standalone run (pinned by `tests/batch_differential.rs`)
//! and simulations share no mutable state, so every table is bitwise
//! identical for any `--jobs` value; only wall-clock changes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::CellStore;
use autorfm::trackers::TrackerKind;
use autorfm::{KernelKind, MappingKind, SimConfig, SimResult, TelemetryConfig};
use autorfm_campaign::{decode_record, encode_record, run_batch_fallible, shape_units, LANES};
use autorfm_sim_core::Cycle;
use autorfm_workloads::{WorkloadSpec, ALL_WORKLOADS};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Worker threads for [`ResultCache::run`] / [`par_map`] (`--jobs N`;
    /// default: available parallelism).
    pub jobs: usize,
    /// Record epoch time series and final-metric registries
    /// (`--telemetry`; default off — the default path is bitwise identical
    /// to a build without telemetry).
    pub telemetry: bool,
    /// Telemetry epoch length in nanoseconds (`--epoch-ns N`, implies
    /// `--telemetry`; default: one tREFI).
    pub epoch_ns: Option<u64>,
    /// Root of the campaign service's content-addressed cell store
    /// (`--store DIR`). When set, [`ResultCache::new`] reads and writes
    /// per-cell records there — shared with `campaignd` and every other
    /// experiment — so completed simulations survive a killed run. A
    /// directory that cannot be opened stops the run before any target.
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
                    "unknown flag {other}; expected --quick|--full|--instructions N|--cores N|--jobs N|--workloads a,b|--telemetry|--epoch-ns N|--store DIR|--tracker T"
                ),
            }
        }
        opts
    }
}

/// Builds the [`TelemetryConfig`] `opts` asks for (`None` when disabled).
pub fn telemetry_config(opts: &RunOpts) -> Option<TelemetryConfig> {
    opts.telemetry.then(|| TelemetryConfig {
        epoch: opts.epoch_ns.map(Cycle::from_ns),
        max_samples: None,
    })
}

/// One cell of an experiment matrix: a labelled [`SimConfig`].
///
/// The configuration *is* the cell: [`ResultCache`] keys results by
/// [`SimConfig::key`], so two jobs with equal configurations are one
/// simulation whatever their labels say. The label (`"workload/scenario"`,
/// plus one `/tag` per [`SimJob::variant`]) only names the cell — in
/// manifests and in the panic a failed cell raises.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable name of the cell.
    pub label: String,
    /// What the cell simulates; assembled, not yet validated (an invalid
    /// configuration fails the cell when the job runs).
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
        cfg.telemetry = telemetry_config(opts);
        SimJob { label, cfg }
    }

    /// This cell with `tweak` applied to its configuration, labelled
    /// `"{label}/{tag}"`. A tweak that restates a value the configuration
    /// already has leaves the cell — and its key — unchanged.
    #[must_use]
    pub fn variant(mut self, tag: &str, tweak: impl FnOnce(&mut SimConfig)) -> Self {
        self.label = format!("{}/{tag}", self.label);
        tweak(&mut self.cfg);
        self
    }
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

/// A cache of cell results keyed by [`SimConfig::key`], so a configuration
/// many experiments share (the normalization baselines above all, or an
/// ablation variant equal to a scenario) is simulated only once.
///
/// The cache has one owner: [`ResultCache::run`] takes `&mut self`, and the
/// only threads are the ones a single call runs its work units on. A failed
/// cell's error text is cached like a result, so asking again fails again
/// without re-running it.
#[derive(Default)]
pub struct ResultCache {
    results: HashMap<u64, Result<Arc<SimResult>, String>>,
    runs: usize,
    ledger: WarmupLedger,
    store: Option<CellStore>,
}

/// What the work units a [`ResultCache`] ran cost in warmup: read back via
/// [`ResultCache::warmups`].
#[derive(Debug, Clone, Default)]
pub struct WarmupLedger {
    /// Units that warmed up (every unit whose first lane could be built).
    pub warmups: usize,
    /// The distinct shapes (`autorfm::warm_digest`) among those units.
    pub shapes: HashSet<u64>,
    /// Wall time of every unit, summed over the worker threads.
    pub unit_wall: Duration,
}

impl ResultCache {
    /// Creates an empty cache backed by `opts.store` (`--store DIR`, the
    /// content-addressed cell store `run_all` and `campaignd` share): with a
    /// store, completed results are reloaded and every fresh simulation is
    /// persisted — so a killed experiment resumes instead of starting over.
    /// Without one the cache lives in memory only, like
    /// `ResultCache::default()`.
    ///
    /// # Panics
    ///
    /// Panics with the directory and the cause if `opts.store` cannot be
    /// opened (e.g. it names a regular file).
    pub fn new(opts: &RunOpts) -> Self {
        let store = opts.store.as_ref().map(|root| {
            CellStore::open(root)
                .unwrap_or_else(|e| panic!("cannot open store {}: {e}", root.display()))
        });
        ResultCache {
            store,
            ..Self::default()
        }
    }

    /// The completed result the cell store holds under `key`, if a store is
    /// configured. A record of a *failed* cell — or one that no longer
    /// decodes, e.g. written by an older build — is not a result: the job
    /// re-runs (and a failure re-fails, loudly) rather than silently
    /// vanishing from the matrix.
    fn persisted(&self, key: u64) -> Option<SimResult> {
        decode_record(&self.store.as_ref()?.get(key)?).ok()
    }

    /// Persists a cell's outcome under `key` when a store is configured.
    fn persist(&self, key: u64, outcome: Result<&SimResult, &str>) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.put(key, &encode_record(key, outcome)) {
            eprintln!("warning: could not write store cell {key:016x}: {e}");
        }
    }

    /// Every job's result, in job order: the harness's one simulation call.
    ///
    /// 1. take the first job of each configuration key the cache does not
    ///    hold yet;
    /// 2. answer those the cell store already holds, and fail those whose
    ///    configuration is invalid;
    /// 3. group the rest by shape into work units of
    ///    `min(LANES, ceil(pending / threads))` lanes
    ///    (`autorfm_campaign::shape_units`) and run the units on `threads`
    ///    threads through `autorfm_campaign::run_batch_fallible`, which
    ///    warms up once per unit and builds every lane from that; each unit
    ///    persists its cells before it returns, so a killed run keeps the
    ///    cells it finished;
    /// 4. cache every outcome and read each job's, in order.
    ///
    /// Lanes are bitwise identical to standalone simulations, so no caller
    /// can tell how a result was computed. A lane that panics (or a cell
    /// whose configuration is invalid) does not poison its batchmates: the
    /// bad cell's error text is cached (and, with a store configured,
    /// persisted as a failed-cell record), while its batchmates' results are
    /// cached and stored. Cells with telemetry enabled neither read nor
    /// write the store: their epoch series and metric registries cannot be
    /// persisted (see `SimResult`'s snapshot docs). A call that unwinds
    /// outside a lane caches none of the cells it was simulating; the next
    /// call asks for them again, reloading what the store kept.
    ///
    /// # Panics
    ///
    /// Panics with `"{label} failed: {error}"` for the first job whose cell
    /// failed (in this call or an earlier one), once every cell has finished.
    pub fn run(&mut self, jobs: &[SimJob], threads: usize) -> Vec<Arc<SimResult>> {
        let keys: Vec<u64> = jobs.iter().map(|job| job.cfg.key()).collect();
        let mut pending = HashSet::new();
        let mut cells: Vec<(u64, SimConfig)> = Vec::new();
        for (&key, job) in keys.iter().zip(jobs) {
            if self.results.contains_key(&key) || !pending.insert(key) {
                continue;
            }
            if job.cfg.telemetry.is_none() {
                if let Some(prior) = self.persisted(key) {
                    self.results.insert(key, Ok(Arc::new(prior)));
                    continue;
                }
            }
            match job.cfg.validate() {
                Ok(()) => cells.push((key, job.cfg.clone())),
                Err(e) => {
                    let error = e.to_string();
                    self.persist(key, Err(&error));
                    self.results.insert(key, Err(error));
                }
            }
        }
        let lanes = LANES.min(cells.len().div_ceil(threads.max(1)));
        let units = par_map(&shape_units(cells, lanes), threads, |(shape, unit)| {
            let started = Instant::now();
            let cfgs: Vec<SimConfig> = unit.iter().map(|(_, cfg)| cfg.clone()).collect();
            let outcome = run_batch_fallible(&cfgs, None, KernelKind::Event);
            let results: Vec<_> = unit
                .iter()
                .zip(outcome.results)
                .map(|((key, cfg), result)| {
                    match &result {
                        Ok(r) if cfg.telemetry.is_none() => self.persist(*key, Ok(r)),
                        Ok(_) => {}
                        Err(error) => self.persist(*key, Err(error)),
                    }
                    (*key, result)
                })
                .collect();
            (*shape, outcome.warm.is_some(), started.elapsed(), results)
        });
        for (shape, warmed, wall, results) in units {
            if warmed {
                self.ledger.warmups += 1;
                self.ledger.shapes.insert(shape);
            }
            self.ledger.unit_wall += wall;
            for (key, result) in results {
                self.runs += usize::from(result.is_ok());
                self.results.insert(key, result.map(Arc::new));
            }
        }
        keys.iter()
            .zip(jobs)
            .map(|(key, job)| match &self.results[key] {
                Ok(result) => Arc::clone(result),
                Err(error) => panic!("{} failed: {error}", job.label),
            })
            .collect()
    }

    /// The warmups, distinct shapes and unit wall time of every work unit
    /// this cache has run.
    pub fn warmups(&self) -> &WarmupLedger {
        &self.ledger
    }

    /// Number of distinct configuration keys requested so far (completed or
    /// failed).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Total simulations actually executed: cells that neither hit the cache
    /// nor the store and completed without error.
    pub fn simulations_run(&self) -> usize {
        self.runs
    }

    /// The completed result cached under `key`, if any: keys never
    /// requested, or failed, read as `None`.
    pub(crate) fn result(&self, key: u64) -> Option<Arc<SimResult>> {
        self.results.get(&key)?.as_ref().ok().cloned()
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
        let mut cache = ResultCache::new(&opts);
        let job = SimJob::new(spec, BASELINE_ZEN, &opts);
        let a = cache.run(std::slice::from_ref(&job), 1)[0].perf();
        let b = cache.run(std::slice::from_ref(&job), 1)[0].perf();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.simulations_run(), 1);
    }

    #[test]
    fn batched_matrix_matches_unbatched() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let opts = RunOpts {
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
        // One worker: full 8-lane batches, so 8 + 3 lanes warm up twice.
        // More workers than cells: one lane, and one warmup, per batch.
        for (jobs, warmups) in [(1, 2), (2 * distinct, distinct)] {
            let mut cache = ResultCache::default();
            let batched = cache.run(&matrix, jobs);
            assert_eq!(
                format!("{standalone:?}"),
                format!("{batched:?}"),
                "jobs {jobs}"
            );
            assert_eq!(cache.simulations_run(), distinct);
            let ledger = cache.warmups();
            assert_eq!(ledger.warmups, warmups, "jobs {jobs}");
            assert_eq!(ledger.shapes.len(), 1, "jobs {jobs}: one shape");
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

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
//! * `--batch N` — batched lockstep lanes per `SimBatch` (env `AUTORFM_BATCH`;
//!   default 1 = unbatched; see below),
//! * `--telemetry` — record epoch time series and full final-metric
//!   registries, and write a `results/<target>.json` manifest
//!   (env `AUTORFM_TELEMETRY=1`; see [`Harness`]),
//! * `--epoch-ns N` — telemetry sampling window (default: one tREFI),
//! * `--telemetry-csv DIR` — stream each run's epoch series as CSV.
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
//!   figure normalizes against), via a `Mutex<HashMap>` of per-key
//!   `OnceLock` slots.
//! * [`par_map`] is the underlying generic fan-out for experiments that build
//!   custom [`SimConfig`]s (ablations, seed sweeps).
//!
//! `--jobs N` selects the worker count; the default is the machine's
//! available parallelism, and the `AUTORFM_JOBS` environment variable
//! overrides it (set `AUTORFM_JOBS=1` for strictly serial execution).
//! **Determinism guarantee:** simulations share no mutable state, so every
//! `SimResult` — and therefore every table and figure — is bitwise identical
//! for any `--jobs` value; only wall-clock changes. Expected speedup on an
//! N-thread host is close to N× for the big matrices (21 workloads × several
//! scenarios), bounded by the longest single simulation.
//!
//! ## Batched lockstep execution
//!
//! With `--batch N` (env `AUTORFM_BATCH=N`, default 1), [`run_matrix`] groups
//! same-shape jobs — equal `autorfm::warm_digest`, i.e. same workloads, core
//! count, seed, and warmup — into `autorfm::SimBatch`es of up to N lanes each
//! and runs every group in one lockstep pass: warmup simulated once per
//! batch, the instruction trace generated once per core and replayed by all
//! lanes, and the lanes advanced in cache-friendly chunks. Batching is a pure
//! scheduling transform: every lane is bitwise identical to its standalone
//! run (pinned by `tests/batch_differential.rs`), so `--batch` — like
//! `--jobs` — changes wall-clock only, never results. Telemetry-enabled runs
//! are never batched (their sinks are per-run side channels).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::{cell_key, CellRecord, CellStore};
use autorfm::snapshot::{Reader, Snapshot, Writer};
use autorfm::telemetry::{Json, Labels, RunEntry, RunManifest};
use autorfm::trackers::TrackerKind;
use autorfm::{
    warm_digest, KernelKind, MappingKind, SimConfig, SimResult, System, TelemetryConfig,
};
use autorfm_campaign::run_batch_fallible;
use autorfm_sim_core::Cycle;
use autorfm_workloads::{WorkloadSpec, ALL_WORKLOADS};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Common run options for every experiment binary.
///
/// Three layers, later layers overriding earlier ones (**CLI > env >
/// default**):
///
/// 1. [`RunOpts::default`] — pure built-in defaults, no environment reads;
/// 2. [`RunOpts::from_env`] — the defaults plus every `AUTORFM_*` environment
///    knob, read in this one place;
/// 3. [`RunOpts::from_args`] — the environment layer plus command-line flags.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Cores per simulation.
    pub cores: u8,
    /// Instructions per core.
    pub instructions: u64,
    /// Workloads to simulate.
    pub workloads: Vec<&'static WorkloadSpec>,
    /// Worker threads for [`run_matrix`] / [`par_map`] (`--jobs N`,
    /// env `AUTORFM_JOBS`; default: available parallelism).
    pub jobs: usize,
    /// Record epoch time series and final-metric registries
    /// (`--telemetry`, env `AUTORFM_TELEMETRY=1`; default off — the default
    /// path is bitwise identical to a build without telemetry).
    pub telemetry: bool,
    /// Telemetry epoch length in nanoseconds (`--epoch-ns N`, implies
    /// `--telemetry`; default: one tREFI).
    pub epoch_ns: Option<u64>,
    /// Stream each run's epoch series as CSV into this directory
    /// (`--telemetry-csv DIR`, implies `--telemetry`).
    pub telemetry_csv: Option<PathBuf>,
    /// Child-process pool size for `run_all` (env `AUTORFM_PROCS`;
    /// `None` = derive from host parallelism and the per-child `--jobs`).
    pub procs: Option<usize>,
    /// Root of the campaign service's content-addressed cell store (env
    /// `AUTORFM_STORE`). When set, [`ResultCache::new`] reads and writes
    /// per-cell records there — shared with `campaignd` and every other
    /// experiment — so completed simulations survive a killed run.
    pub store: Option<PathBuf>,
    /// Whether [`run`] may fork from cached warm snapshots
    /// (default yes; env `AUTORFM_NO_WARM_FORK=1` disables).
    pub warm_fork: bool,
    /// Simulation kernel (`--kernel stepped|event`, env
    /// `AUTORFM_STEPPED_KERNEL=1`; default: the event kernel).
    pub kernel: KernelKind,
    /// Tracker override for tracker-sweep binaries (`--tracker NAME`; see
    /// `autorfm::trackers::names()`; default: each binary's own set).
    pub tracker: Option<TrackerKind>,
    /// Minimum acceptable geomean event-vs-stepped kernel speedup for
    /// `perf_smoke` (`--gate-speedup MIN`; default `None` = report only).
    /// With a gate set, a slower event kernel exits nonzero instead of
    /// hiding the regression in JSON.
    pub gate_speedup: Option<f64>,
    /// Lockstep lanes per [`autorfm::SimBatch`] when grouping same-shape
    /// matrix jobs (`--batch N`, env `AUTORFM_BATCH`; default 1 = unbatched).
    pub batch: usize,
    /// Minimum acceptable batched-vs-sequential aggregate speedup for
    /// `perf_smoke` (`--gate-batch-speedup MIN`; default `None` = report
    /// only). With a gate set, a batch slower than running its lanes one by
    /// one exits nonzero instead of hiding the regression in JSON.
    pub gate_batch_speedup: Option<f64>,
}

/// The default worker-thread count: `AUTORFM_JOBS` if set and valid,
/// otherwise the machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    RunOpts::from_env().jobs
}

/// `1`/`true` (case-insensitive) means on.
fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

impl Default for RunOpts {
    /// Pure built-in defaults; reads no environment. Use
    /// [`RunOpts::from_env`] (or [`RunOpts::from_args`]) to honor the
    /// `AUTORFM_*` knobs.
    fn default() -> Self {
        RunOpts {
            cores: 8,
            instructions: 100_000,
            workloads: ALL_WORKLOADS.iter().collect(),
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            telemetry: false,
            epoch_ns: None,
            telemetry_csv: None,
            procs: None,
            store: None,
            warm_fork: true,
            kernel: KernelKind::Event,
            tracker: None,
            gate_speedup: None,
            batch: 1,
            gate_batch_speedup: None,
        }
    }
}

impl RunOpts {
    /// The defaults overridden by the `AUTORFM_*` environment knobs. This is
    /// the single place the harness reads them:
    ///
    /// | variable                 | effect                                   |
    /// |--------------------------|------------------------------------------|
    /// | `AUTORFM_JOBS=N`         | worker threads ([`RunOpts::jobs`])       |
    /// | `AUTORFM_PROCS=N`        | `run_all` process pool ([`RunOpts::procs`]) |
    /// | `AUTORFM_TELEMETRY=1`    | epoch telemetry on ([`RunOpts::telemetry`]) |
    /// | `AUTORFM_STORE=DIR`      | content-addressed cell store ([`RunOpts::store`]) |
    /// | `AUTORFM_NO_WARM_FORK=1` | disable warm forking ([`RunOpts::warm_fork`]) |
    /// | `AUTORFM_STEPPED_KERNEL=1` | stepped oracle kernel ([`RunOpts::kernel`]) |
    /// | `AUTORFM_BATCH=N`        | lockstep lanes per batch ([`RunOpts::batch`]) |
    ///
    /// (`AUTORFM_STEPPED_KERNEL` is decoded by [`KernelKind::from_env`] so
    /// the library default path and the harness agree on one reader.)
    pub fn from_env() -> Self {
        let mut opts = RunOpts::default();
        if let Some(n) = std::env::var("AUTORFM_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            opts.jobs = n.max(1);
        }
        opts.procs = std::env::var("AUTORFM_PROCS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        opts.telemetry = env_flag("AUTORFM_TELEMETRY");
        opts.store = std::env::var("AUTORFM_STORE")
            .ok()
            .filter(|p| !p.is_empty())
            .map(PathBuf::from);
        opts.warm_fork = !env_flag("AUTORFM_NO_WARM_FORK");
        opts.kernel = KernelKind::from_env();
        if let Some(n) = std::env::var("AUTORFM_BATCH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            opts.batch = n.max(1);
        }
        opts
    }

    /// Parses `std::env::args()` on top of [`RunOpts::from_env`]
    /// (CLI > env > default).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = RunOpts::from_env();
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
                "--kernel" => {
                    let v = args.next().expect("--kernel needs stepped|event");
                    opts.kernel = KernelKind::parse(&v)
                        .unwrap_or_else(|| panic!("--kernel: unknown kernel {v} (stepped|event)"));
                }
                "--tracker" => {
                    let v = args.next().expect("--tracker needs a tracker name");
                    opts.tracker = Some(
                        v.parse::<TrackerKind>()
                            .unwrap_or_else(|e| panic!("--tracker: {e}")),
                    );
                }
                "--gate-speedup" => {
                    opts.gate_speedup = Some(
                        args.next()
                            .and_then(|v| v.parse::<f64>().ok())
                            .filter(|m| m.is_finite() && *m > 0.0)
                            .expect("--gate-speedup needs a positive number"),
                    );
                }
                "--batch" => {
                    opts.batch = args
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .map(|n| n.max(1))
                        .expect("--batch needs a positive number");
                }
                "--gate-batch-speedup" => {
                    opts.gate_batch_speedup = Some(
                        args.next()
                            .and_then(|v| v.parse::<f64>().ok())
                            .filter(|m| m.is_finite() && *m > 0.0)
                            .expect("--gate-batch-speedup needs a positive number"),
                    );
                }
                other => panic!(
                    "unknown flag {other}; expected --quick|--full|--instructions N|--cores N|--jobs N|--workloads a,b|--telemetry|--epoch-ns N|--telemetry-csv DIR|--kernel K|--tracker T|--gate-speedup MIN|--batch N|--gate-batch-speedup MIN"
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

/// The [`SimConfig`] for one `(workload, scenario)` job under `opts`.
fn job_config(spec: &'static WorkloadSpec, scenario: Scenario, opts: &RunOpts) -> SimConfig {
    try_job_config(spec, scenario, opts).expect("valid scenario config")
}

/// [`job_config`] without the panic — the batched prefetch path turns an
/// invalid cell into a [`CellFailure`] record instead of dying.
fn try_job_config(
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

/// Runs one workload under one scenario.
///
/// Warmup is shared: the first job per warm key (workload set, core count,
/// seed, warmup length, LLC shape, geometry — see `autorfm::warm_digest`)
/// simulates warmup once into the process-global [`WarmCache`]; every later
/// job forks from that snapshot. Forked runs are bitwise identical to cold
/// runs (pinned by the golden tests), so only wall-clock changes. Clear
/// [`RunOpts::warm_fork`] (env `AUTORFM_NO_WARM_FORK=1`) to force the cold
/// path everywhere; [`RunOpts::kernel`] selects the simulation kernel.
pub fn run(spec: &'static WorkloadSpec, scenario: Scenario, opts: &RunOpts) -> SimResult {
    let cfg = job_config(spec, scenario, opts);
    if opts.warm_fork {
        warm_cache().system(cfg).run_with(opts.kernel)
    } else {
        System::new(cfg)
            .expect("valid scenario config")
            .run_with(opts.kernel)
    }
}

/// Cold-path variant of [`run`] that always re-simulates warmup, bypassing the
/// [`WarmCache`]. Exists for A/B wall-clock measurement (`perf_smoke`) and for
/// callers that must not share process-global state.
pub fn run_cold(spec: &'static WorkloadSpec, scenario: Scenario, opts: &RunOpts) -> SimResult {
    System::new(job_config(spec, scenario, opts))
        .expect("valid scenario config")
        .run_with(opts.kernel)
}

/// One cached warm snapshot: filled exactly once by the first requester;
/// concurrent requesters block on it.
type WarmSlot = Arc<OnceLock<Arc<Vec<u8>>>>;

/// A thread-safe cache of warm-state snapshots keyed by `autorfm::warm_digest`.
///
/// Scenario sweeps run the same workloads under many mitigation settings, and
/// warmup (64K memory ops per core by default) depends on none of them — so
/// the cache simulates each distinct warmup exactly once and every other run
/// forks from the in-memory snapshot via `System::new_from_warm`. The
/// rendezvous discipline is the same as [`ResultCache`]: a per-key
/// [`OnceLock`] fills once, concurrent requesters block until it's ready.
#[derive(Default)]
pub struct WarmCache {
    slots: Mutex<HashMap<u64, WarmSlot>>,
    warmups: AtomicUsize,
    forks: AtomicUsize,
}

impl WarmCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the machine for `cfg`, forking from the cached warm snapshot
    /// for its warm key — simulating warmup first if this is the key's first
    /// request. The result is bitwise identical to `System::new(cfg)`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or the internal lock is poisoned.
    pub fn system(&self, cfg: SimConfig) -> System {
        let key = warm_digest(&cfg);
        let slot = {
            let mut map = self.slots.lock().expect("warm cache lock poisoned");
            map.entry(key).or_default().clone()
        };
        let warm = slot
            .get_or_init(|| {
                self.warmups.fetch_add(1, Ordering::Relaxed);
                // The donor exists only to produce warm bytes; don't let it
                // open telemetry sinks meant for the real run.
                let mut donor_cfg = cfg.clone();
                donor_cfg.telemetry = None;
                Arc::new(System::new(donor_cfg).expect("valid config").warm_state())
            })
            .clone();
        self.forks.fetch_add(1, Ordering::Relaxed);
        System::new_from_warm(cfg, &warm).expect("warm fork under matching digest")
    }

    /// Number of warmups actually simulated (cache misses).
    pub fn warmups(&self) -> usize {
        self.warmups.load(Ordering::Relaxed)
    }

    /// Number of systems built by forking (every [`WarmCache::system`] call).
    pub fn forks(&self) -> usize {
        self.forks.load(Ordering::Relaxed)
    }
}

/// The process-global warm cache [`run`] forks from.
pub fn warm_cache() -> &'static WarmCache {
    static CACHE: OnceLock<WarmCache> = OnceLock::new();
    CACHE.get_or_init(WarmCache::default)
}

/// One entry of an experiment matrix: a workload under a scenario.
pub type SimJob = (&'static WorkloadSpec, Scenario);

/// Applies `f` to every item on `jobs` scoped worker threads, returning
/// results in input order regardless of completion order.
///
/// Work is distributed through an atomic index, so uneven item costs balance
/// automatically. With `jobs <= 1` (or a single item) the map runs serially
/// on the calling thread — the `AUTORFM_JOBS=1` reproduction path.
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
    run_matrix_cached(jobs, opts, &ResultCache::new())
}

/// [`run_matrix`] against a caller-supplied cache (so the cache — and its
/// store wiring, or deliberate lack of it — can outlive the call).
///
/// With [`RunOpts::batch`] > 1, same-shape jobs are first simulated in
/// lockstep batches ([`ResultCache::prefetch_batched`]); the per-job `get`s
/// below then hit the warmed cache. Results are bitwise identical either way.
pub fn run_matrix_cached(jobs: &[SimJob], opts: &RunOpts, cache: &ResultCache) -> Vec<SimResult> {
    if opts.batch > 1 && !opts.telemetry {
        cache.prefetch_batched(jobs, opts);
    }
    let results = par_map(jobs, opts.jobs, |&(spec, scenario)| {
        cache.get(spec, scenario, opts)
    });
    results.into_iter().map(|arc| (*arc).clone()).collect()
}

/// Cache key: (scenario display name, workload name).
type CacheKey = (String, &'static str);

/// One cached simulation: its `OnceLock` is filled exactly once by the first
/// requester; concurrent requesters block on it.
type CacheSlot = Arc<OnceLock<Arc<SimResult>>>;

/// A thread-safe cache of per-`(workload, scenario)` results so shared
/// scenarios (the normalization baselines above all) are simulated only once.
///
/// Concurrent `get`s for the same key rendezvous on a per-key
/// [`OnceLock`]: the first caller simulates, the rest block until the result
/// is ready — never re-running the simulation.
#[derive(Default)]
pub struct ResultCache {
    results: Mutex<HashMap<CacheKey, CacheSlot>>,
    runs: AtomicUsize,
    store: Option<CellStore>,
    failures: Mutex<Vec<CellFailure>>,
}

/// One cell that failed during a batched prefetch: the job's identity plus
/// the panic or configuration-error text. Recorded by
/// [`ResultCache::prefetch_batched`] instead of letting a single bad lane
/// poison its whole batch; read back via [`ResultCache::failures`].
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

impl ResultCache {
    /// Creates an empty cache honoring `AUTORFM_STORE` (the content-addressed
    /// cell store `run_all` and `campaignd` share): with a store, completed
    /// results are reloaded and every fresh simulation is persisted — so a
    /// killed experiment resumes instead of starting over. Without one the
    /// cache lives in memory only. Use [`ResultCache::isolated`] to opt out,
    /// or [`ResultCache::with_store`] to pass an explicit root.
    pub fn new() -> Self {
        RunOpts::from_env()
            .store
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

    /// Creates an empty cache that never touches a cell store, even when
    /// `AUTORFM_STORE` is set — for A/B timing passes (`perf_smoke`) whose
    /// wall clocks would be meaningless with reloaded results.
    pub fn isolated() -> Self {
        Self::default()
    }

    /// Runs (or returns the cached result of) `scenario` on `spec`.
    ///
    /// Telemetry-enabled runs always simulate: their epoch series cannot be
    /// persisted (see `SimResult`'s snapshot docs), and a reloaded result
    /// would silently lose it.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a simulation panicked).
    pub fn get(
        &self,
        spec: &'static WorkloadSpec,
        scenario: Scenario,
        opts: &RunOpts,
    ) -> Arc<SimResult> {
        let slot = self.slot((scenario.to_string(), spec.name));
        slot.get_or_init(|| {
            let key = job_digest(spec, scenario, opts);
            if !opts.telemetry {
                if let Some(prior) = self.persisted(key) {
                    return Arc::new(prior);
                }
            }
            self.runs.fetch_add(1, Ordering::Relaxed);
            let result = run(spec, scenario, opts);
            if !opts.telemetry {
                self.persist(key, &result);
            }
            Arc::new(result)
        })
        .clone()
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

    /// Every [`CellFailure`] recorded by [`ResultCache::prefetch_batched`]
    /// so far, in recording order.
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
    fn record_failure(
        &self,
        spec: &'static WorkloadSpec,
        scenario: Scenario,
        opts: &RunOpts,
        error: String,
    ) {
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

    /// Simulates every job in the matrix on `opts.jobs` threads, warming the
    /// cache so later `get`s are instant hits. Duplicate keys (and keys
    /// already cached) are simulated only once.
    pub fn prefetch(&self, jobs: &[SimJob], opts: &RunOpts) {
        par_map(jobs, opts.jobs, |&(spec, scenario)| {
            self.get(spec, scenario, opts);
        });
    }

    /// The rendezvous slot for `key`, creating it if absent.
    fn slot(&self, key: CacheKey) -> CacheSlot {
        let mut map = self.results.lock().expect("cache lock poisoned");
        map.entry(key).or_default().clone()
    }

    /// Batched [`ResultCache::prefetch`]: groups the not-yet-cached jobs by
    /// warm shape (`autorfm::warm_digest` of their configs), splits each
    /// group into `autorfm::SimBatch`es of up to [`RunOpts::batch`] lanes,
    /// and runs the batches on `opts.jobs` threads. Each lane's result lands
    /// in the job's cache slot (and the store, when configured)
    /// exactly as an unbatched run would have put it — lanes are bitwise
    /// identical to standalone simulations, so later `get`s cannot tell the
    /// difference.
    ///
    /// Jobs already cached, or already persisted on disk, are skipped here
    /// and served by `get` as usual. Telemetry runs are not batched.
    ///
    /// Batches execute through `autorfm_campaign::run_batch_fallible`, so a
    /// lane that panics (or a cell whose configuration is invalid) does not
    /// poison its batchmates: the healthy lanes still fill their slots, and
    /// the bad cell becomes a structured [`CellFailure`] record — cell key
    /// plus error text — readable via [`ResultCache::failures`] (and, with a
    /// store configured, a persisted failed-cell record).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned.
    pub fn prefetch_batched(&self, jobs: &[SimJob], opts: &RunOpts) {
        if opts.batch <= 1 || opts.telemetry {
            self.prefetch(jobs, opts);
            return;
        }
        // Dedup to first-seen order and drop jobs something already answers.
        let mut seen: HashSet<CacheKey> = HashSet::new();
        let mut pending: Vec<SimJob> = Vec::new();
        for &(spec, scenario) in jobs {
            let key = (scenario.to_string(), spec.name);
            if !seen.insert(key.clone()) || self.slot(key).get().is_some() {
                continue;
            }
            if self.persisted(job_digest(spec, scenario, opts)).is_none() {
                pending.push((spec, scenario));
            }
        }
        // Group by warm shape (first-seen group order for determinism), then
        // chunk each group to the requested lane count. A cell whose
        // configuration won't even build becomes a failure record here,
        // before any lane runs.
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<SimJob>> = HashMap::new();
        for &(spec, scenario) in &pending {
            let shape = match try_job_config(spec, scenario, opts) {
                Ok(cfg) => warm_digest(&cfg),
                Err(e) => {
                    self.record_failure(spec, scenario, opts, e.to_string());
                    continue;
                }
            };
            if !groups.contains_key(&shape) {
                order.push(shape);
            }
            groups.entry(shape).or_default().push((spec, scenario));
        }
        let chunks: Vec<Vec<SimJob>> = order
            .iter()
            .flat_map(|shape| {
                groups[shape]
                    .chunks(opts.batch)
                    .map(<[SimJob]>::to_vec)
                    .collect::<Vec<_>>()
            })
            .collect();
        par_map(&chunks, opts.jobs, |chunk| {
            let cfgs: Vec<SimConfig> = chunk
                .iter()
                .map(|&(spec, scenario)| job_config(spec, scenario, opts))
                .collect();
            let outcome = run_batch_fallible(&cfgs, None, opts.kernel, false);
            for (&(spec, scenario), result) in chunk.iter().zip(outcome.results) {
                match result {
                    Ok(result) => {
                        let slot = self.slot((scenario.to_string(), spec.name));
                        // A concurrent `get` may have raced us to the slot;
                        // its result is bitwise identical, so either filler
                        // is fine.
                        slot.get_or_init(|| {
                            self.runs.fetch_add(1, Ordering::Relaxed);
                            self.persist(job_digest(spec, scenario, opts), &result);
                            Arc::new(result.clone())
                        });
                    }
                    Err(error) => self.record_failure(spec, scenario, opts, error),
                }
            }
        });
    }

    /// Number of distinct `(workload, scenario)` keys cached so far.
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

    /// Total simulations actually executed (cache misses). Equal to [`len`]
    /// unless a simulation is still in flight.
    ///
    /// [`len`]: ResultCache::len
    pub fn simulations_run(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Every completed result as `(workload, scenario, result)`, sorted by
    /// key for deterministic iteration. Slots still being simulated by
    /// another thread are skipped.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn results(&self) -> Vec<(&'static str, String, Arc<SimResult>)> {
        let map = self.results.lock().expect("cache lock poisoned");
        let mut out: Vec<_> = map
            .iter()
            .filter_map(|((scenario, workload), slot)| {
                slot.get().map(|r| (*workload, scenario.clone(), r.clone()))
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
/// * the `AUTORFM_MANIFEST` environment variable, when set (how `run_all`
///   directs each child's manifest next to its `.txt` report), else
/// * `results/<target>.json` when telemetry is enabled, else
/// * nowhere — [`Harness::finish`] is a no-op, so default runs leave the
///   filesystem untouched.
pub struct Harness {
    manifest: RunManifest,
    write_without_env: bool,
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
        Harness {
            manifest,
            write_without_env: opts.telemetry,
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
    /// Does nothing unless telemetry is enabled or `AUTORFM_MANIFEST` is set.
    pub fn finish(mut self) {
        let path = match std::env::var("AUTORFM_MANIFEST") {
            Ok(p) if !p.is_empty() => PathBuf::from(p),
            _ if self.write_without_env => {
                PathBuf::from("results").join(format!("{}.json", self.manifest.target))
            }
            _ => return,
        };
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

/// Writes a table as CSV to `path`.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_csv(
    path: &std::path::Path,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::File::create(path)?;
    let quote = |cell: &str| {
        if cell.contains(',') || cell.contains('"') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(())
}

/// Prints a fixed-width table: a header row then data rows.
///
/// If the `AUTORFM_CSV_DIR` environment variable is set, the table is also
/// written as `<dir>/<binary-name>.csv` for downstream plotting.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    if let Ok(dir) = std::env::var("AUTORFM_CSV_DIR") {
        let name = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "table".into());
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| write_csv(&path, headers, rows))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
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
    fn csv_writer_quotes_and_formats() {
        let dir = std::env::temp_dir().join("autorfm-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[
                vec!["1,5".into(), "x\"y".into()],
                vec!["2".into(), "z".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n\"1,5\",\"x\"\"y\"\n2,z\n");
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
        let cache = ResultCache::new();
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
        let matrix: Vec<SimJob> = vec![
            (spec, BASELINE_ZEN),
            (spec, Scenario::Rfm { th: 4 }),
            (spec, Scenario::AutoRfm { th: 4 }),
            (spec, BASELINE_ZEN), // duplicate: must dedup, not double-run
        ];
        let plain = run_matrix_cached(&matrix, &opts, &ResultCache::isolated());
        opts.batch = 8;
        let cache = ResultCache::isolated();
        let batched = run_matrix_cached(&matrix, &opts, &cache);
        assert_eq!(format!("{plain:?}"), format!("{batched:?}"));
        assert_eq!(cache.simulations_run(), 3);
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

//! The paper's evaluation as one registry: every table and figure is a
//! function `run(&mut Ctx)` listed in [`ALL`], and [`run`] executes a
//! selection of them one after another, in one process, over one
//! [`ResultCache`] — so a cell several figures use is simulated once (each
//! [`Ctx::run`] still fans out over `--jobs` threads).
//!
//! Each target writes `<dir>/<target>.txt` (its report) and
//! `<dir>/<target>.json` (its [`RunManifest`]: the run options, every cell
//! it used with its final metrics, its gauges, `simulations_run` and its
//! exit code). A target that panics keeps its partial report, followed by an
//! `=== FAILED` line with the panic message, and exit code 101; the targets
//! after it still run.

use crate::{ResultCache, RunOpts, SimJob};
use autorfm::experiments::Scenario;
use autorfm::snapshot::write_atomic;
use autorfm::telemetry::{Json, Labels, RunEntry, RunManifest};
use autorfm::SimResult;
use autorfm_campaign::runner::panic_message;
use autorfm_workloads::WorkloadSpec;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

mod ablations;
mod attack_fuzz;
mod fig01_overview;
mod fig03_rfm_slowdown;
mod fig08_mapping_impact;
mod fig11_rfm_vs_autorfm;
mod fig12_power;
mod fig13_prac_comparison;
mod fig14_threshold_vs_window;
mod fig16_escape_probability;
mod fig17_rubix_rfm;
mod fig18_other_trackers;
mod model_vs_sim;
mod security_montecarlo;
mod seed_sensitivity;
mod storage_overheads;
mod table2_trh_history;
mod table3_mint_threshold;
mod table5_workload_characteristics;
mod table6_mitigation_threshold;
mod tracker_zoo;

/// One experiment: it writes its report and records its cells through the
/// [`Ctx`] it is given, and signals failure by panicking.
pub type Experiment = fn(&mut Ctx);

/// One workload's row of a [`Ctx::sweep`]: the workload and its results, in
/// the order the scenarios were given.
pub type Row = (&'static WorkloadSpec, Vec<Arc<SimResult>>);

/// The workload-mean slowdown of column `col` against column `base` of a
/// [`Ctx::sweep`] (`autorfm::result::mean_slowdown`).
fn mean_column_slowdown(rows: &[Row], base: usize, col: usize) -> f64 {
    autorfm::result::mean_slowdown(rows.iter().map(|(_, r)| (&*r[base], &*r[col])))
}

/// A table line per row of a [`Ctx::sweep`]: the workload's name, then the
/// slowdown of every later column against column 0, then an `AVERAGE` line
/// of the column means. Returns the lines and the means.
fn slowdown_table(rows: &[Row]) -> (Vec<Vec<String>>, Vec<f64>) {
    let means: Vec<f64> = (1..rows.first().map_or(1, |(_, r)| r.len()))
        .map(|col| mean_column_slowdown(rows, 0, col))
        .collect();
    let mut lines: Vec<Vec<String>> = rows
        .iter()
        .map(|(spec, r)| {
            let slowdowns = r[1..].iter().map(|t| crate::pct(t.slowdown_vs(&r[0])));
            std::iter::once(spec.name.to_string())
                .chain(slowdowns)
                .collect()
        })
        .collect();
    lines.push(
        std::iter::once("AVERAGE".to_string())
            .chain(means.iter().map(|&m| crate::pct(m)))
            .collect(),
    );
    (lines, means)
}

/// Every experiment in run order: its name (the stem of its report and
/// manifest files) and its function.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig01_overview", fig01_overview::run),
    ("table2_trh_history", table2_trh_history::run),
    ("table3_mint_threshold", table3_mint_threshold::run),
    ("fig14_threshold_vs_window", fig14_threshold_vs_window::run),
    ("fig16_escape_probability", fig16_escape_probability::run),
    ("storage_overheads", storage_overheads::run),
    (
        "table5_workload_characteristics",
        table5_workload_characteristics::run,
    ),
    ("fig03_rfm_slowdown", fig03_rfm_slowdown::run),
    ("fig08_mapping_impact", fig08_mapping_impact::run),
    ("fig11_rfm_vs_autorfm", fig11_rfm_vs_autorfm::run),
    (
        "table6_mitigation_threshold",
        table6_mitigation_threshold::run,
    ),
    ("fig12_power", fig12_power::run),
    ("fig13_prac_comparison", fig13_prac_comparison::run),
    ("fig17_rubix_rfm", fig17_rubix_rfm::run),
    ("fig18_other_trackers", fig18_other_trackers::run),
    ("security_montecarlo", security_montecarlo::run),
    ("ablations", ablations::run),
    ("model_vs_sim", model_vs_sim::run),
    ("seed_sensitivity", seed_sensitivity::run),
    ("tracker_zoo", tracker_zoo::run),
    ("attack_fuzz", attack_fuzz::run),
];

/// What one experiment runs with and writes to: its own copy of the run
/// options, the run's cache, its report text and its manifest.
///
/// [`Ctx::run`] (and [`Ctx::sweep`], one `run` over a workload × scenario
/// matrix) records every cell the experiment touches, so its manifest lists
/// the cells it used — cache hits included — while `simulations_run` counts
/// only the cells it simulated itself.
pub struct Ctx<'a> {
    /// The options this experiment runs with (a copy it may narrow).
    pub opts: RunOpts,
    cache: &'a mut ResultCache,
    out: String,
    manifest: RunManifest,
    /// The cells touched so far, first label per key, in first-touch order.
    cells: Vec<(String, u64)>,
    seen: HashSet<u64>,
    simulations_before: usize,
    started: Instant,
}

impl<'a> Ctx<'a> {
    /// Starts experiment `target` with `opts` over `cache`.
    fn new(target: &str, opts: &RunOpts, cache: &'a mut ResultCache) -> Self {
        let mut manifest = RunManifest::new(target);
        manifest.jobs = opts.jobs as u64;
        // Every option the reports depend on (not `--jobs` or `--store`).
        let workloads = opts.workloads.iter().map(|w| Json::Str(w.name.to_string()));
        let mut config = vec![
            ("cores", Json::Num(f64::from(opts.cores))),
            ("instructions_per_core", Json::Num(opts.instructions as f64)),
            ("workloads", Json::Arr(workloads.collect())),
            ("seed", Json::Num(42.0)),
            ("telemetry", Json::Bool(opts.telemetry)),
        ];
        if let Some(ns) = opts.epoch_ns {
            config.push(("epoch_ns", Json::Num(ns as f64)));
        }
        if let Some(tracker) = opts.tracker {
            config.push(("tracker", Json::Str(tracker.to_string())));
        }
        manifest.config = config
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Ctx {
            opts: opts.clone(),
            simulations_before: cache.simulations_run(),
            cache,
            out: String::new(),
            manifest,
            cells: Vec::new(),
            seen: HashSet::new(),
            started: Instant::now(),
        }
    }

    /// Appends `text` to the report.
    pub fn print(&mut self, text: impl AsRef<str>) {
        self.out.push_str(text.as_ref());
    }

    /// Appends `text` and a newline to the report.
    pub fn println(&mut self, text: impl AsRef<str>) {
        self.print(text);
        self.out.push('\n');
    }

    /// Appends the standard banner: the title, then the run's shape.
    pub fn banner(&mut self, title: &str) {
        let shape = format!(
            "({} workloads, {} cores, {} instructions/core)\n",
            self.opts.workloads.len(),
            self.opts.cores,
            self.opts.instructions
        );
        self.println(format!("=== {title} ==="));
        self.println(shape);
    }

    /// Every job's result, in job order — simulated, reloaded or cached by
    /// [`ResultCache::run`] on `opts.jobs` threads — with each job recorded
    /// as a cell of this experiment (first label per key).
    ///
    /// # Panics
    ///
    /// Panics with the cell's error text if a job's cell failed.
    pub fn run(&mut self, jobs: &[SimJob]) -> Vec<Arc<SimResult>> {
        for job in jobs {
            let key = job.cfg.key();
            if self.seen.insert(key) {
                self.cells.push((job.label.clone(), key));
            }
        }
        self.cache.run(jobs, self.opts.jobs)
    }

    /// One [`Ctx::run`] over `opts.workloads` × `scenarios`, workload-major:
    /// one row per workload, its results in `scenarios` order.
    ///
    /// # Panics
    ///
    /// Panics with the cell's error text if a cell failed.
    pub fn sweep(&mut self, scenarios: &[Scenario]) -> Vec<Row> {
        let workloads = self.opts.workloads.clone();
        let jobs: Vec<SimJob> = workloads
            .iter()
            .flat_map(|&spec| scenarios.iter().map(move |&s| (spec, s)))
            .map(|(spec, scenario)| SimJob::new(spec, scenario, &self.opts))
            .collect();
        let mut results = self.run(&jobs).into_iter();
        workloads
            .into_iter()
            .map(|spec| (spec, results.by_ref().take(scenarios.len()).collect()))
            .collect()
    }

    /// Records a top-level scalar metric in the manifest — for outputs that
    /// are not simulation results.
    pub fn gauge(&mut self, name: &str, labels: Labels<'_>, value: f64) {
        self.manifest.metrics.gauge(name, labels, value);
    }

    /// The finished report and manifest, with `exit_code` (0: completed).
    fn finish(mut self, exit_code: i64) -> (String, RunManifest) {
        let m = &mut self.manifest;
        for (label, key) in &self.cells {
            if let Some(result) = self.cache.result(*key) {
                m.runs.push(RunEntry {
                    key: label.clone(),
                    metrics: result.to_registry(),
                    series: result.series.clone(),
                });
            }
        }
        m.exit_code = Some(exit_code);
        m.wall_s = self.started.elapsed().as_secs_f64();
        m.sim_cycles = m
            .runs
            .iter()
            .filter_map(|r| r.metrics.get("elapsed_cycles", &[]))
            .map(|v| v.scalar() as u64)
            .sum();
        m.cycles_per_sec = if m.wall_s > 0.0 {
            m.sim_cycles as f64 / m.wall_s
        } else {
            0.0
        };
        let simulations = m.runs.len() as u64;
        m.metrics.counter("simulations", &[], simulations);
        let simulated = self.cache.simulations_run() - self.simulations_before;
        m.metrics.counter("simulations_run", &[], simulated as u64);
        (self.out, self.manifest)
    }
}

/// Runs `entries` one after another over `cache`, writing each report to
/// `<dir>/<name>.txt` and each manifest to `<dir>/<name>.json`, each through
/// `autorfm::snapshot::write_atomic`, so a killed run leaves the old file or
/// the new one, never a torn one. A panicking target is reported and the rest
/// still run.
///
/// Returns one line per failed target (empty: every target completed).
///
/// # Panics
///
/// Panics if `dir` cannot be created or a report cannot be written.
pub fn run(
    entries: &[(&str, Experiment)],
    opts: &RunOpts,
    cache: &mut ResultCache,
    dir: &Path,
) -> Vec<String> {
    std::fs::create_dir_all(dir).expect("create the results directory");
    let mut failures = Vec::new();
    for &(name, experiment) in entries {
        eprintln!("=== running {name} ===");
        let mut ctx = Ctx::new(name, opts, cache);
        let outcome = catch_unwind(AssertUnwindSafe(|| experiment(&mut ctx)));
        let (mut report, manifest) = ctx.finish(if outcome.is_ok() { 0 } else { 101 });
        if let Err(payload) = outcome {
            let message = panic_message(payload);
            report.push_str(&format!("\n=== FAILED: {message}\n"));
            failures.push(format!("{name}: {message}"));
        }
        let path = dir.join(format!("{name}.txt"));
        write_atomic(&path, report.as_bytes()).expect("write the report");
        let manifest_path = dir.join(format!("{name}.json"));
        let json = manifest.to_json().to_pretty();
        if let Err(e) = write_atomic(&manifest_path, json.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", manifest_path.display());
        }
        eprintln!("    -> {}", path.display());
    }
    failures
}

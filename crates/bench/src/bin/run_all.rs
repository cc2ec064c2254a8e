//! Runs every experiment binary, writing each report to
//! `results/<target>.txt` and a machine-readable manifest to
//! `results/<target>.json` (see `autorfm_telemetry::RunManifest`). Pass the
//! usual flags (`--quick`, `--full`, `--jobs N`, `--telemetry`, …) and they
//! are forwarded to each experiment. `run_all`'s own flags:
//!
//! * `--list` — print the target names and exit,
//! * `--only <substring>` — run only matching targets (repeatable),
//! * `--resume` — skip targets whose manifest records a clean exit, and let
//!   the rest reload completed simulations from the cell store,
//! * `--store DIR` — the cell store the children share (default
//!   `results/store`).
//!
//! Every simulating child runs with `--store DIR --manifest
//! results/<target>.json`: the user's store when `--store` is given, else
//! `results/store`. Children route their completed simulations through that
//! content-addressed cell store (see `autorfm_snapshot::store`) — one shared,
//! restart-safe result per configuration (`SimConfig::key`) across all
//! targets and any concurrently running `campaignd` — so a campaign killed
//! mid-flight resumes under `--resume` without re-running finished targets or
//! finished simulations inside interrupted targets. Keys are salted with the
//! model fingerprint, so a kept store never serves cells an older model
//! computed; a fresh (non-`--resume`) run still empties the default
//! `results/store` first to keep it from growing, while a user-set store is
//! never emptied.
//!
//! Experiments run as child processes with bounded concurrency. The pool
//! size is the host's available parallelism divided by the per-child
//! `--jobs` thread count (min 1, capped at 8) — each child already fans its
//! simulations out over `--jobs` threads, so the pool fills the host without
//! oversubscribing it.
//! Failures still produce a `results/<target>.txt` capturing the partial
//! stdout, the child's exit code, and a stderr tail.

use autorfm::telemetry::{Json, RunManifest};
use autorfm_bench::{par_map, RunOpts};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The cell store children share when `--store` is not given.
const DEFAULT_STORE: &str = "results/store";

const TARGETS: &[&str] = &[
    "fig01_overview",
    "table2_trh_history",
    "table3_mint_threshold",
    "fig14_threshold_vs_window",
    "fig16_escape_probability",
    "storage_overheads",
    "table5_workload_characteristics",
    "fig03_rfm_slowdown",
    "fig08_mapping_impact",
    "fig11_rfm_vs_autorfm",
    "table6_mitigation_threshold",
    "fig12_power",
    "fig13_prac_comparison",
    "fig17_rubix_rfm",
    "fig18_other_trackers",
    "security_montecarlo",
    "ablations",
    "model_vs_sim",
    "seed_sensitivity",
];

/// Experiments that take simulation flags (the analytic ones don't need them).
const TAKES_FLAGS: &[&str] = &[
    "fig01_overview",
    "table5_workload_characteristics",
    "fig03_rfm_slowdown",
    "fig08_mapping_impact",
    "fig11_rfm_vs_autorfm",
    "table6_mitigation_threshold",
    "fig12_power",
    "fig13_prac_comparison",
    "fig17_rubix_rfm",
    "fig18_other_trackers",
    "ablations",
    "model_vs_sim",
    "seed_sensitivity",
];

/// Last `lines` lines of a child's stderr, lossily decoded.
fn stderr_tail(stderr: &[u8], lines: usize) -> String {
    let text = String::from_utf8_lossy(stderr);
    let all: Vec<&str> = text.lines().collect();
    let at = all.len().saturating_sub(lines);
    all[at..].join("\n")
}

/// The per-child worker-thread count the forwarded flags will produce:
/// `--jobs N` if present, else the harness default (host parallelism).
fn child_jobs(flags: &[String]) -> usize {
    flags
        .iter()
        .position(|f| f == "--jobs")
        .and_then(|i| flags.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(|| RunOpts::default().jobs, |n| n.max(1))
}

/// Process-pool size: available parallelism divided by the per-child
/// thread count (min 1, capped at 8).
fn pool_size(flags: &[String]) -> usize {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    (host / child_jobs(flags)).clamp(1, 8)
}

/// Ensures `results/<target>.json` exists and carries the child's exit code
/// and (for analytic targets without their own harness) its wall clock.
fn finalize_manifest(target: &str, exit_code: Option<i64>, wall_s: f64, jobs: usize) {
    let path = Path::new("results").join(format!("{target}.json"));
    let mut manifest = RunManifest::load(&path).unwrap_or_else(|_| {
        // The child didn't write one (analytic experiment or early crash):
        // record the run shape run_all observed from the outside.
        let mut m = RunManifest::new(target);
        m.jobs = jobs as u64;
        m.wall_s = wall_s;
        m.set_config("recorded_by", Json::Str("run_all".into()));
        m
    });
    manifest.exit_code = exit_code;
    if let Err(e) = manifest.save(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Whether `results/<target>.json` records a clean finish (`--resume` skips
/// such targets).
fn is_complete(target: &str) -> bool {
    let path = Path::new("results").join(format!("{target}.json"));
    RunManifest::load(&path).is_ok_and(|m| m.exit_code == Some(0))
}

/// `run_all`'s own flags; everything else is forwarded to each child.
#[derive(Default)]
struct OwnFlags {
    list: bool,
    resume: bool,
    only: Vec<String>,
    store: Option<PathBuf>,
}

/// Splits `run_all`'s own flags (`--list`, `--only X`, `--resume`,
/// `--store DIR`) from the flags forwarded to each child.
fn parse_own_flags(args: Vec<String>) -> (OwnFlags, Vec<String>) {
    let mut own = OwnFlags::default();
    let mut forwarded = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => own.list = true,
            "--resume" => own.resume = true,
            "--only" => own
                .only
                .push(iter.next().expect("--only needs a substring")),
            "--store" => own.store = Some(iter.next().expect("--store needs a directory").into()),
            _ => forwarded.push(arg),
        }
    }
    (own, forwarded)
}

fn main() {
    let (own, flags) = parse_own_flags(std::env::args().skip(1).collect());
    let selected: Vec<&str> = TARGETS
        .iter()
        .copied()
        .filter(|t| own.only.is_empty() || own.only.iter().any(|o| t.contains(o.as_str())))
        .collect();
    if own.list {
        for target in &selected {
            println!("{target}");
        }
        return;
    }
    if selected.is_empty() {
        eprintln!("no targets match --only {:?}; try --list", own.only);
        std::process::exit(2);
    }
    std::fs::create_dir_all("results").expect("create results/");
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("locate target dir");
    let procs = pool_size(&flags);
    let jobs = child_jobs(&flags);
    let store = match own.store {
        Some(dir) => dir,
        None => {
            let dir = PathBuf::from(DEFAULT_STORE);
            if !own.resume {
                // Cells an older build computed must not answer this run.
                let _ = std::fs::remove_dir_all(&dir);
            }
            dir
        }
    };
    eprintln!("cell store: {}", store.display());
    eprintln!("process pool: {procs} (child --jobs {jobs})");

    let failures: Vec<Option<String>> = par_map(&selected, procs, |&target| {
        if own.resume && is_complete(target) {
            eprintln!("=== {target}: already complete, skipping (--resume) ===");
            return None;
        }
        eprintln!("=== running {target} ===");
        let manifest_path = format!("results/{target}.json");
        // Remove any stale manifest so a crash can't leave last run's data
        // behind wearing this run's exit code.
        let _ = std::fs::remove_file(&manifest_path);
        let mut cmd = Command::new(exe_dir.join(target));
        if TAKES_FLAGS.contains(&target) {
            cmd.args(&flags)
                .arg("--store")
                .arg(&store)
                .args(["--manifest", &manifest_path]);
        }
        let path = format!("results/{target}.txt");
        let started = Instant::now();
        match cmd.output() {
            Ok(out) if out.status.success() => {
                std::fs::write(&path, &out.stdout).expect("write result");
                finalize_manifest(target, Some(0), started.elapsed().as_secs_f64(), jobs);
                eprintln!("    -> {path}");
                None
            }
            Ok(out) => {
                // Keep whatever the experiment printed before dying, plus the
                // end of its stderr, so the report directory stays complete.
                let mut body = out.stdout.clone();
                let tail = stderr_tail(&out.stderr, 20);
                let code = out
                    .status
                    .code()
                    .map_or("killed by signal".to_string(), |c| c.to_string());
                body.extend_from_slice(
                    format!(
                        "\n=== FAILED ({}) — stderr tail ===\nexit code: {code}\n{tail}\n",
                        out.status
                    )
                    .as_bytes(),
                );
                std::fs::write(&path, &body).expect("write result");
                finalize_manifest(
                    target,
                    out.status.code().map(i64::from),
                    started.elapsed().as_secs_f64(),
                    jobs,
                );
                eprintln!("    FAILED ({}) -> {path}", out.status);
                Some(format!("{target}: exited with {}", out.status))
            }
            Err(e) => Some(format!(
                "{target}: could not launch (build all bins first): {e}"
            )),
        }
    });

    let failures: Vec<String> = failures.into_iter().flatten().collect();
    if failures.is_empty() {
        eprintln!("done.");
    } else {
        eprintln!("done with {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("    {f}");
        }
        std::process::exit(1);
    }
}

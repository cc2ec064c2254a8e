//! Runs the paper's experiments ([`autorfm_bench::experiments::ALL`]) one
//! after another in this process, over one shared result cache, writing
//! each report to `results/<target>.txt` and its manifest to
//! `results/<target>.json` (see `autorfm_telemetry::RunManifest`). Every
//! experiment flag (`--quick`, `--full`, `--jobs N`, `--telemetry`,
//! `--store DIR`, …; see `RunOpts::from_args`) applies to every target.
//! `run_all`'s own flags:
//!
//! * `--list` — print the target names and exit,
//! * `--only <substring>` — run only matching targets (repeatable; one
//!   target alone is `--only <target>`).
//!
//! Completed simulations also go to a content-addressed cell store (see
//! `autorfm_snapshot::store`): `--store DIR` if given (never emptied), else
//! `results/store`, which the run empties first. Keys are salted with the
//! model fingerprint, so a kept store never serves cells an older model
//! computed, and a killed run resumes with `--store results/store`: every
//! selected target reruns, reloading its finished simulations from the store.
//!
//! At the end it prints how many distinct cells the run requested and
//! simulated, then how many work units warmed up, over how many distinct
//! shapes, and their summed wall time across worker threads.
//!
//! A target that panics keeps its partial report, followed by an
//! `=== FAILED` line, and a nonzero manifest `exit_code`; the remaining
//! targets still run and `run_all` exits 1.

use autorfm_bench::experiments::{self, ALL};
use autorfm_bench::{ResultCache, RunOpts};
use std::path::{Path, PathBuf};

fn main() {
    let (mut list, mut only, mut rest) = (false, Vec::new(), Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--only" => only.push(args.next().expect("--only needs a substring")),
            _ => rest.push(arg),
        }
    }
    let mut opts = RunOpts::from_args(rest);
    let selected: Vec<_> = ALL
        .iter()
        .copied()
        .filter(|(name, _)| only.is_empty() || only.iter().any(|o| name.contains(o.as_str())))
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}");
        }
        return;
    }
    if selected.is_empty() {
        eprintln!("no targets match --only {only:?}; try --list");
        std::process::exit(2);
    }
    let store = opts
        .store
        .get_or_insert_with(|| {
            let dir = PathBuf::from("results/store");
            // Cells an older build computed must not answer this run.
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .clone();
    // Named once open: `ResultCache::new` panics on a store it cannot open.
    let mut cache = ResultCache::new(&opts);
    eprintln!("cell store: {}", store.display());

    let failures = experiments::run(&selected, &opts, &mut cache, Path::new("results"));
    eprintln!(
        "{} distinct cells, {} simulated",
        cache.len(),
        cache.simulations_run()
    );
    let ledger = cache.warmups();
    eprintln!(
        "{} warmups over {} shapes, {:.1} s of work-unit time",
        ledger.warmups,
        ledger.shapes.len(),
        ledger.unit_wall.as_secs_f64()
    );
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

//! The experiment registry and its runner: one entry per pinned table, a
//! panicking target fails alone, and a rerun over a populated cell store
//! reproduces its reports without simulating the stored cells.

use autorfm::telemetry::RunManifest;
use autorfm_bench::experiments::{self, Ctx, Experiment, ALL};
use autorfm_bench::{ResultCache, RunOpts};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty scratch directory unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autorfm-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn registry_names_are_unique_and_match_the_golden_tables() {
    let names: BTreeSet<&str> = ALL.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), ALL.len(), "duplicate registry name");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
    let stems: BTreeSet<String> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        stems.iter().map(String::as_str).collect(),
        "every target has exactly one results/golden table"
    );
}

fn ok(ctx: &mut Ctx) {
    ctx.println("fine");
}

fn panics(ctx: &mut Ctx) {
    ctx.println("partial");
    panic!("boom");
}

#[test]
fn a_panicking_target_fails_alone() {
    let dir = scratch("runner-panic");
    let entries: [(&str, Experiment); 3] = [("a", ok), ("b", panics), ("c", ok)];
    let failures = experiments::run(
        &entries,
        &RunOpts::default(),
        &mut ResultCache::default(),
        &dir,
    );
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with("b: ") && failures[0].contains("boom"));

    let report = |t: &str| std::fs::read_to_string(dir.join(format!("{t}.txt"))).unwrap();
    let exit_code = |t: &str| {
        RunManifest::load(&dir.join(format!("{t}.json")))
            .unwrap()
            .exit_code
    };
    let failed = report("b");
    assert!(failed.starts_with("partial\n"), "{failed}");
    assert!(
        failed.contains("=== FAILED") && failed.contains("boom"),
        "{failed}"
    );
    assert!(exit_code("b").is_some_and(|c| c != 0));
    for t in ["a", "c"] {
        assert_eq!(report(t), "fine\n");
        assert_eq!(exit_code(t), Some(0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A killed run resumes over its store: a second `run_all --store
/// results/store` reruns the target, reloads every cell and writes the same
/// report; a run without `--store` empties `results/store` and simulates
/// again.
#[test]
fn rerun_over_its_store_reproduces_a_target_without_simulating() {
    let dir = scratch("run-all-store");
    let run_all = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(["--only", "fig03", "--quick", "--workloads", "mcf"])
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "run_all {args:?} failed");
        let results = dir.join("results");
        let manifest = RunManifest::load(&results.join("fig03_rfm_slowdown.json")).unwrap();
        let simulated = manifest.metrics.get("simulations_run", &[]).unwrap();
        let report = std::fs::read(results.join("fig03_rfm_slowdown.txt")).unwrap();
        (report, simulated.scalar())
    };
    let (report, simulated) = run_all(&[]);
    assert_eq!(simulated, 5.0, "a fresh run simulates every cell");
    assert_eq!(
        run_all(&["--store", "results/store"]),
        (report.clone(), 0.0)
    );
    assert_eq!(
        run_all(&[]),
        (report, 5.0),
        "no --store: the store is emptied"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--store` that cannot be opened stops `run_all` before any target runs,
/// and it never names the path as its cell store.
#[test]
fn an_unopenable_store_fails_without_claiming_it() {
    let dir = scratch("run-all-bad-store");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"a regular file").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "table2_trh_history", "--store"])
        .arg(&file)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("cannot open store"), "{stderr}");
    assert!(!stderr.contains("cell store:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every ablation variant and seed-sensitivity point is a cell keyed by the
/// full configuration it runs, so a second run over the first run's
/// `--store`, with a fresh cache, simulates only what the store cannot hold:
/// seed_sensitivity's AutoRFM-4 latency probes (one per seed and workload),
/// which read a telemetry registry and so are never stored. Both reports
/// come out byte for byte the same.
#[test]
fn rerun_over_a_populated_store_simulates_only_telemetry_cells() {
    let dir = scratch("rerun-store");
    let store = dir.join("store");
    let opts = RunOpts::from_args(
        [
            "--workloads",
            "mcf",
            "--cores",
            "2",
            "--instructions",
            "5000",
            "--jobs",
            "2",
            "--store",
        ]
        .into_iter()
        .map(String::from)
        .chain([store.to_string_lossy().into_owned()]),
    );
    let entries: Vec<(&str, Experiment)> = ALL
        .iter()
        .copied()
        .filter(|(name, _)| ["ablations", "seed_sensitivity"].contains(name))
        .collect();
    assert_eq!(entries.len(), 2);
    let run = |out: &Path| {
        let failures = experiments::run(&entries, &opts, &mut ResultCache::new(&opts), out);
        assert!(failures.is_empty(), "{failures:?}");
        let simulated = |target: &str| {
            RunManifest::load(&out.join(format!("{target}.json")))
                .unwrap()
                .metrics
                .get("simulations_run", &[])
                .expect("every manifest counts its simulations")
                .scalar() as usize
        };
        (simulated("ablations"), simulated("seed_sensitivity"))
    };
    let (first, second) = (dir.join("first"), dir.join("second"));
    let (ablations, seeds) = run(&first);
    assert!(ablations > 0 && seeds > 0, "the first run simulates");
    let probes = 5 * opts.workloads.len();
    assert_eq!(run(&second), (0, probes), "only the latency probes rerun");
    for target in ["ablations", "seed_sensitivity"] {
        let report = |out: &Path| std::fs::read(out.join(format!("{target}.txt"))).unwrap();
        assert_eq!(report(&first), report(&second), "{target} report changed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

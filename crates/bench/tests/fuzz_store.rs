//! The attack fuzzer's persistent evaluation store, end to end: a second
//! `run_all --only attack_fuzz` over the store the first one filled
//! simulates nothing, answers every genome from disk and writes the same
//! report.

use autorfm::telemetry::RunManifest;
use std::path::Path;
use std::process::Command;

/// Runs one quick MINT campaign over `store` from `dir` and returns its
/// report and manifest.
fn fuzz(dir: &Path, store: &Path) -> (Vec<u8>, RunManifest) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "attack_fuzz", "--quick", "--tracker", "mint"])
        .arg("--store")
        .arg(store)
        .current_dir(dir)
        .output()
        .expect("run_all starts");
    assert!(
        out.status.success(),
        "run_all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = dir.join("results");
    (
        std::fs::read(results.join("attack_fuzz.txt")).expect("a report"),
        RunManifest::load(&results.join("attack_fuzz.json")).expect("a manifest"),
    )
}

#[test]
fn rerun_over_a_warm_store_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("autorfm-fuzz-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let (cold_report, cold) = fuzz(&dir, &store);
    let (warm_report, warm) = fuzz(&dir, &store);
    let _ = std::fs::remove_dir_all(&dir);
    let gauge = |m: &RunManifest, name: &str| m.metrics.get(name, &[]).expect(name).scalar();
    assert!(gauge(&cold, "sim_evaluated") > 0.0);
    assert_eq!(gauge(&warm, "sim_evaluated"), 0.0);
    assert_eq!(
        gauge(&warm, "store_hits"),
        gauge(&cold, "sim_evaluated"),
        "every genome the first run simulated is answered from the store"
    );
    assert_eq!(
        String::from_utf8(warm_report).unwrap(),
        String::from_utf8(cold_report).unwrap(),
        "the report does not depend on the store"
    );
}

//! The attack fuzzer's persistent evaluation store, end to end: a second
//! `attack_fuzz` run over the store the first one filled simulates nothing,
//! answers every genome from disk and reproduces the survivor archive.

use autorfm::telemetry::Json;
use std::path::Path;
use std::process::Command;

/// Runs one small MINT campaign over `store` and returns its closing JSON
/// record (the last stdout line).
fn fuzz(store: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_attack_fuzz"))
        .args([
            "--tracker",
            "mint",
            "--generations",
            "1",
            "--population",
            "8",
        ])
        .args(["--activations", "20000", "--store"])
        .arg(store)
        .output()
        .expect("attack_fuzz starts");
    assert!(
        out.status.success(),
        "attack_fuzz failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a closing record")).expect("a JSON record")
}

#[test]
fn rerun_over_a_warm_store_simulates_nothing() {
    let store = std::env::temp_dir().join(format!("autorfm-fuzz-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let cold = fuzz(&store);
    let warm = fuzz(&store);
    let _ = std::fs::remove_dir_all(&store);
    let field = |record: &Json, name: &str| record.get(name).cloned().expect(name);
    assert!(field(&cold, "sim_evaluated").as_u64() > Some(0));
    assert_eq!(field(&warm, "sim_evaluated").as_u64(), Some(0));
    assert_eq!(
        field(&warm, "store_hits").as_u64(),
        field(&cold, "sim_evaluated").as_u64(),
        "every genome the first run simulated is answered from the store"
    );
    assert_eq!(
        field(&warm, "archive_digest"),
        field(&cold, "archive_digest")
    );
}

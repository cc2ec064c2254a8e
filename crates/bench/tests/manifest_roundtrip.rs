//! End-to-end manifest flow: a [`Harness`] records simulations, writes the
//! manifest where `--manifest` points (how `run_all` directs children), and
//! `RunManifest::load` round-trips everything `telemetry_report` needs.

use autorfm::telemetry::RunManifest;
use autorfm_bench::{Harness, ResultCache, RunOpts, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

#[test]
fn harness_writes_manifest_where_opts_point() {
    let dir = std::env::temp_dir().join("autorfm-manifest-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.json");
    let _ = std::fs::remove_file(&path);

    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let opts = RunOpts {
        cores: 2,
        instructions: 2_000,
        workloads: vec![spec],
        jobs: 1,
        telemetry: true,
        manifest: Some(path.clone()),
        ..RunOpts::default()
    };
    let mut harness = Harness::new(&opts);
    let result = ResultCache::default().get(spec, BASELINE_ZEN, &opts);
    harness.record(&format!("{}/{BASELINE_ZEN}", spec.name), &result);
    harness.record(&format!("{}/{BASELINE_ZEN}", spec.name), &result); // dup: kept once
    harness.finish();

    let manifest = RunManifest::load(&path).expect("manifest written and parseable");
    assert_eq!(manifest.jobs, 1);
    assert_eq!(manifest.runs.len(), 1, "duplicate keys are kept once");
    assert!(manifest.wall_s > 0.0);
    assert_eq!(manifest.sim_cycles, result.elapsed.raw());
    assert!(manifest.cycles_per_sec > 0.0);

    let entry = &manifest.runs[0];
    assert_eq!(entry.key, format!("mcf/{BASELINE_ZEN}"));
    assert!(entry.series.is_some(), "telemetry on records the series");
    let acts = entry.metrics.get("dram_acts", &[]).expect("dram export");
    assert_eq!(acts.scalar() as u64, result.dram.acts.get());
    assert!(entry.metrics.get("mc_row_hits", &[]).is_some());
    assert!(entry.metrics.get("llc_load_misses", &[]).is_some());

    // What telemetry_report renders must not panic and must name the run.
    assert!(manifest.summary().contains("mcf/baseline-zen"));
    assert!(manifest
        .diff(&manifest)
        .iter()
        .all(|d| d.delta() == Some(0.0)));
}

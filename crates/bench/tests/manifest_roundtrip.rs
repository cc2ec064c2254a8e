//! End-to-end manifest flow through the experiment runner: each target's
//! manifest lists every cell it used — cache hits included — counts only
//! the cells it simulated itself, and `RunManifest::load` round-trips
//! everything `telemetry_report` needs.

use autorfm::experiments::Scenario;
use autorfm::telemetry::RunManifest;
use autorfm_bench::experiments::{self, Ctx, Experiment};
use autorfm_bench::{ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;
use std::sync::Arc;

fn mcf_baseline(ctx: &Ctx) -> SimJob {
    SimJob::new(
        WorkloadSpec::by_name("mcf").unwrap(),
        BASELINE_ZEN,
        &ctx.opts,
    )
}

/// Simulates the cell, then reads it twice more.
fn first(ctx: &mut Ctx) {
    let job = mcf_baseline(ctx);
    for _ in 0..3 {
        ctx.run(std::slice::from_ref(&job));
    }
}

/// Reuses the cell `first` simulated.
fn second(ctx: &mut Ctx) {
    let job = mcf_baseline(ctx);
    ctx.run(std::slice::from_ref(&job));
}

#[test]
fn runner_manifests_list_every_cell_a_target_used() {
    let dir = std::env::temp_dir().join(format!("autorfm-manifest-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let opts = RunOpts {
        cores: 2,
        instructions: 2_000,
        workloads: vec![spec],
        jobs: 1,
        telemetry: true,
        ..RunOpts::default()
    };
    let mut cache = ResultCache::default();
    let entries: [(&str, Experiment); 2] = [("first", first), ("second", second)];
    assert!(experiments::run(&entries, &opts, &mut cache, &dir).is_empty());
    let result = cache
        .run(&[SimJob::new(spec, BASELINE_ZEN, &opts)], 1)
        .remove(0);

    let mut simulated = 0;
    for (target, ran) in [("first", 1), ("second", 0)] {
        let manifest = RunManifest::load(&dir.join(format!("{target}.json")))
            .expect("manifest written and parseable");
        assert_eq!(manifest.target, target);
        assert_eq!(manifest.exit_code, Some(0));
        assert_eq!(manifest.jobs, 1);
        assert_eq!(manifest.runs.len(), 1, "{target}: one cell, kept once");
        let counter = |name| manifest.metrics.get(name, &[]).map(|v| v.scalar() as u64);
        assert_eq!(counter("simulations_run"), Some(ran), "{target}");
        assert_eq!(counter("simulations"), Some(1), "{target}");
        simulated += ran;
        assert_eq!(manifest.sim_cycles, result.elapsed.raw());
        assert!(manifest.wall_s > 0.0 && manifest.cycles_per_sec > 0.0);

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
    assert_eq!(
        simulated,
        cache.len() as u64,
        "every distinct cell ran once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asks for the baseline (cached before the target runs), RFM-4 and the
/// baseline again in one `Ctx::run`: the results come back in job order,
/// the duplicate as the very same result.
fn duplicated(ctx: &mut Ctx) {
    let base = mcf_baseline(ctx);
    let rfm = SimJob::new(base.cfg.workload, Scenario::Rfm { th: 4 }, &ctx.opts);
    let results = ctx.run(&[base.clone(), rfm, base]);
    assert_eq!(results.len(), 3);
    assert!(
        Arc::ptr_eq(&results[0], &results[2]),
        "one cell, one result"
    );
    assert!(!Arc::ptr_eq(&results[0], &results[1]));
    assert_eq!(results[0].dram.rfms.get(), 0, "the baseline issues no RFM");
    assert!(results[1].dram.rfms.get() > 0, "RFM-4 issues RFMs");
}

#[test]
fn ctx_run_keeps_job_order_and_lists_a_duplicate_once() {
    let dir = std::env::temp_dir().join(format!("autorfm-ctx-run-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let opts = RunOpts {
        cores: 2,
        instructions: 2_000,
        workloads: vec![spec],
        jobs: 2,
        ..RunOpts::default()
    };
    let mut cache = ResultCache::default();
    cache.run(&[SimJob::new(spec, BASELINE_ZEN, &opts)], 1);
    let entries: [(&str, Experiment); 1] = [("duplicated", duplicated)];
    let failures = experiments::run(&entries, &opts, &mut cache, &dir);
    assert!(failures.is_empty(), "{failures:?}");

    let manifest = RunManifest::load(&dir.join("duplicated.json")).unwrap();
    let labels: Vec<&str> = manifest.runs.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(labels, ["mcf/baseline-zen", "mcf/RFM-4"], "each key once");
    let simulated = manifest.metrics.get("simulations_run", &[]).unwrap();
    assert_eq!(simulated.scalar(), 1.0, "only RFM-4 was fresh");
    assert_eq!(cache.simulations_run(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

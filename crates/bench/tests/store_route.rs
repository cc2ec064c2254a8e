//! The harness's one persistence path: [`ResultCache::with_store`] (and
//! [`ResultCache::new`] under `--store DIR`) routes completed simulations
//! through the content-addressed cell store, so a second life reloads
//! instead of re-simulating.

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::{CellRecord, CellStore};
use autorfm_bench::{job_digest, ResultCache, RunOpts, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

fn tiny_opts() -> RunOpts {
    RunOpts {
        cores: 1,
        instructions: 2_000,
        workloads: vec![WorkloadSpec::by_name("wrf").unwrap()],
        jobs: 1,
        ..RunOpts::default()
    }
}

#[test]
fn store_backed_cache_survives_a_reload_without_resimulating() {
    let dir = std::env::temp_dir().join(format!("autorfm-store-route-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let opts = tiny_opts();
    let spec = opts.workloads[0];
    let key = job_digest(spec, BASELINE_ZEN, &opts);

    // A different job shape is a different key — no false sharing.
    let mut other_shape = opts.clone();
    other_shape.instructions = 3_000;
    assert_ne!(key, job_digest(spec, BASELINE_ZEN, &other_shape));
    assert_ne!(key, job_digest(spec, Scenario::Rfm { th: 4 }, &opts));

    // First life simulates and persists a cell record under the job digest.
    let cache = ResultCache::with_store(dir.clone());
    let first = cache.get(spec, BASELINE_ZEN, &opts);
    assert_eq!(cache.simulations_run(), 1);
    let store = CellStore::open(&dir).unwrap();
    assert!(
        store.contains(key),
        "cell record persisted under job_digest"
    );

    // Second life (a fresh cache on the same store) reloads instead of
    // re-running, and the reloaded result matches the original.
    let cache2 = ResultCache::with_store(dir.clone());
    let back = cache2.get(spec, BASELINE_ZEN, &opts);
    assert_eq!(cache2.simulations_run(), 0);
    assert_eq!(back.elapsed, first.elapsed);
    assert_eq!(back.per_core_ipc, first.per_core_ipc);
    assert_eq!(back.dram.acts.get(), first.dram.acts.get());

    // A persisted *failure* record is not a result: the job re-runs.
    let other = Scenario::Rfm { th: 4 };
    let failed_key = job_digest(spec, other, &opts);
    store
        .put(failed_key, &CellRecord::failed(failed_key, "lane panicked"))
        .unwrap();
    let cache3 = ResultCache::with_store(dir.clone());
    let _ = cache3.get(spec, other, &opts);
    assert_eq!(cache3.simulations_run(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opts_store_persists_and_reloads_like_with_store() {
    let dir = std::env::temp_dir().join(format!("autorfm-opts-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOpts {
        store: Some(dir.clone()),
        ..tiny_opts()
    };
    let spec = opts.workloads[0];

    let cache = ResultCache::new(&opts);
    let first = cache.get(spec, BASELINE_ZEN, &opts);
    assert_eq!(cache.simulations_run(), 1);
    let key = job_digest(spec, BASELINE_ZEN, &opts);
    assert!(CellStore::open(&dir).unwrap().contains(key));

    let reloaded = ResultCache::new(&opts);
    assert_eq!(
        reloaded.get(spec, BASELINE_ZEN, &opts).elapsed,
        first.elapsed
    );
    assert_eq!(reloaded.simulations_run(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

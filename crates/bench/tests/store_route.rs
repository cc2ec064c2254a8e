//! The harness's one persistence path: [`ResultCache::new`] under
//! `--store DIR` routes completed simulations
//! through the content-addressed cell store, keyed by the configuration each
//! cell runs ([`SimConfig::key`]), so a second life reloads instead of
//! re-simulating — and never reloads a result of another configuration or
//! another model.

use autorfm::experiments::Scenario;
use autorfm::memctrl::{RaaRefCredit, RetryPolicy};
use autorfm::sim_core::{Cycle, TimingOverride};
use autorfm::snapshot::store::{CellRecord, CellStore};
use autorfm::snapshot::{digest64, Snapshot, Writer, MODEL_FINGERPRINT};
use autorfm::SimConfig;
use autorfm::SimResult;
use autorfm_bench::{ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tiny_opts() -> RunOpts {
    RunOpts {
        cores: 1,
        instructions: 2_000,
        workloads: vec![WorkloadSpec::by_name("wrf").unwrap()],
        jobs: 1,
        ..RunOpts::default()
    }
}

/// `tiny_opts` persisting into the store at `dir`.
fn stored(dir: &Path) -> RunOpts {
    RunOpts {
        store: Some(dir.to_path_buf()),
        ..tiny_opts()
    }
}

/// `job`'s result from `cache`: a one-job [`ResultCache::run`].
fn one(cache: &mut ResultCache, job: &SimJob) -> Arc<SimResult> {
    cache.run(std::slice::from_ref(job), 1).remove(0)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autorfm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_backed_cache_survives_a_reload_without_resimulating() {
    let dir = scratch("store-route");
    let opts = tiny_opts();
    let spec = opts.workloads[0];
    let job = SimJob::new(spec, BASELINE_ZEN, &opts);
    let key = job.cfg.key();

    // A different job shape is a different key — no false sharing.
    let mut other_shape = opts.clone();
    other_shape.instructions = 3_000;
    assert_ne!(key, SimJob::new(spec, BASELINE_ZEN, &other_shape).cfg.key());
    assert_ne!(
        key,
        SimJob::new(spec, Scenario::Rfm { th: 4 }, &opts).cfg.key()
    );

    // First life simulates and persists a cell record under the config key.
    let mut cache = ResultCache::new(&stored(&dir));
    let first = one(&mut cache, &job);
    assert_eq!(cache.simulations_run(), 1);
    let store = CellStore::open(&dir).unwrap();
    assert!(
        store.contains(key),
        "cell record persisted under the config key"
    );

    // Second life (a fresh cache on the same store) reloads instead of
    // re-running, and the reloaded result matches the original.
    let mut cache2 = ResultCache::new(&stored(&dir));
    let back = one(&mut cache2, &job);
    assert_eq!(cache2.simulations_run(), 0);
    assert_eq!(back.elapsed, first.elapsed);
    assert_eq!(back.per_core_ipc, first.per_core_ipc);
    assert_eq!(back.dram.acts.get(), first.dram.acts.get());

    // A persisted *failure* record is not a result: the job re-runs.
    let other = SimJob::new(spec, Scenario::Rfm { th: 4 }, &opts);
    let failed_key = other.cfg.key();
    store
        .put(failed_key, &CellRecord::failed(failed_key, "lane panicked"))
        .unwrap();
    let mut cache3 = ResultCache::new(&stored(&dir));
    let _ = one(&mut cache3, &other);
    assert_eq!(cache3.simulations_run(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opts_store_persists_and_reloads_like_with_store() {
    let dir = scratch("opts-store");
    let opts = RunOpts {
        store: Some(dir.clone()),
        ..tiny_opts()
    };
    let job = SimJob::new(opts.workloads[0], BASELINE_ZEN, &opts);

    let mut cache = ResultCache::new(&opts);
    let first = one(&mut cache, &job);
    assert_eq!(cache.simulations_run(), 1);
    assert!(CellStore::open(&dir).unwrap().contains(job.cfg.key()));

    let mut reloaded = ResultCache::new(&opts);
    assert_eq!(one(&mut reloaded, &job).elapsed, first.elapsed);
    assert_eq!(reloaded.simulations_run(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping one timing default or one controller field is another cell: a
/// store holding the unflipped cell answers nothing for it.
#[test]
fn a_flipped_default_is_a_different_cell_and_a_cache_miss() {
    let dir = scratch("store-flip");
    let opts = tiny_opts();
    let rfm8 = SimJob::new(opts.workloads[0], Scenario::Rfm { th: 8 }, &opts);
    one(&mut ResultCache::new(&stored(&dir)), &rfm8);

    let slow_rfm = rfm8.clone().variant("trfm-410ns", |cfg| {
        cfg.timings = cfg.timings.clone().with_override(TimingOverride {
            t_rfm: Some(Cycle::from_ns(410)),
            ..TimingOverride::default()
        });
    });
    let half_credit = rfm8.clone().variant("raa-credit-half", |cfg| {
        cfg.mc.raa_ref_credit = RaaRefCredit::Half
    });
    for flipped in [&slow_rfm, &half_credit] {
        assert_ne!(flipped.cfg.key(), rfm8.cfg.key(), "{}", flipped.label);
        let mut cache = ResultCache::new(&stored(&dir));
        one(&mut cache, flipped);
        assert_eq!(
            cache.simulations_run(),
            1,
            "{} hit a stale cell",
            flipped.label
        );
    }
    // The unflipped cell is still a hit.
    let mut cache = ResultCache::new(&stored(&dir));
    one(&mut cache, &rfm8);
    assert_eq!(cache.simulations_run(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Ablation variants that restate a scenario's own values are that
/// scenario's cell: one key, one simulation, whatever the labels.
#[test]
fn variants_equal_to_a_scenario_share_its_cell() {
    let opts = tiny_opts();
    let spec = opts.workloads[0];
    let zen4 = SimJob::new(spec, Scenario::AutoRfmZen { th: 4 }, &opts);
    let whole_bank = zen4.clone().variant("retry-whole-bank", |cfg| {
        cfg.mc.retry = RetryPolicy::WholeBank
    });
    let t_rfm_205 =
        SimJob::new(spec, Scenario::Rfm { th: 8 }, &opts).variant("trfm-205ns", |cfg| {
            cfg.timings = cfg.timings.clone().with_override(TimingOverride {
                t_rfm: Some(Cycle::from_ns(205)),
                ..TimingOverride::default()
            });
        });
    let rfm8 = SimJob::new(spec, Scenario::Rfm { th: 8 }, &opts);
    assert_eq!(whole_bank.cfg.key(), zen4.cfg.key());
    assert_eq!(t_rfm_205.cfg.key(), rfm8.cfg.key());

    let mut cache = ResultCache::default();
    cache.run(&[zen4, whole_bank, rfm8, t_rfm_205], opts.jobs);
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.simulations_run(), 2);
}

/// The key is `digest64(MODEL_FINGERPRINT ‖ digest of the config's canonical
/// rendering)`; a record filed under the same config salted with any other
/// fingerprint — what an older model wrote — is never served.
#[test]
fn a_record_under_another_fingerprint_reads_as_absent() {
    let dir = scratch("store-fingerprint");
    let opts = tiny_opts();
    let spec = opts.workloads[0];
    let job = SimJob::new(spec, BASELINE_ZEN, &opts);
    let salted = |fingerprint: u64, cfg: &SimConfig| {
        let mut w = Writer::new();
        w.put_u64(fingerprint);
        w.put_u64(digest64(format!("{cfg:?}").as_bytes()));
        digest64(w.bytes())
    };
    assert_eq!(salted(MODEL_FINGERPRINT, &job.cfg), job.cfg.key());

    // An "older model" stored a (wrong) result for this very config.
    let stale = SimJob::new(spec, Scenario::Rfm { th: 4 }, &opts);
    let mut w = Writer::new();
    one(&mut ResultCache::default(), &stale).encode(&mut w);
    let old_key = salted(MODEL_FINGERPRINT ^ 0x5a5a, &job.cfg);
    let store = CellStore::open(&dir).unwrap();
    store
        .put(old_key, &CellRecord::ok(old_key, w.into_bytes()))
        .unwrap();

    let mut cache = ResultCache::new(&stored(&dir));
    let fresh = one(&mut cache, &job);
    assert_eq!(
        cache.simulations_run(),
        1,
        "the old model's record was served"
    );
    let standalone = one(&mut ResultCache::default(), &job);
    assert_eq!(format!("{fresh:?}"), format!("{standalone:?}"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--store` that cannot be opened — here a regular file — fails the
/// cache's construction, naming the path, instead of running memory-only.
#[test]
fn a_store_path_that_is_a_regular_file_fails() {
    let file = scratch("store-is-a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let panic = std::panic::catch_unwind(|| ResultCache::new(&stored(&file)))
        .err()
        .expect("opening a file as a store must fail");
    let message = panic.downcast_ref::<String>().expect("a formatted message");
    assert!(
        message.starts_with(&format!("cannot open store {}: ", file.display())),
        "{message}"
    );
    let _ = std::fs::remove_file(&file);
}

//! The parallel-harness guarantees: [`ResultCache::run`] is bitwise
//! deterministic across worker counts, and a [`ResultCache`] simulates each
//! distinct key exactly once however often its jobs repeat it.

use autorfm::experiments::Scenario;
use autorfm::snapshot::store::CellStore;
use autorfm_bench::{ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;
use std::sync::Arc;

fn quick_opts(jobs: usize) -> RunOpts {
    RunOpts {
        cores: 2,
        instructions: 2_500,
        workloads: ["mcf", "bwaves", "triad"]
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect(),
        jobs,
        ..RunOpts::default()
    }
}

fn matrix(opts: &RunOpts) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for &spec in &opts.workloads {
        for scenario in [BASELINE_ZEN, Scenario::AutoRfm { th: 4 }] {
            jobs.push(SimJob::new(spec, scenario, opts));
        }
    }
    jobs
}

/// 3 workloads x 2 scenarios: `--jobs 4` returns results equal to `--jobs 1`
/// (elapsed, acts, alerts, IPC) and in the same (input) order.
#[test]
fn run_matrix_parallel_matches_serial() {
    let serial_opts = quick_opts(1);
    let parallel_opts = quick_opts(4);
    let jobs = matrix(&serial_opts);

    let serial = ResultCache::new(&serial_opts).run(&jobs, serial_opts.jobs);
    let parallel = ResultCache::new(&parallel_opts).run(&jobs, parallel_opts.jobs);

    assert_eq!(serial.len(), jobs.len());
    assert_eq!(parallel.len(), jobs.len());
    for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
        let name = job.cfg.workload.name;
        assert_eq!(s.workload, name, "serial results out of input order");
        assert_eq!(p.workload, name, "parallel results out of input order");
        assert_eq!(s.elapsed, p.elapsed, "elapsed differs for {}", job.label);
        assert_eq!(
            s.dram.acts.get(),
            p.dram.acts.get(),
            "acts differ for {}",
            job.label
        );
        assert_eq!(
            s.dram.alerts.get(),
            p.dram.alerts.get(),
            "alerts differ for {}",
            job.label
        );
        assert_eq!(
            s.per_core_ipc, p.per_core_ipc,
            "IPC differs for {}",
            job.label
        );
    }
}

/// One run requesting every key many times over: each distinct
/// configuration is simulated exactly once.
#[test]
fn shared_cache_simulates_each_key_exactly_once() {
    let opts = quick_opts(8);
    let unique = matrix(&opts);
    // Request every key 6 times, interleaved, in one call on 8 workers.
    let mut duplicated = Vec::new();
    for _ in 0..6 {
        duplicated.extend_from_slice(&unique);
    }

    let mut cache = ResultCache::new(&opts);
    let results = cache.run(&duplicated, opts.jobs);

    assert_eq!(cache.len(), unique.len(), "cache holds one entry per key");
    assert_eq!(
        cache.simulations_run(),
        unique.len(),
        "a baseline or scenario was simulated more than once"
    );

    // And the cached results are the exact objects later runs observe.
    let again = cache.run(&unique, opts.jobs);
    for ((result, job), first) in again.iter().zip(&unique).zip(&results) {
        assert_eq!(result.workload, job.cfg.workload.name);
        assert!(Arc::ptr_eq(result, first), "{} was rebuilt", job.label);
    }
    assert_eq!(cache.simulations_run(), unique.len());
}

/// A bad cell in a run fails alone: its batchmates still produce results,
/// and the run — and any later run asking for it — panics with the cell's
/// label and error text instead of re-running it. With a store, the error
/// is also persisted as the cell's failed-cell record.
#[test]
fn batched_prefetch_surfaces_bad_cells_as_failure_records() {
    let dir = std::env::temp_dir().join(format!("autorfm-bad-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOpts {
        store: Some(dir.clone()),
        ..quick_opts(1)
    };
    let spec = opts.workloads[0];
    // AutoRFM with window 0 is rejected by every tracker; its cell must not
    // poison the two valid cells batched alongside it.
    let job = |scenario| SimJob::new(spec, scenario, &opts);
    let bad = job(Scenario::AutoRfm { th: 0 });
    let jobs: Vec<SimJob> = vec![
        job(BASELINE_ZEN),
        bad.clone(),
        job(Scenario::AutoRfm { th: 4 }),
    ];

    let mut cache = ResultCache::new(&opts);
    let ask = |cache: &mut ResultCache, jobs: &[SimJob]| {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.run(jobs, opts.jobs);
        }))
        .expect_err("a run holding the failed cell must panic");
        panic
            .downcast_ref::<String>()
            .expect("panic carries a formatted message")
            .clone()
    };
    let first = ask(&mut cache, &jobs);

    let record = CellStore::open(&dir).unwrap().get(bad.cfg.key());
    let error = record
        .expect("the failed cell has a store record")
        .outcome
        .expect_err("the record is a failure");
    assert!(!error.is_empty());
    assert_eq!(first, format!("{}/AutoRFM-0 failed: {error}", spec.name));

    // Both healthy cells are cached and never re-simulated by later runs.
    let healthy = cache.run(&[jobs[0].clone(), jobs[2].clone()], opts.jobs);
    assert_eq!(healthy[0].workload, spec.name);
    assert_eq!(healthy[1].workload, spec.name);
    assert_eq!(cache.simulations_run(), 2);

    // The bad cell fails loudly, with its recorded error, and only once.
    assert_eq!(ask(&mut cache, std::slice::from_ref(&bad)), first);
    assert_eq!(cache.simulations_run(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

//! The ISSUE-1 parallel-harness guarantees: `run_matrix` is bitwise
//! deterministic across worker counts, and the shared [`ResultCache`]
//! simulates each distinct key exactly once under concurrent access.

use autorfm::experiments::Scenario;
use autorfm_bench::{run_matrix, ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

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
    for spec in &opts.workloads {
        for scenario in [BASELINE_ZEN, Scenario::AutoRfm { th: 4 }] {
            jobs.push((*spec, scenario));
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

    let serial = run_matrix(&jobs, &serial_opts);
    let parallel = run_matrix(&jobs, &parallel_opts);

    assert_eq!(serial.len(), jobs.len());
    assert_eq!(parallel.len(), jobs.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (spec, scenario) = jobs[i];
        assert_eq!(s.workload, spec.name, "serial results out of input order");
        assert_eq!(p.workload, spec.name, "parallel results out of input order");
        assert_eq!(
            s.elapsed, p.elapsed,
            "elapsed differs for {} / {scenario}",
            spec.name
        );
        assert_eq!(
            s.dram.acts.get(),
            p.dram.acts.get(),
            "acts differ for {} / {scenario}",
            spec.name
        );
        assert_eq!(
            s.dram.alerts.get(),
            p.dram.alerts.get(),
            "alerts differ for {} / {scenario}",
            spec.name
        );
        assert_eq!(
            s.per_core_ipc, p.per_core_ipc,
            "IPC differs for {} / {scenario}",
            spec.name
        );
    }
}

/// Many concurrent requests for overlapping keys: each distinct
/// `(workload, scenario)` is simulated exactly once.
#[test]
fn shared_cache_simulates_each_key_exactly_once() {
    let opts = quick_opts(8);
    let unique = matrix(&opts);
    // Request every key 6 times, interleaved, so several workers race on the
    // same OnceLock slots.
    let mut duplicated = Vec::new();
    for _ in 0..6 {
        duplicated.extend_from_slice(&unique);
    }

    let cache = ResultCache::new(&opts);
    cache.prefetch(&duplicated, &opts);

    assert_eq!(cache.len(), unique.len(), "cache holds one entry per key");
    assert_eq!(
        cache.simulations_run(),
        unique.len(),
        "a baseline or scenario was simulated more than once"
    );

    // And the cached results are the exact objects later `get`s observe.
    for &(spec, scenario) in &unique {
        let again = cache.get(spec, scenario, &opts);
        assert_eq!(again.workload, spec.name);
    }
    assert_eq!(cache.simulations_run(), unique.len());
}

/// A bad cell in a prefetch becomes a structured failure record — cell key
/// plus error text — while its batchmates still produce results, and a
/// later `get` of it panics with that text instead of re-running it.
#[test]
fn batched_prefetch_surfaces_bad_cells_as_failure_records() {
    let opts = quick_opts(1);
    let spec = opts.workloads[0];
    // AutoRFM with window 0 is rejected by every tracker; its cell must not
    // poison the two valid cells batched alongside it.
    let bad = Scenario::AutoRfm { th: 0 };
    let jobs: Vec<SimJob> = vec![
        (spec, BASELINE_ZEN),
        (spec, bad),
        (spec, Scenario::AutoRfm { th: 4 }),
    ];

    let cache = ResultCache::default();
    cache.prefetch(&jobs, &opts);

    let failures = cache.failures();
    assert_eq!(
        failures.len(),
        1,
        "exactly the bad cell failed: {failures:?}"
    );
    assert_eq!(failures[0].workload, spec.name);
    assert_eq!(failures[0].scenario, bad.to_string());
    assert!(!failures[0].error.is_empty());

    // Both healthy cells are cached and never re-simulated by later gets.
    let a = cache.get(spec, BASELINE_ZEN, &opts);
    let b = cache.get(spec, Scenario::AutoRfm { th: 4 }, &opts);
    assert_eq!(a.workload, spec.name);
    assert_eq!(b.workload, spec.name);
    assert_eq!(cache.simulations_run(), 2);

    // The bad cell fails loudly, with its recorded error, and only once.
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get(spec, bad, &opts);
    }))
    .expect_err("a get of the failed cell must panic");
    let message = panic
        .downcast_ref::<String>()
        .expect("panic carries a formatted message");
    assert!(
        message.contains(&failures[0].error),
        "panic {message:?} lacks the config error {:?}",
        failures[0].error
    );
    assert_eq!(cache.failures().len(), 1);
}

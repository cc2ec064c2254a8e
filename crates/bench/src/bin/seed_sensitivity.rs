//! Seed-sensitivity study: how stable are the headline slowdowns across RNG
//! seeds? Reports mean ± population standard deviation over several seeds for
//! RFM-4 and AutoRFM-4, plus the DoS-relevant worst-case read latency.
//!
//! Every `(workload, seed, scenario)` point is a cell ([`SimJob::variant`]
//! with the seed tweaked). The worst read latency is not in `SimResult`, so
//! the AutoRFM-4 cells run with telemetry and read it from their metric
//! registry — and, like every telemetry cell, are never stored.

use autorfm::experiments::Scenario;
use autorfm::telemetry::Json;
use autorfm::{SimResult, TelemetryConfig};
use autorfm_bench::{banner, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

const SEEDS: &[u64] = &[42, 1337, 2024, 7, 99];
/// Per `(workload, seed)`: the same-seed baseline, then the two scenarios.
const RUNS: [Scenario; 3] = [
    BASELINE_ZEN,
    Scenario::Rfm { th: 4 },
    Scenario::AutoRfm { th: 4 },
];
/// The scenario whose worst read latency the table reports.
const LATENCY_PROBE: Scenario = Scenario::AutoRfm { th: 4 };

/// The cell for `scenario` on `spec` under `seed`.
fn cell(spec: &'static WorkloadSpec, scenario: Scenario, seed: u64, opts: &RunOpts) -> SimJob {
    SimJob::new(spec, scenario, opts).variant(&format!("seed-{seed}"), |cfg| {
        cfg.seed = seed;
        if scenario == LATENCY_PROBE {
            // Only the final registry is read: keep one epoch sample.
            cfg.telemetry.get_or_insert(TelemetryConfig {
                max_samples: Some(1),
                ..TelemetryConfig::default()
            });
        }
    })
}

/// The worst read latency (in ns) a latency-probe cell observed.
fn max_read_latency_ns(result: &SimResult) -> u64 {
    let cycles = result
        .metrics
        .as_ref()
        .and_then(|m| m.get("mc_max_read_latency_cycles", &[]))
        .expect("latency-probe cells record controller counters")
        .scalar() as u64;
    cycles / 4
}

/// Mean and population std-dev, accumulated in seed order.
fn mean_std(slowdowns: &[f64]) -> (f64, f64) {
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    let var = slowdowns.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / slowdowns.len() as f64;
    (mean, var.sqrt())
}

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.workloads.len() > 6 {
        // Five seeds x two scenarios x baseline: keep the default set small.
        opts.workloads.truncate(6);
    }
    banner("Seed sensitivity (5 seeds): mean ± std of slowdown", &opts);
    let mut harness = Harness::new(&opts);
    harness.set_config(
        "seeds",
        Json::Arr(SEEDS.iter().map(|&s| Json::Num(s as f64)).collect()),
    );

    // Workload-major, then seed, then `RUNS`: each baseline once.
    let grid: Vec<SimJob> = opts
        .workloads
        .iter()
        .flat_map(|&spec| {
            SEEDS
                .iter()
                .flat_map(move |&seed| RUNS.iter().map(move |&scenario| (spec, scenario, seed)))
        })
        .map(|(spec, scenario, seed)| cell(spec, scenario, seed, &opts))
        .collect();
    let cache = ResultCache::new(&opts);
    cache.prefetch(&grid, &opts);
    let results: Vec<_> = grid.iter().map(|job| cache.get(job)).collect();

    let mut rows = Vec::new();
    for (per_workload, spec) in results
        .chunks(SEEDS.len() * RUNS.len())
        .zip(&opts.workloads)
    {
        // Per-seed slowdown of the scenario at `RUNS[k]` vs the same-seed
        // baseline.
        let slowdowns = |k: usize| -> Vec<f64> {
            per_workload
                .chunks(RUNS.len())
                .map(|seed_runs| seed_runs[k].slowdown_vs(&seed_runs[0]))
                .collect()
        };
        let (rfm_m, rfm_s) = mean_std(&slowdowns(1));
        let (auto_m, auto_s) = mean_std(&slowdowns(2));
        let worst = per_workload
            .chunks(RUNS.len())
            .map(|seed_runs| max_read_latency_ns(&seed_runs[2]))
            .fold(0u64, u64::max);
        for (scenario, mean, std) in [("RFM-4", rfm_m, rfm_s), ("AutoRFM-4", auto_m, auto_s)] {
            let labels = [("workload", spec.name), ("scenario", scenario)];
            harness.gauge("slowdown_mean", &labels, mean);
            harness.gauge("slowdown_std", &labels, std);
        }
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.1}% ± {:.1}", rfm_m * 100.0, rfm_s * 100.0),
            format!("{:.1}% ± {:.1}", auto_m * 100.0, auto_s * 100.0),
            format!("{worst} ns"),
        ]);
    }
    print_table(
        &["workload", "RFM-4", "AutoRFM-4", "worst read latency"],
        &rows,
    );
    println!("\nThe worst-case latency bounds the DoS exposure: an ALERTed ACT adds at");
    println!("most ~200 ns, so the tail should stay within a few retry windows.");
    harness.record_cache(&cache);
    harness.finish();
}

//! Seed-sensitivity study: how stable are the headline slowdowns across RNG
//! seeds? Reports mean ± population standard deviation over several seeds for
//! RFM-4 and AutoRFM-4, plus the DoS-relevant worst-case read latency.
//!
//! Every `(workload, seed, scenario)` point is a cell ([`SimJob::variant`]
//! with the seed tweaked). The worst read latency is not in `SimResult`, so
//! the AutoRFM-4 cells run with telemetry and read it from their metric
//! registry — and, like every telemetry cell, are never stored.

use super::Ctx;
use crate::{render_table, RunOpts, SimJob, BASELINE_ZEN};
use autorfm::experiments::Scenario;
use autorfm::result::mean_slowdown;
use autorfm::{SimResult, TelemetryConfig};
use autorfm_workloads::WorkloadSpec;
use std::sync::Arc;

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

/// Mean and population std-dev of the slowdown of `RUNS[k]` against the
/// same-seed baseline, over one workload's cells, accumulated in seed order.
fn mean_std(per_workload: &[Arc<SimResult>], k: usize) -> (f64, f64) {
    let pairs = || {
        per_workload
            .chunks(RUNS.len())
            .map(move |seed_runs| (&*seed_runs[0], &*seed_runs[k]))
    };
    let mean = mean_slowdown(pairs());
    let var = pairs()
        .map(|(base, treated)| (treated.slowdown_vs(base) - mean).powi(2))
        .sum::<f64>()
        / SEEDS.len() as f64;
    (mean, var.sqrt())
}

pub fn run(ctx: &mut Ctx) {
    // Five seeds x two scenarios x baseline: keep the default set small.
    ctx.opts.workloads.truncate(6);
    let opts = ctx.opts.clone();
    ctx.banner("Seed sensitivity (5 seeds): mean ± std of slowdown");

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
    let results = ctx.run(&grid);

    let mut rows = Vec::new();
    for (per_workload, spec) in results
        .chunks(SEEDS.len() * RUNS.len())
        .zip(&opts.workloads)
    {
        let (rfm_m, rfm_s) = mean_std(per_workload, 1);
        let (auto_m, auto_s) = mean_std(per_workload, 2);
        let worst = per_workload
            .chunks(RUNS.len())
            .map(|seed_runs| max_read_latency_ns(&seed_runs[2]))
            .fold(0u64, u64::max);
        for (scenario, mean, std) in [("RFM-4", rfm_m, rfm_s), ("AutoRFM-4", auto_m, auto_s)] {
            let labels = [("workload", spec.name), ("scenario", scenario)];
            ctx.gauge("slowdown_mean", &labels, mean);
            ctx.gauge("slowdown_std", &labels, std);
        }
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.1}% ± {:.1}", rfm_m * 100.0, rfm_s * 100.0),
            format!("{:.1}% ± {:.1}", auto_m * 100.0, auto_s * 100.0),
            format!("{worst} ns"),
        ]);
    }
    ctx.print(render_table(
        &["workload", "RFM-4", "AutoRFM-4", "worst read latency"],
        &rows,
    ));
    ctx.println("\nThe worst-case latency bounds the DoS exposure: an ALERTed ACT adds at");
    ctx.println("most ~200 ns, so the tail should stay within a few retry windows.");
}

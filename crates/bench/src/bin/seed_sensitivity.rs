//! Seed-sensitivity study: how stable are the headline slowdowns across RNG
//! seeds? Reports mean ± population standard deviation over several seeds for
//! RFM-4 and AutoRFM-4, plus the DoS-relevant worst-case read latency.

use autorfm::experiments::Scenario;
use autorfm::telemetry::Json;
use autorfm::{SimConfig, SimResult, System};
use autorfm_bench::{banner, par_map, print_table, Harness, RunOpts, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

const SEEDS: &[u64] = &[42, 1337, 2024, 7, 99];
/// Per `(workload, seed)`: the same-seed baseline, then the two scenarios.
const RUNS: [Scenario; 3] = [
    BASELINE_ZEN,
    Scenario::Rfm { th: 4 },
    Scenario::AutoRfm { th: 4 },
];

/// Simulates `scenario` on `spec` under `seed`. Returns the result and the
/// run's worst read latency (in ns).
fn run(
    spec: &'static WorkloadSpec,
    scenario: Scenario,
    seed: u64,
    opts: &RunOpts,
) -> (SimResult, u64) {
    let cfg = SimConfig::builder(spec)
        .scenario(scenario)
        .cores(opts.cores)
        .instructions(opts.instructions)
        .seed(seed)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg).expect("valid config");
    let r = sys.run();
    (r, sys.mc().stats().max_read_latency.get() / 4)
}

/// Mean, population std-dev, and worst latency over the per-seed cells,
/// accumulated in seed order (identical to the serial loop).
fn stats(cells: &[(f64, u64)]) -> (f64, f64, u64) {
    let mean = cells.iter().map(|c| c.0).sum::<f64>() / cells.len() as f64;
    let var = cells.iter().map(|c| (c.0 - mean).powi(2)).sum::<f64>() / cells.len() as f64;
    let worst = cells.iter().fold(0u64, |w, c| w.max(c.1));
    (mean, var.sqrt(), worst)
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

    // Every (workload, seed, scenario) run is independent, so fan the whole
    // grid out at once — each baseline once — and re-assemble the
    // per-workload statistics afterwards.
    let grid: Vec<(&'static WorkloadSpec, u64, Scenario)> = opts
        .workloads
        .iter()
        .flat_map(|&spec| {
            SEEDS
                .iter()
                .flat_map(move |&seed| RUNS.iter().map(move |&sc| (spec, seed, sc)))
        })
        .collect();
    let results = par_map(&grid, opts.jobs, |&(spec, seed, scenario)| {
        run(spec, scenario, seed, &opts)
    });

    let mut rows = Vec::new();
    for (per_workload, spec) in results
        .chunks(SEEDS.len() * RUNS.len())
        .zip(&opts.workloads)
    {
        // Per-seed (slowdown vs. the same-seed baseline, worst latency) of
        // the scenario at `RUNS[k]`.
        let cells = |k: usize| -> Vec<(f64, u64)> {
            per_workload
                .chunks(RUNS.len())
                .map(|seed_runs| (seed_runs[k].0.slowdown_vs(&seed_runs[0].0), seed_runs[k].1))
                .collect()
        };
        let (rfm_m, rfm_s, _) = stats(&cells(1));
        let (auto_m, auto_s, worst) = stats(&cells(2));
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
    harness.finish();
}

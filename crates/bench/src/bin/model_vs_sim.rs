//! Analytical model vs cycle-level simulation (extension study).
//!
//! Compares the first-order closed forms in `autorfm_analysis::perf_model`
//! against the simulator: the AutoRFM ALERT probability (footnote 2) and the
//! RFM slowdown, both as functions of the measured per-bank activation rate.

use autorfm::analysis::{AutoRfmConflictModel, RfmPerfModel};
use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Model vs simulation: ALERT probability and RFM slowdown",
        &opts,
    );

    let cache = ResultCache::new(&opts);
    let matrix: Vec<SimJob> = opts
        .workloads
        .iter()
        .flat_map(|&spec| {
            [
                (spec, BASELINE_ZEN),
                (spec, Scenario::AutoRfm { th: 4 }),
                (spec, Scenario::Rfm { th: 4 }),
            ]
        })
        .collect();
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    for spec in &opts.workloads {
        let base = cache.get(spec, BASELINE_ZEN, &opts);
        // Per-bank activation rate measured on the baseline, in ACTs/ns.
        let acts_per_ns = base.act_per_trefi_per_bank / 3900.0;

        let auto = cache.get(spec, Scenario::AutoRfm { th: 4 }, &opts);
        let alert_model = AutoRfmConflictModel::paper_defaults(4).alert_probability(acts_per_ns);

        let rfm = cache.get(spec, Scenario::Rfm { th: 4 }, &opts);
        let rfm_model = RfmPerfModel::paper_defaults(4).slowdown_estimate(acts_per_ns);

        rows.push(vec![
            spec.name.to_string(),
            format!("{:.2}", base.act_per_trefi_per_bank),
            format!("{:.3}%", auto.alerts_per_act * 100.0),
            format!("{:.3}%", alert_model * 100.0),
            pct(rfm.slowdown_vs(&base)),
            pct(rfm_model),
        ]);
    }
    print_table(
        &[
            "workload",
            "ACT/tREFI/bk",
            "alert sim",
            "alert model",
            "RFM-4 sim",
            "RFM-4 model",
        ],
        &rows,
    );
    println!("\nThe models capture the first-order trends (both grow with the per-bank");
    println!("rate); queueing and burstiness effects account for the residuals.");

    harness.record_cache(&cache);
    harness.finish();
}

//! Figure 17 (Appendix C): impact of RFM on Zen vs Rubix mapping systems,
//! each normalized to its own no-RFM baseline.
//!
//! Paper: RFM incurs *higher* overheads on Rubix (35.1% vs 33.1% for RFM-4)
//! because Rubix increases the mean activations per bank.

use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_RUBIX, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Figure 17: RFM on Zen vs Rubix (own-baseline normalization)",
        &opts,
    );

    let ths = [4u32, 8, 16, 32];
    let cache = ResultCache::new(&opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for spec in &opts.workloads {
        matrix.push((spec, BASELINE_ZEN));
        matrix.push((spec, BASELINE_RUBIX));
        for &th in &ths {
            matrix.push((spec, Scenario::Rfm { th }));
            matrix.push((spec, Scenario::RfmOnRubix { th }));
        }
    }
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    for th in ths {
        let (mut s_zen, mut s_rbx) = (0.0f64, 0.0f64);
        for spec in &opts.workloads {
            let base_zen = cache.get(spec, BASELINE_ZEN, &opts);
            let base_rbx = cache.get(spec, BASELINE_RUBIX, &opts);
            s_zen += cache
                .get(spec, Scenario::Rfm { th }, &opts)
                .slowdown_vs(&base_zen);
            s_rbx += cache
                .get(spec, Scenario::RfmOnRubix { th }, &opts)
                .slowdown_vs(&base_rbx);
        }
        let n = opts.workloads.len() as f64;
        rows.push(vec![format!("RFM-{th}"), pct(s_zen / n), pct(s_rbx / n)]);
    }
    print_table(&["config", "slowdown on Zen", "slowdown on Rubix"], &rows);
    println!("\npaper: 33.1% vs 35.1% for RFM-4 — Rubix spreads ACTs over more rows but");
    println!("issues more ACTs per bank, so bank-counted RFM fires more often.");

    harness.record_cache(&cache);
    harness.finish();
}

//! Figure 17 (Appendix C): impact of RFM on Zen vs Rubix mapping systems,
//! each normalized to its own no-RFM baseline.
//!
//! Paper: RFM incurs *higher* overheads on Rubix (35.1% vs 33.1% for RFM-4)
//! because Rubix increases the mean activations per bank.

use super::{mean_column_slowdown, Ctx};
use crate::{pct, render_table, BASELINE_RUBIX, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 17: RFM on Zen vs Rubix (own-baseline normalization)");

    let ths = [4u32, 8, 16, 32];
    // Per workload: both baselines, then RFM on Zen and on Rubix per
    // threshold.
    let mut scenarios = vec![BASELINE_ZEN, BASELINE_RUBIX];
    for th in ths {
        scenarios.extend([Scenario::Rfm { th }, Scenario::RfmOnRubix { th }]);
    }
    let results = ctx.sweep(&scenarios);
    let rows: Vec<Vec<String>> = ths
        .iter()
        .enumerate()
        .map(|(i, th)| {
            vec![
                format!("RFM-{th}"),
                pct(mean_column_slowdown(&results, 0, 2 + 2 * i)),
                pct(mean_column_slowdown(&results, 1, 3 + 2 * i)),
            ]
        })
        .collect();
    ctx.print(render_table(
        &["config", "slowdown on Zen", "slowdown on Rubix"],
        &rows,
    ));
    ctx.println("\npaper: 33.1% vs 35.1% for RFM-4 — Rubix spreads ACTs over more rows but");
    ctx.println("issues more ACTs per bank, so bank-counted RFM fires more often.");
}

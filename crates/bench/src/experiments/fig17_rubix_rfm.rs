//! Figure 17 (Appendix C): impact of RFM on Zen vs Rubix mapping systems,
//! each normalized to its own no-RFM baseline.
//!
//! Paper: RFM incurs *higher* overheads on Rubix (35.1% vs 33.1% for RFM-4)
//! because Rubix increases the mean activations per bank.

use super::Ctx;
use crate::{pct, render_table, SimJob, BASELINE_RUBIX, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.banner("Figure 17: RFM on Zen vs Rubix (own-baseline normalization)");

    let ths = [4u32, 8, 16, 32];
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for &spec in &opts.workloads {
        matrix.push(job(spec, BASELINE_ZEN));
        matrix.push(job(spec, BASELINE_RUBIX));
        for &th in &ths {
            matrix.push(job(spec, Scenario::Rfm { th }));
            matrix.push(job(spec, Scenario::RfmOnRubix { th }));
        }
    }
    ctx.prefetch(&matrix);
    let mut rows = Vec::new();
    for th in ths {
        let (mut s_zen, mut s_rbx) = (0.0f64, 0.0f64);
        for &spec in &opts.workloads {
            let base_zen = ctx.get(&job(spec, BASELINE_ZEN));
            let base_rbx = ctx.get(&job(spec, BASELINE_RUBIX));
            s_zen += ctx
                .get(&job(spec, Scenario::Rfm { th }))
                .slowdown_vs(&base_zen);
            s_rbx += ctx
                .get(&job(spec, Scenario::RfmOnRubix { th }))
                .slowdown_vs(&base_rbx);
        }
        let n = opts.workloads.len() as f64;
        rows.push(vec![format!("RFM-{th}"), pct(s_zen / n), pct(s_rbx / n)]);
    }
    ctx.print(render_table(
        &["config", "slowdown on Zen", "slowdown on Rubix"],
        &rows,
    ));
    ctx.println("\npaper: 33.1% vs 35.1% for RFM-4 — Rubix spreads ACTs over more rows but");
    ctx.println("issues more ACTs per bank, so bank-counted RFM fires more often.");
}

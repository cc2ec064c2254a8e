//! Analytical model vs cycle-level simulation (extension study).
//!
//! Compares the first-order closed forms in `autorfm_analysis::perf_model`
//! against the simulator: the AutoRFM ALERT probability (footnote 2) and the
//! RFM slowdown, both as functions of the measured per-bank activation rate.

use super::Ctx;
use crate::{pct, render_table, BASELINE_ZEN};
use autorfm::analysis::{AutoRfmConflictModel, RfmPerfModel};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Model vs simulation: ALERT probability and RFM slowdown");

    let results = ctx.sweep(&[
        BASELINE_ZEN,
        Scenario::AutoRfm { th: 4 },
        Scenario::Rfm { th: 4 },
    ]);
    let mut rows = Vec::new();
    for (spec, r) in results {
        let (base, auto, rfm) = (&r[0], &r[1], &r[2]);
        // Per-bank activation rate measured on the baseline, in ACTs/ns.
        let acts_per_ns = base.act_per_trefi_per_bank / 3900.0;
        let alert_model = AutoRfmConflictModel::paper_defaults(4).alert_probability(acts_per_ns);
        let rfm_model = RfmPerfModel::paper_defaults(4).slowdown_estimate(acts_per_ns);

        rows.push(vec![
            spec.name.to_string(),
            format!("{:.2}", base.act_per_trefi_per_bank),
            format!("{:.3}%", auto.alerts_per_act * 100.0),
            format!("{:.3}%", alert_model * 100.0),
            pct(rfm.slowdown_vs(base)),
            pct(rfm_model),
        ]);
    }
    ctx.print(render_table(
        &[
            "workload",
            "ACT/tREFI/bk",
            "alert sim",
            "alert model",
            "RFM-4 sim",
            "RFM-4 model",
        ],
        &rows,
    ));
    ctx.println("\nThe models capture the first-order trends (both grow with the per-bank");
    ctx.println("rate); queueing and burstiness effects account for the residuals.");
}

//! Figure 12: DRAM power for baseline, Rubix, AutoRFM-8, AutoRFM-4.
//!
//! Paper: Rubix adds ~36 mW of activation power; AutoRFM-8/-4 add 28/55 mW of
//! mitigation power (65–92 mW total over baseline).

use super::Ctx;
use crate::{render_table, BASELINE_RUBIX, BASELINE_ZEN};
use autorfm::experiments::Scenario;
use autorfm::power::PowerModel;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 12: DRAM power breakdown");

    let names = ["baseline", "rubix", "AutoRFM-8", "AutoRFM-4"];
    let results = ctx.sweep(&[
        BASELINE_ZEN,
        BASELINE_RUBIX,
        Scenario::AutoRfm { th: 8 },
        Scenario::AutoRfm { th: 4 },
    ]);
    let model = PowerModel::ddr5();
    let mut rows = Vec::new();
    let mut base_total = None;

    for (i, name) in names.into_iter().enumerate() {
        // Average the breakdown across workloads.
        let mut acc = autorfm::power::PowerBreakdown::default();
        for (_, r) in &results {
            let r = &r[i];
            let p = model.breakdown(&r.power_counts, r.elapsed.as_secs_f64());
            acc.act_rw_mw += p.act_rw_mw;
            acc.background_mw += p.background_mw;
            acc.refresh_mw += p.refresh_mw;
            acc.mitigation_mw += p.mitigation_mw;
        }
        let n = results.len() as f64;
        let p = autorfm::power::PowerBreakdown {
            act_rw_mw: acc.act_rw_mw / n,
            background_mw: acc.background_mw / n,
            refresh_mw: acc.refresh_mw / n,
            mitigation_mw: acc.mitigation_mw / n,
        };
        let total = p.total_mw();
        let delta = base_total.map_or(0.0, |b: f64| total - b);
        if base_total.is_none() {
            base_total = Some(total);
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", p.act_rw_mw),
            format!("{:.0}", p.background_mw),
            format!("{:.0}", p.refresh_mw),
            format!("{:.0}", p.mitigation_mw),
            format!("{total:.0}"),
            format!("{delta:+.0}"),
        ]);
    }
    ctx.print(render_table(
        &[
            "config",
            "ACT+RD/WR",
            "other",
            "refresh",
            "mitig",
            "total mW",
            "vs base",
        ],
        &rows,
    ));
    ctx.println("\npaper deltas: rubix +36 mW, AutoRFM-8 +65 mW, AutoRFM-4 +92 mW");
}

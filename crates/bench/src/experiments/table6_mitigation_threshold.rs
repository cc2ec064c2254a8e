//! Table VI: slowdown and tolerated TRH-D for Recursive vs Fractal Mitigation
//! as AutoRFMTH varies.
//!
//! Paper: TH=4 → 3.1% slowdown, TRH-D 96 (recursive) / 74 (fractal);
//! TH=8 → 2.3%, 182 / 161.

use super::{mean_column_slowdown, Ctx};
use crate::{pct, render_table, BASELINE_ZEN};
use autorfm::analysis::MintModel;
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Table VI: Recursive vs Fractal Mitigation");

    let ths = [4u32, 5, 6, 8];
    let paper = [
        (3.1, 96, 74),
        (2.8, 117, 96),
        (2.7, 139, 117),
        (2.3, 182, 161),
    ];
    // Per workload: the baseline, then fractal and recursive per threshold.
    let mut scenarios = vec![BASELINE_ZEN];
    for th in ths {
        scenarios.extend([Scenario::AutoRfm { th }, Scenario::AutoRfmRecursive { th }]);
    }
    let results = ctx.sweep(&scenarios);
    let mut rows = Vec::new();

    for (i, th) in ths.iter().enumerate() {
        // Slowdown: fractal AutoRFM (the paper's headline column), averaged
        // across workloads.
        let s_fm = mean_column_slowdown(&results, 0, 1 + 2 * i);
        let s_rm = mean_column_slowdown(&results, 0, 2 + 2 * i);
        let rm_trhd = MintModel::auto_rfm(*th, true).tolerated_trh_d();
        let fm_trhd = MintModel::auto_rfm(*th, false).tolerated_trh_d();
        let (p_slow, p_rm, p_fm) = paper[i];
        rows.push(vec![
            format!("{th}"),
            pct(s_fm),
            pct(s_rm),
            format!("{p_slow}%"),
            format!("{rm_trhd:.0}"),
            format!("{p_rm}"),
            format!("{fm_trhd:.0}"),
            format!("{p_fm}"),
        ]);
    }
    ctx.print(render_table(
        &[
            "AutoRFMTH",
            "slowdown(FM)",
            "slowdown(RM)",
            "paper slow",
            "RM TRH-D",
            "(paper)",
            "FM TRH-D",
            "(paper)",
        ],
        &rows,
    ));
}

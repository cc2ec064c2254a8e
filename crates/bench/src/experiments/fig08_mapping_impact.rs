//! Figure 8: impact of the memory mapping on AutoRFM-4.
//!
//! (a) slowdown and (b) ALERT-per-ACT under the baseline AMD-Zen mapping vs
//! the Rubix randomized mapping. Paper averages: Zen 16.5% / 3.7%,
//! Rubix 3.1% / 0.22%.

use super::{mean_column_slowdown, Ctx};
use crate::{pct, render_table, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 8: AutoRFM-4 under Zen vs Rubix mapping");

    let results = ctx.sweep(&[
        BASELINE_ZEN,
        Scenario::AutoRfmZen { th: 4 },
        Scenario::AutoRfm { th: 4 },
    ]);
    let mut rows: Vec<Vec<String>> = results
        .iter()
        .map(|(spec, r)| {
            let (base, zen, rbx) = (&r[0], &r[1], &r[2]);
            vec![
                spec.name.to_string(),
                pct(zen.slowdown_vs(base)),
                pct(rbx.slowdown_vs(base)),
                format!("{:.2}%", zen.alerts_per_act * 100.0),
                format!("{:.2}%", rbx.alerts_per_act * 100.0),
            ]
        })
        .collect();
    let mean_alerts = |i: usize| {
        let sum: f64 = results.iter().map(|(_, r)| r[i].alerts_per_act).sum();
        sum / results.len() as f64
    };
    rows.push(vec![
        "AVERAGE".into(),
        pct(mean_column_slowdown(&results, 0, 1)),
        pct(mean_column_slowdown(&results, 0, 2)),
        format!("{:.2}%", mean_alerts(1) * 100.0),
        format!("{:.2}%", mean_alerts(2) * 100.0),
    ]);
    rows.push(vec![
        "paper avg".into(),
        "16.5%".into(),
        "3.1%".into(),
        "3.70%".into(),
        "0.22%".into(),
    ]);
    ctx.print(render_table(
        &[
            "workload",
            "slow(Zen)",
            "slow(Rubix)",
            "alert/ACT(Zen)",
            "alert/ACT(Rubix)",
        ],
        &rows,
    ));
}

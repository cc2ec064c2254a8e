//! Figure 3 / Figure 1(d): performance impact of conventional RFM.
//!
//! Regenerates the per-workload slowdown of RFM-4/8/16/32 relative to the
//! no-mitigation Zen baseline. Paper averages: 33%, 12.9%, 4.4%, 0.2%.

use super::{slowdown_table, Ctx};
use crate::{bar_chart, pct, render_table, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 3: slowdown of RFM-N vs no-mitigation baseline");

    let ths = [4u32, 8, 16, 32];
    let mut scenarios = vec![BASELINE_ZEN];
    scenarios.extend(ths.map(|th| Scenario::Rfm { th }));
    let (mut rows, means) = slowdown_table(&ctx.sweep(&scenarios));
    rows.push(vec![
        "paper avg".into(),
        "33.0%".into(),
        "12.9%".into(),
        "4.4%".into(),
        "0.2%".into(),
    ]);
    ctx.print(render_table(
        &["workload", "RFM-4", "RFM-8", "RFM-16", "RFM-32"],
        &rows,
    ));
    let chart: Vec<(String, f64)> = ths
        .iter()
        .zip(means)
        .map(|(th, m)| (format!("RFM-{th}"), m))
        .collect();
    ctx.print(bar_chart("average slowdown", &chart, pct));
}

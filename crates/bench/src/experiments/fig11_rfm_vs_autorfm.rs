//! Figure 11: RFM vs AutoRFM slowdown at thresholds 4 and 8.
//!
//! Paper averages: RFM-4 33%, RFM-8 12.9%, AutoRFM-4 3.1%, AutoRFM-8 2.3%.

use super::{slowdown_table, Ctx};
use crate::{bar_chart, pct, render_table, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 11: RFM vs AutoRFM");

    let names = ["RFM-4", "RFM-8", "AutoRFM-4", "AutoRFM-8"];
    let (mut rows, means) = slowdown_table(&ctx.sweep(&[
        BASELINE_ZEN,
        Scenario::Rfm { th: 4 },
        Scenario::Rfm { th: 8 },
        Scenario::AutoRfm { th: 4 },
        Scenario::AutoRfm { th: 8 },
    ]));
    rows.push(vec![
        "paper avg".into(),
        "33.0%".into(),
        "12.9%".into(),
        "3.1%".into(),
        "2.3%".into(),
    ]);

    let headers: Vec<&str> = std::iter::once("workload").chain(names).collect();
    ctx.print(render_table(&headers, &rows));

    let chart: Vec<(String, f64)> = names
        .iter()
        .zip(means)
        .map(|(name, m)| (name.to_string(), m))
        .collect();
    ctx.print(bar_chart("average slowdown", &chart, pct));
}

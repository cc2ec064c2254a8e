//! Figure 1: the paper's motivation figure.
//!
//! (a) the Rowhammer-threshold trend (Table II data), and (d) the slowdown of
//! RFM as thresholds shrink (computed from the Appendix-A model mapping
//! RFMTH → tolerated TRH-D plus simulated slowdowns). Figures 1(b) and 1(c)
//! are schematic diagrams with no data series.

use super::{mean_column_slowdown, Ctx};
use crate::{bar_chart, pct, BASELINE_ZEN};
use autorfm::analysis::{MintModel, TRH_HISTORY};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 1(a) + 1(d): threshold trend and RFM slowdown trend");

    ctx.println("(a) Rowhammer threshold over DRAM generations:");
    let trend: Vec<(String, f64)> = TRH_HISTORY
        .iter()
        .map(|e| {
            let v = e.trh_s.unwrap_or_else(|| e.trh_d.unwrap().0) as f64;
            (e.generation.to_string(), v)
        })
        .collect();
    ctx.print(bar_chart("TRH (activations, min reported)", &trend, |v| {
        format!("{v:.0}")
    }));

    ctx.println("\n(d) RFM slowdown as the tolerated threshold shrinks:");
    let ths = [32u32, 16, 8, 4];
    let mut scenarios = vec![BASELINE_ZEN];
    scenarios.extend(ths.map(|th| Scenario::Rfm { th }));
    let rows = ctx.sweep(&scenarios);
    let mut chart = Vec::new();
    for (i, th) in ths.into_iter().enumerate() {
        let trhd = MintModel::rfm(th, true).tolerated_trh_d();
        let s = mean_column_slowdown(&rows, 0, i + 1);
        chart.push((format!("TRH-D ~{trhd:.0} (RFM-{th})"), s));
    }
    ctx.print(bar_chart("average RFM slowdown", &chart, pct));
    ctx.println("\npaper: negligible at today's thresholds (~800), 33% at a threshold of 100.");
}

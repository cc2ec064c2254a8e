//! Figure 13: average slowdown of PRAC, RFM, and AutoRFM as the tolerated
//! Rowhammer threshold varies.
//!
//! Paper: PRAC ≥4% flat (longer timings); RFM explodes below TRH-D ~300;
//! AutoRFM stays at 2–3.1% down to TRH-D 74.

use super::{mean_column_slowdown, Ctx};
use crate::{pct, render_table, BASELINE_ZEN};
use autorfm::analysis::MintModel;
use autorfm::experiments::Scenario;

const RFM_THS: [u32; 4] = [4, 8, 16, 32];
const AUTO_RFM_THS: [u32; 5] = [4, 6, 8, 12, 16];
const PRAC_ABOS: [u32; 3] = [64, 128, 256];

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Figure 13: PRAC vs RFM vs AutoRFM across thresholds");

    // Per workload: the baseline, then every point below in table order.
    let mut scenarios = vec![BASELINE_ZEN];
    scenarios.extend(RFM_THS.map(|th| Scenario::Rfm { th }));
    scenarios.extend(AUTO_RFM_THS.map(|th| Scenario::AutoRfm { th }));
    scenarios.extend(PRAC_ABOS.map(|abo_th| Scenario::Prac { abo_th }));
    let results = ctx.sweep(&scenarios);
    let mut means = (1..scenarios.len()).map(|i| mean_column_slowdown(&results, 0, i));
    let mut rows = Vec::new();

    // RFM points: RFMTH -> (tolerated TRH-D from the recursive model, slowdown).
    for th in RFM_THS {
        let trhd = MintModel::rfm(th, true).tolerated_trh_d();
        let s = means.next().expect("one mean per point");
        rows.push(vec![
            "RFM".into(),
            format!("{th}"),
            format!("{trhd:.0}"),
            pct(s),
        ]);
    }
    // AutoRFM points (fractal model thresholds).
    for th in AUTO_RFM_THS {
        let trhd = MintModel::auto_rfm(th, false).tolerated_trh_d();
        let s = means.next().expect("one mean per point");
        rows.push(vec![
            "AutoRFM".into(),
            format!("{th}"),
            format!("{trhd:.0}"),
            pct(s),
        ]);
    }
    // PRAC: slowdown is dominated by the increased timings and is nearly flat
    // in the threshold; the ABO threshold tracks the tolerated TRH-D (MOAT).
    for abo in PRAC_ABOS {
        let s = means.next().expect("one mean per point");
        rows.push(vec![
            "PRAC".into(),
            format!("ABO{abo}"),
            format!("{abo}"),
            pct(s),
        ]);
    }
    ctx.print(render_table(
        &["mechanism", "TH", "tolerated TRH-D", "avg slowdown"],
        &rows,
    ));
    ctx.println("\npaper: PRAC ~4% flat; RFM 33%/12.9%/4.4%/0.2% at TRH-D 96/182/356/702;");
    ctx.println("       AutoRFM 3.1% at 74 falling to ~2% at 200-800.");
}

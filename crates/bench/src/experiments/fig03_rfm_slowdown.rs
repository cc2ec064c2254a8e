//! Figure 3 / Figure 1(d): performance impact of conventional RFM.
//!
//! Regenerates the per-workload slowdown of RFM-4/8/16/32 relative to the
//! no-mitigation Zen baseline. Paper averages: 33%, 12.9%, 4.4%, 0.2%.

use super::Ctx;
use crate::{bar_chart, pct, render_table, SimJob, BASELINE_ZEN};
use autorfm::experiments::Scenario;

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.banner("Figure 3: slowdown of RFM-N vs no-mitigation baseline");

    let ths = [4u32, 8, 16, 32];
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for &spec in &opts.workloads {
        matrix.push(job(spec, BASELINE_ZEN));
        matrix.extend(ths.iter().map(|&th| job(spec, Scenario::Rfm { th })));
    }
    ctx.prefetch(&matrix);
    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; ths.len()];

    for &spec in &opts.workloads {
        let base = ctx.get(&job(spec, BASELINE_ZEN));
        let mut row = vec![spec.name.to_string()];
        for (i, th) in ths.iter().enumerate() {
            let r = ctx.get(&job(spec, Scenario::Rfm { th: *th }));
            let s = r.slowdown_vs(&base);
            sums[i] += s;
            row.push(pct(s));
        }
        rows.push(row);
    }
    let n = opts.workloads.len() as f64;
    let mut avg = vec!["AVERAGE".to_string()];
    avg.extend(sums.iter().map(|s| pct(s / n)));
    rows.push(avg);
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
        .zip(&sums)
        .map(|(th, s)| (format!("RFM-{th}"), s / n))
        .collect();
    ctx.print(bar_chart("average slowdown", &chart, pct));
}

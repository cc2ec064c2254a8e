//! Figure 12: DRAM power for baseline, Rubix, AutoRFM-8, AutoRFM-4.
//!
//! Paper: Rubix adds ~36 mW of activation power; AutoRFM-8/-4 add 28/55 mW of
//! mitigation power (65–92 mW total over baseline).

use super::Ctx;
use crate::{render_table, SimJob, BASELINE_RUBIX, BASELINE_ZEN};
use autorfm::experiments::Scenario;
use autorfm::power::PowerModel;

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.banner("Figure 12: DRAM power breakdown");

    let configs = [
        ("baseline", BASELINE_ZEN),
        ("rubix", BASELINE_RUBIX),
        ("AutoRFM-8", Scenario::AutoRfm { th: 8 }),
        ("AutoRFM-4", Scenario::AutoRfm { th: 4 }),
    ];
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let matrix: Vec<SimJob> = configs
        .iter()
        .flat_map(|&(_, scen)| opts.workloads.iter().map(move |&spec| job(spec, scen)))
        .collect();
    ctx.prefetch(&matrix);
    let model = PowerModel::ddr5();
    let mut rows = Vec::new();
    let mut base_total = None;

    for (name, scen) in configs {
        // Average the breakdown across workloads.
        let mut acc = autorfm::power::PowerBreakdown::default();
        for &spec in &opts.workloads {
            let r = ctx.get(&job(spec, scen));
            let p = model.breakdown(&r.power_counts, r.elapsed.as_secs_f64());
            acc.act_rw_mw += p.act_rw_mw;
            acc.background_mw += p.background_mw;
            acc.refresh_mw += p.refresh_mw;
            acc.mitigation_mw += p.mitigation_mw;
        }
        let n = opts.workloads.len() as f64;
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

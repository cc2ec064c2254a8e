//! Figure 12: DRAM power for baseline, Rubix, AutoRFM-8, AutoRFM-4.
//!
//! Paper: Rubix adds ~36 mW of activation power; AutoRFM-8/-4 add 28/55 mW of
//! mitigation power (65–92 mW total over baseline).

use autorfm::experiments::Scenario;
use autorfm::power::PowerModel;
use autorfm_bench::{
    banner, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_RUBIX, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner("Figure 12: DRAM power breakdown", &opts);

    let configs = [
        ("baseline", BASELINE_ZEN),
        ("rubix", BASELINE_RUBIX),
        ("AutoRFM-8", Scenario::AutoRfm { th: 8 }),
        ("AutoRFM-4", Scenario::AutoRfm { th: 4 }),
    ];
    let cache = ResultCache::new(&opts);
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let matrix: Vec<SimJob> = configs
        .iter()
        .flat_map(|&(_, scen)| opts.workloads.iter().map(move |&spec| job(spec, scen)))
        .collect();
    cache.prefetch(&matrix, &opts);
    let model = PowerModel::ddr5();
    let mut rows = Vec::new();
    let mut base_total = None;

    for (name, scen) in configs {
        // Average the breakdown across workloads.
        let mut acc = autorfm::power::PowerBreakdown::default();
        for &spec in &opts.workloads {
            let r = cache.get(&job(spec, scen));
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
    print_table(
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
    );
    println!("\npaper deltas: rubix +36 mW, AutoRFM-8 +65 mW, AutoRFM-4 +92 mW");

    harness.record_cache(&cache);
    harness.finish();
}

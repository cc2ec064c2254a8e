//! Figure 8: impact of the memory mapping on AutoRFM-4.
//!
//! (a) slowdown and (b) ALERT-per-ACT under the baseline AMD-Zen mapping vs
//! the Rubix randomized mapping. Paper averages: Zen 16.5% / 3.7%,
//! Rubix 3.1% / 0.22%.

use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner("Figure 8: AutoRFM-4 under Zen vs Rubix mapping", &opts);

    let cache = ResultCache::new(&opts);
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let matrix: Vec<SimJob> = opts
        .workloads
        .iter()
        .flat_map(|&spec| {
            [
                job(spec, BASELINE_ZEN),
                job(spec, Scenario::AutoRfmZen { th: 4 }),
                job(spec, Scenario::AutoRfm { th: 4 }),
            ]
        })
        .collect();
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    let (mut s_zen, mut s_rbx, mut a_zen, mut a_rbx) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);

    for &spec in &opts.workloads {
        let base = cache.get(&job(spec, BASELINE_ZEN));
        let zen = cache.get(&job(spec, Scenario::AutoRfmZen { th: 4 }));
        let rbx = cache.get(&job(spec, Scenario::AutoRfm { th: 4 }));
        let (sz, sr) = (zen.slowdown_vs(&base), rbx.slowdown_vs(&base));
        s_zen += sz;
        s_rbx += sr;
        a_zen += zen.alerts_per_act;
        a_rbx += rbx.alerts_per_act;
        rows.push(vec![
            spec.name.to_string(),
            pct(sz),
            pct(sr),
            format!("{:.2}%", zen.alerts_per_act * 100.0),
            format!("{:.2}%", rbx.alerts_per_act * 100.0),
        ]);
    }
    let n = opts.workloads.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        pct(s_zen / n),
        pct(s_rbx / n),
        format!("{:.2}%", a_zen / n * 100.0),
        format!("{:.2}%", a_rbx / n * 100.0),
    ]);
    rows.push(vec![
        "paper avg".into(),
        "16.5%".into(),
        "3.1%".into(),
        "3.70%".into(),
        "0.22%".into(),
    ]);
    print_table(
        &[
            "workload",
            "slow(Zen)",
            "slow(Rubix)",
            "alert/ACT(Zen)",
            "alert/ACT(Rubix)",
        ],
        &rows,
    );

    harness.record_cache(&cache);
    harness.finish();
}

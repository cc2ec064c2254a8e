//! Figure 11: RFM vs AutoRFM slowdown at thresholds 4 and 8.
//!
//! Paper averages: RFM-4 33%, RFM-8 12.9%, AutoRFM-4 3.1%, AutoRFM-8 2.3%.

use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner("Figure 11: RFM vs AutoRFM", &opts);

    let scenarios = [
        ("RFM-4", Scenario::Rfm { th: 4 }),
        ("RFM-8", Scenario::Rfm { th: 8 }),
        ("AutoRFM-4", Scenario::AutoRfm { th: 4 }),
        ("AutoRFM-8", Scenario::AutoRfm { th: 8 }),
    ];
    let cache = ResultCache::new(&opts);
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for &spec in &opts.workloads {
        matrix.push(job(spec, BASELINE_ZEN));
        matrix.extend(scenarios.iter().map(|&(_, scen)| job(spec, scen)));
    }
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; scenarios.len()];

    for &spec in &opts.workloads {
        let base = cache.get(&job(spec, BASELINE_ZEN));
        let mut row = vec![spec.name.to_string()];
        for (i, (_, scen)) in scenarios.iter().enumerate() {
            let s = cache.get(&job(spec, *scen)).slowdown_vs(&base);
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
        "3.1%".into(),
        "2.3%".into(),
    ]);

    let headers: Vec<&str> = std::iter::once("workload")
        .chain(scenarios.iter().map(|(n, _)| *n))
        .collect();
    print_table(&headers, &rows);

    let chart: Vec<(String, f64)> = scenarios
        .iter()
        .zip(&sums)
        .map(|((name, _), s)| (name.to_string(), s / n))
        .collect();
    autorfm_bench::bar_chart("average slowdown", &chart, pct);

    harness.record_cache(&cache);
    harness.finish();
}

//! Figure 3 / Figure 1(d): performance impact of conventional RFM.
//!
//! Regenerates the per-workload slowdown of RFM-4/8/16/32 relative to the
//! no-mitigation Zen baseline. Paper averages: 33%, 12.9%, 4.4%, 0.2%.

use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Figure 3: slowdown of RFM-N vs no-mitigation baseline",
        &opts,
    );

    let ths = [4u32, 8, 16, 32];
    let cache = ResultCache::new(&opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for spec in &opts.workloads {
        matrix.push((spec, BASELINE_ZEN));
        matrix.extend(ths.iter().map(|&th| (*spec, Scenario::Rfm { th })));
    }
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; ths.len()];

    for spec in &opts.workloads {
        let base = cache.get(spec, BASELINE_ZEN, &opts);
        let mut row = vec![spec.name.to_string()];
        for (i, th) in ths.iter().enumerate() {
            let r = cache.get(spec, Scenario::Rfm { th: *th }, &opts);
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
    print_table(&["workload", "RFM-4", "RFM-8", "RFM-16", "RFM-32"], &rows);
    let chart: Vec<(String, f64)> = ths
        .iter()
        .zip(&sums)
        .map(|(th, s)| (format!("RFM-{th}"), s / n))
        .collect();
    autorfm_bench::bar_chart("average slowdown", &chart, pct);

    harness.record_cache(&cache);
    harness.finish();
}

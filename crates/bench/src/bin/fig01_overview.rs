//! Figure 1: the paper's motivation figure.
//!
//! (a) the Rowhammer-threshold trend (Table II data), and (d) the slowdown of
//! RFM as thresholds shrink (computed from the Appendix-A model mapping
//! RFMTH → tolerated TRH-D plus simulated slowdowns). Figures 1(b) and 1(c)
//! are schematic diagrams with no data series.

use autorfm::analysis::{MintModel, TRH_HISTORY};
use autorfm::experiments::Scenario;
use autorfm_bench::{banner, bar_chart, pct, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Figure 1(a) + 1(d): threshold trend and RFM slowdown trend",
        &opts,
    );

    println!("(a) Rowhammer threshold over DRAM generations:");
    let trend: Vec<(String, f64)> = TRH_HISTORY
        .iter()
        .map(|e| {
            let v = e.trh_s.unwrap_or_else(|| e.trh_d.unwrap().0) as f64;
            (e.generation.to_string(), v)
        })
        .collect();
    bar_chart("TRH (activations, min reported)", &trend, |v| {
        format!("{v:.0}")
    });

    println!("\n(d) RFM slowdown as the tolerated threshold shrinks:");
    let ths = [32u32, 16, 8, 4];
    let cache = ResultCache::new(&opts);
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for &spec in &opts.workloads {
        matrix.push(job(spec, BASELINE_ZEN));
        matrix.extend(ths.iter().map(|&th| job(spec, Scenario::Rfm { th })));
    }
    cache.prefetch(&matrix, &opts);
    let mut chart = Vec::new();
    for th in ths {
        let trhd = MintModel::rfm(th, true).tolerated_trh_d();
        let mut sum = 0.0;
        for &spec in &opts.workloads {
            let base = cache.get(&job(spec, BASELINE_ZEN));
            sum += cache
                .get(&job(spec, Scenario::Rfm { th }))
                .slowdown_vs(&base);
        }
        let s = sum / opts.workloads.len() as f64;
        chart.push((format!("TRH-D ~{trhd:.0} (RFM-{th})"), s));
    }
    bar_chart("average RFM slowdown", &chart, pct);
    println!("\npaper: negligible at today's thresholds (~800), 33% at a threshold of 100.");

    harness.record_cache(&cache);
    harness.finish();
}

//! Table VI: slowdown and tolerated TRH-D for Recursive vs Fractal Mitigation
//! as AutoRFMTH varies.
//!
//! Paper: TH=4 → 3.1% slowdown, TRH-D 96 (recursive) / 74 (fractal);
//! TH=8 → 2.3%, 182 / 161.

use autorfm::analysis::MintModel;
use autorfm::experiments::Scenario;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner("Table VI: Recursive vs Fractal Mitigation", &opts);

    let ths = [4u32, 5, 6, 8];
    let paper = [
        (3.1, 96, 74),
        (2.8, 117, 96),
        (2.7, 139, 117),
        (2.3, 182, 161),
    ];
    let cache = ResultCache::new(&opts);
    let job = |spec, scenario| SimJob::new(spec, scenario, &opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for &spec in &opts.workloads {
        matrix.push(job(spec, BASELINE_ZEN));
        for &th in &ths {
            matrix.push(job(spec, Scenario::AutoRfm { th }));
            matrix.push(job(spec, Scenario::AutoRfmRecursive { th }));
        }
    }
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();

    for (i, th) in ths.iter().enumerate() {
        // Slowdown: fractal AutoRFM (the paper's headline column), averaged
        // across workloads.
        let mut s_fm = 0.0f64;
        let mut s_rm = 0.0f64;
        for &spec in &opts.workloads {
            let base = cache.get(&job(spec, BASELINE_ZEN));
            s_fm += cache
                .get(&job(spec, Scenario::AutoRfm { th: *th }))
                .slowdown_vs(&base);
            s_rm += cache
                .get(&job(spec, Scenario::AutoRfmRecursive { th: *th }))
                .slowdown_vs(&base);
        }
        let n = opts.workloads.len() as f64;
        let rm_trhd = MintModel::auto_rfm(*th, true).tolerated_trh_d();
        let fm_trhd = MintModel::auto_rfm(*th, false).tolerated_trh_d();
        let (p_slow, p_rm, p_fm) = paper[i];
        rows.push(vec![
            format!("{th}"),
            pct(s_fm / n),
            pct(s_rm / n),
            format!("{p_slow}%"),
            format!("{rm_trhd:.0}"),
            format!("{p_rm}"),
            format!("{fm_trhd:.0}"),
            format!("{p_fm}"),
        ]);
    }
    print_table(
        &[
            "AutoRFMTH",
            "slowdown(FM)",
            "slowdown(RM)",
            "paper slow",
            "RM TRH-D",
            "(paper)",
            "FM TRH-D",
            "(paper)",
        ],
        &rows,
    );

    harness.record_cache(&cache);
    harness.finish();
}

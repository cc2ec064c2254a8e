//! Tracker zoo: every registered tracker's slowdown at AutoRFM-4, with the
//! OracleRH lower-bound gate.
//!
//! Runs one quick-sweep cell (AutoRFM-4 + tracker vs the no-mitigation
//! Rubix baseline — AutoRFM scenarios run on the Rubix mapping, so the
//! baseline must match or mapping effects drown out mitigation cost) for
//! **every** `autorfm::trackers::names()` entry — the sweep
//! enumerates the plugin registry, so a newly registered tracker gains a
//! column with no edit here. The idealized OracleRH mitigates only when a
//! row provably nears the threshold, so its slowdown must be **strictly
//! lower** than every real tracker's; the binary exits nonzero if any real
//! tracker beats it (that would mean either the oracle regressed or a
//! tracker stopped paying for its mitigations).
//!
//! The last stdout line is a JSON record `{trackers, slowdowns,
//! oracle_gap_geomean}`.

use autorfm::experiments::Scenario;
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_RUBIX,
};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Tracker zoo: slowdown of AutoRFM-4 per registered tracker",
        &opts,
    );

    let th = 4u32;
    let kinds = TrackerKind::ALL;
    let cache = ResultCache::new(&opts);
    let mut matrix: Vec<SimJob> = Vec::new();
    for spec in &opts.workloads {
        matrix.push((spec, BASELINE_RUBIX));
        matrix.extend(
            kinds
                .iter()
                .map(|&tracker| (*spec, Scenario::AutoRfmWith { th, tracker })),
        );
    }
    cache.prefetch(&matrix, &opts);

    // Geomean slowdown factor (1 + slowdown) per tracker across workloads.
    let mut log_sums = vec![0.0f64; kinds.len()];
    let mut rows = Vec::new();
    for spec in &opts.workloads {
        let base = cache.get(spec, BASELINE_RUBIX, &opts);
        let mut row = vec![spec.name.to_string()];
        for (i, &tracker) in kinds.iter().enumerate() {
            let r = cache.get(spec, Scenario::AutoRfmWith { th, tracker }, &opts);
            let s = r.slowdown_vs(&base);
            log_sums[i] += (1.0 + s).ln();
            row.push(pct(s));
        }
        rows.push(row);
    }
    let n = opts.workloads.len() as f64;
    let factors: Vec<f64> = log_sums.iter().map(|l| (l / n).exp()).collect();
    let mut avg = vec!["GEOMEAN".to_string()];
    avg.extend(factors.iter().map(|f| pct(f - 1.0)));
    rows.push(avg);

    let mut headers: Vec<String> = vec!["workload".into()];
    headers.extend(kinds.iter().map(|k| k.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);

    // The oracle lower-bound gate and the per-PR headline number.
    let oracle_idx = kinds
        .iter()
        .position(|k| k.info().flags.oracle)
        .expect("registry has an oracle baseline");
    let oracle_factor = factors[oracle_idx];
    let mut gap_log_sum = 0.0f64;
    let mut real = 0usize;
    let mut violations = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        if i == oracle_idx {
            continue;
        }
        gap_log_sum += (factors[i] / oracle_factor).ln();
        real += 1;
        if factors[i] <= oracle_factor {
            violations.push(format!(
                "{kind} ({:.6}) <= oracle ({:.6})",
                factors[i], oracle_factor
            ));
        }
    }
    let oracle_gap_geomean = (gap_log_sum / real as f64).exp();
    println!(
        "\noracle slowdown factor {:.6}; real-tracker gap geomean {:.4}x",
        oracle_factor, oracle_gap_geomean
    );

    for (kind, factor) in kinds.iter().zip(&factors) {
        let tracker = kind.to_string();
        harness.gauge("zoo_slowdown_factor", &[("tracker", &tracker)], *factor);
    }
    harness.record_cache(&cache);
    harness.finish();

    let slowdowns = Json::Obj(
        kinds
            .iter()
            .zip(&factors)
            .map(|(k, f)| (k.to_string(), Json::Num(*f)))
            .collect(),
    );
    let record = Json::obj(vec![
        (
            "trackers",
            Json::Arr(
                autorfm::trackers::names()
                    .iter()
                    .map(|n| Json::Str((*n).to_string()))
                    .collect(),
            ),
        ),
        ("slowdowns", slowdowns),
        ("oracle_gap_geomean", Json::Num(oracle_gap_geomean)),
    ]);
    println!("{}", record.to_compact());

    if !violations.is_empty() {
        eprintln!("tracker_zoo: oracle lower-bound gate FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(2);
    }
}

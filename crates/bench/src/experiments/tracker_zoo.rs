//! Tracker zoo: every registered tracker's slowdown at AutoRFM-4, with the
//! OracleRH lower-bound gate.
//!
//! Runs AutoRFM-4 + tracker on every workload against the no-mitigation
//! Rubix baseline (AutoRFM scenarios run on the Rubix mapping, so the
//! baseline must match or mapping effects drown out mitigation cost) for
//! **every** `autorfm::trackers::names()` entry — the sweep
//! enumerates the plugin registry, so a newly registered tracker gains a
//! column with no edit here. The idealized OracleRH mitigates only when a
//! row provably nears the threshold, so its slowdown must be **strictly
//! lower** than every real tracker's; the target panics (after its table is
//! written) if any real tracker ties or beats it — that would mean either
//! the oracle regressed or a tracker stopped paying for its mitigations.
//!
//! The report's last line is a JSON record `{trackers, slowdowns,
//! oracle_gap_geomean}`.

use super::Ctx;
use crate::{pct, render_table, BASELINE_RUBIX};
use autorfm::experiments::Scenario;
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Tracker zoo: slowdown of AutoRFM-4 per registered tracker");

    let th = 4u32;
    let kinds = TrackerKind::ALL;
    let mut scenarios = vec![BASELINE_RUBIX];
    scenarios.extend(
        kinds
            .iter()
            .map(|&tracker| Scenario::AutoRfmWith { th, tracker }),
    );
    let results = ctx.sweep(&scenarios);

    // Geomean slowdown factor (1 + slowdown) per tracker across workloads.
    let mut log_sums = vec![0.0f64; kinds.len()];
    let mut rows = Vec::new();
    for (spec, r) in &results {
        let mut row = vec![spec.name.to_string()];
        for (i, t) in r[1..].iter().enumerate() {
            let s = t.slowdown_vs(&r[0]);
            log_sums[i] += (1.0 + s).ln();
            row.push(pct(s));
        }
        rows.push(row);
    }
    let n = results.len() as f64;
    let factors: Vec<f64> = log_sums.iter().map(|l| (l / n).exp()).collect();
    let mut avg = vec!["GEOMEAN".to_string()];
    avg.extend(factors.iter().map(|f| pct(f - 1.0)));
    rows.push(avg);

    let mut headers: Vec<String> = vec!["workload".into()];
    headers.extend(kinds.iter().map(|k| k.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    ctx.print(render_table(&header_refs, &rows));

    // The oracle lower-bound gate and the headline gap.
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
    ctx.println(format!(
        "\noracle slowdown factor {:.6}; real-tracker gap geomean {:.4}x",
        oracle_factor, oracle_gap_geomean
    ));

    for (kind, factor) in kinds.iter().zip(&factors) {
        let tracker = kind.to_string();
        ctx.gauge("zoo_slowdown_factor", &[("tracker", &tracker)], *factor);
    }

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
    ctx.println(record.to_compact());

    assert!(
        violations.is_empty(),
        "oracle lower-bound gate: {}",
        violations.join("; ")
    );
}

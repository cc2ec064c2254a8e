//! What a run prints: one `name value unit` line per metric, informational
//! `info:` lines, and last the JSON result line
//! `{"correct", "attempted", "failed", "metrics"}`. The metric tables below
//! mirror `BENCHMARK.json`, which the run checks when it starts from the
//! directory that holds it.

use crate::calib::{HostSpeed, ROUND_REPS};
use crate::stats::{self, MIN_BEYOND, TAIL};
use autorfm::telemetry::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs. Every workload sets all
/// of them; "ops" are cells, search patterns or campaigns (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs. A layer that a workload does
/// not drive from the benchmark process reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.warmup_ms_p50", "ms"),
    ("core.fork_ms_p50", "ms"),
    ("core.run_ms_p50", "ms"),
    ("core.steps_executed", "count"),
    ("core.steps_skipped", "count"),
    ("core.skip_ratio", "ratio"),
    ("core.kernel_self_ms", "ms"),
    ("core.sim_minstr_per_s", "M/s"),
    ("cpu.core_step_ms", "ms"),
    ("cpu.core_step_calls", "count"),
    ("cpu.uncore_tick_ms", "ms"),
    ("cpu.uncore_tick_calls", "count"),
    ("cpu.llc_load_hit_rate", "ratio"),
    ("cpu.mshr_stalls", "count"),
    ("memctrl.tick_ms", "ms"),
    ("memctrl.tick_calls", "count"),
    ("memctrl.next_event_ms", "ms"),
    ("memctrl.next_event_calls", "count"),
    ("memctrl.skip_ticks_calls", "count"),
    ("memctrl.row_hit_rate", "ratio"),
    ("memctrl.retry_ratio", "ratio"),
    ("dram.acts", "count"),
    ("dram.alerts", "count"),
    ("dram.rfms", "count"),
    ("dram.mitigations", "count"),
    ("dram.empty_mitigation_ratio", "ratio"),
    ("analysis.eval_ms", "ms"),
    ("analysis.search_self_ms", "ms"),
    ("analysis.patterns_evaluated", "count"),
    ("analysis.archive_accept_ratio", "ratio"),
    ("snapshot.store_put_us_p50", "us"),
    ("snapshot.store_get_us_p50", "us"),
    ("snapshot.record_bytes_p50", "bytes"),
    ("campaign.submit_ms_p50", "ms"),
    ("campaign.submit_ms_p90", "ms"),
    ("campaign.status_ms_p50", "ms"),
    ("campaign.cell_get_ms_p50", "ms"),
    ("campaign.dedup_ms_p50", "ms"),
    ("campaign.polls_per_campaign", "count"),
    ("campaign.exec_ms_p50", "ms"),
    ("campaign.wait_ms_p50", "ms"),
    ("campaign.cells_computed", "count"),
    ("campaign.cells_deduped", "count"),
    ("campaign.cells_failed", "count"),
    ("bench.tail_idle_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// The metrics and the correctness ledger of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    host: HostSpeed,
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The factor that scales a raw value of `unit` to nominal host speed: times
/// shrink and rates grow on a host slower than nominal; counts, ratios and
/// sizes stay as measured.
fn nominal_scale(unit: &str, slowness: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => 1.0 / slowness,
        "1/s" | "M/s" => slowness,
        _ => 1.0,
    }
}

impl Report {
    /// Sets metric `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither metric table"));
        self.values.insert(key, value);
    }

    /// Counts one attempted operation or output check. A failure is counted
    /// and explained on stderr; the run then ends with `correct: false` and
    /// a nonzero exit.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Counts `n` attempted operations that succeeded.
    pub fn succeeded(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Prints an informational line (not a metric).
    pub fn info(&self, text: impl AsRef<str>) {
        println!("info: {}", text.as_ref());
    }

    /// Samples the host speed (see calib.rs); call it between rounds, when
    /// none of the workload's threads run.
    pub fn sample_host(&mut self) {
        self.host.sample(ROUND_REPS);
    }

    /// The run's host-speed samples, for workloads that also sample inside
    /// their rounds.
    pub fn host(&self) -> &HostSpeed {
        &self.host
    }

    /// Sets `throughput_per_s` to the median of the per-round throughputs
    /// and prints them with the measured time.
    pub fn rounds(&mut self, measured_s: f64, throughputs: &[f64]) {
        self.info(format!(
            "{} rounds, {measured_s:.2} s measured; raw throughput per round [{}]",
            throughputs.len(),
            list(throughputs)
        ));
        self.set("throughput_per_s", stats::median(throughputs));
    }

    /// Sets the `snapshot.*` metrics: the medians of per-record put and get
    /// times (µs) and of record sizes.
    pub fn store_timings(&mut self, put_us: &[f64], get_us: &[f64], bytes: &[f64]) {
        self.set("snapshot.store_put_us_p50", stats::percentile(put_us, 50.0));
        self.set("snapshot.store_get_us_p50", stats::percentile(get_us, 50.0));
        self.set("snapshot.record_bytes_p50", stats::percentile(bytes, 50.0));
    }

    /// Median and nearest-rank p90 of a timing, printed with the sample
    /// count. A tail with fewer than ten samples beyond it fails the run.
    pub fn timing(&mut self, label: &str, samples: &[f64]) -> (f64, f64) {
        let n = samples.len();
        let (p50, p90) = (
            stats::percentile(samples, 50.0),
            stats::percentile(samples, TAIL),
        );
        let beyond = stats::beyond(n, TAIL);
        self.info(format!(
            "{label}: p50 {p50:.3} p90 {p90:.3} over {n} samples ({beyond} beyond p90)"
        ));
        self.check(beyond >= MIN_BEYOND, || {
            format!("{label}: p90 has {beyond} samples beyond it, fewer than {MIN_BEYOND}")
        });
        (p50, p90)
    }

    /// Prints the metric set of the run's mode, scaled to nominal host
    /// speed, and the JSON result line; returns the process exit code (0
    /// only for a correct run). An unset end-to-end metric is an error; an
    /// unset per-layer metric reads 0.
    pub fn finish(mut self, traced: bool) -> i32 {
        let slowness = self.host.slowness();
        self.info(format!(
            "host slowness {slowness:.4} ({}); times and rates below are scaled to nominal speed",
            self.host.describe()
        ));
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut entries = Vec::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) => v * nominal_scale(unit, slowness),
                None if traced => 0.0,
                None => f64::NAN,
            };
            self.check(stats::valid_name(name) && value.is_finite(), || {
                format!("metric {name} is {value}")
            });
            println!("{name} {value} {unit}");
            let value = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            entries.push((name.to_string(), value));
        }
        self.check_declared(table, traced);
        let line = Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(entries)),
        ]);
        println!("{}", line.to_compact());
        i32::from(self.failed > 0)
    }

    /// The printed set must be exactly the one `BENCHMARK.json` declares.
    fn check_declared(&mut self, table: &[(&str, &str)], traced: bool) {
        let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
            self.info("no BENCHMARK.json in the working directory; metric set not checked");
            return;
        };
        let key = if traced { "per_layer" } else { "end_to_end" };
        let mut declared: Vec<(String, String)> = Json::parse(&text)
            .ok()
            .and_then(|json| json.get(key).and_then(Json::as_arr).map(<[Json]>::to_vec))
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect();
        let mut printed: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        declared.sort();
        printed.sort();
        self.check(declared == printed, || {
            format!("printed metrics differ from BENCHMARK.json {key}: {printed:?} vs {declared:?}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_are_legal() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} appears twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }
}

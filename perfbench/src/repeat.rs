//! `--repeat N`: runs every chosen workload N times, each run in a fresh
//! process with seed `--seed + i`, alternating the workload order between
//! repetitions so drift hits every workload alike. Prints each end-to-end
//! metric's median and quartiles and flags every metric whose spread
//! (quartile distance over median) exceeds its bound in `BENCHMARK.json`.

use crate::stats;
use autorfm::telemetry::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Each end-to-end metric's bound, from `BENCHMARK.json` in the working
/// directory.
fn bounds() -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let json = Json::parse(&text).unwrap_or(Json::Null);
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the repetitions; returns 0 when every run was correct and every
/// spread is within its bound.
pub fn run(workloads: &[&str], seed: u64, seconds: u64, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find my own executable: {e}");
            return 1;
        }
    };
    let bounds = bounds();
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for i in 0..n {
        let mut order = workloads.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        let run_seed = seed + i as u64;
        for workload in order {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args([
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output();
            let last = out
                .as_ref()
                .ok()
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_string)
                })
                .and_then(|line| Json::parse(&line).ok());
            let ok = out.as_ref().is_ok_and(|o| o.status.success())
                && last.as_ref().and_then(|j| j.get("correct")) == Some(&Json::Bool(true));
            let mut line = format!("repeat {}/{n}: {workload} seed {run_seed}:", i + 1);
            if let Some(Json::Obj(metrics)) =
                last.as_ref().and_then(|j| j.get("metrics")).filter(|_| ok)
            {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        values.entry((workload, name.clone())).or_default().push(v);
                        line += &format!(" {name}={v:.4}");
                    }
                }
            } else {
                failed += 1;
                line += " FAILED";
            }
            eprintln!("{line}");
        }
    }
    let mut wide = 0;
    println!(
        "{:<17} {:<17} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), v) in &values {
        let median = stats::median(v);
        let [q1, _, q3] = stats::quartiles(v).unwrap_or([median; 3]);
        let spread = (q3 - q1) / median;
        let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
        let flag = if spread > bound { "WIDE" } else { "" };
        wide += usize::from(!flag.is_empty());
        println!(
            "{workload:<17} {name:<17} {:>4} {median:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.3} {flag}",
            v.len()
        );
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} run(s) failed");
        return 1;
    }
    i32::from(wide > 0) * 3
}

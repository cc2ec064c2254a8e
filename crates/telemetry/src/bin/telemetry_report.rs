//! Inspect `results/<target>.json` run manifests.
//!
//! ```text
//! telemetry_report summary <manifest.json>
//!     Print target, config, wall clock, throughput, and final metrics.
//!
//! telemetry_report diff <a.json> <b.json>
//!     Compare the top-level metrics of two manifests.
//!
//! telemetry_report series <manifest.json> <run-key> [metric]
//!     Dump the epoch time series of one (workload/scenario) run as CSV to
//!     stdout — every column, or just `index,start_ns,end_ns,<metric>`.
//!     With no run-key, lists the runs that carry a series.
//! ```

use autorfm_telemetry::RunManifest;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: telemetry_report summary <manifest.json>\n\
         \x20      telemetry_report diff <a.json> <b.json>\n\
         \x20      telemetry_report series <manifest.json> [run-key] [metric]"
    );
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<RunManifest, ExitCode> {
    RunManifest::load(Path::new(path)).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["summary", path] => load(path).map(|m| print!("{}", m.summary())),
        ["diff", a, b] => match (load(a), load(b)) {
            (Ok(ma), Ok(mb)) => {
                diff(&ma, &mb);
                Ok(())
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        ["series", path] => load(path).map(|m| list_series(&m)),
        ["series", path, key] => load(path).and_then(|m| series(&m, key, None)),
        ["series", path, key, metric] => load(path).and_then(|m| series(&m, key, Some(metric))),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn diff(a: &RunManifest, b: &RunManifest) {
    println!("--- {} ({:.3} s)", a.target, a.wall_s);
    println!("+++ {} ({:.3} s)", b.target, b.wall_s);
    let deltas = a.diff(b);
    if deltas.is_empty() {
        println!("(no metrics to compare)");
        return;
    }
    let width = deltas.iter().map(|d| d.key.len()).max().unwrap_or(8);
    for d in &deltas {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
        let rel = d
            .relative()
            .map_or(String::new(), |r| format!("  ({:+.2}%)", r * 100.0));
        println!(
            "{:<width$}  {:>16} -> {:>16}{rel}",
            d.key,
            fmt(d.a),
            fmt(d.b)
        );
    }
    if a.wall_s > 0.0 && b.wall_s > 0.0 {
        println!(
            "wall clock: {:.3} s -> {:.3} s ({:+.1}%)",
            a.wall_s,
            b.wall_s,
            (b.wall_s / a.wall_s - 1.0) * 100.0
        );
    }
}

fn list_series(m: &RunManifest) {
    let with_series: Vec<&str> = m
        .runs
        .iter()
        .filter(|r| r.series.is_some())
        .map(|r| r.key.as_str())
        .collect();
    if with_series.is_empty() {
        println!(
            "{}: no epoch series recorded (re-run with --telemetry)",
            m.target
        );
        return;
    }
    println!("{}: runs with epoch series:", m.target);
    for key in with_series {
        println!("    {key}");
    }
}

fn series(m: &RunManifest, key: &str, metric: Option<&str>) -> Result<(), ExitCode> {
    let Some(run) = m.run(key) else {
        eprintln!("error: no run {key:?} in manifest (try `series <manifest>` to list)");
        return Err(ExitCode::FAILURE);
    };
    let Some(series) = &run.series else {
        eprintln!("error: run {key:?} has no epoch series (re-run with --telemetry)");
        return Err(ExitCode::FAILURE);
    };
    let written = match metric {
        None => series.write_csv(std::io::stdout().lock()),
        Some(name) => series.write_column_csv(name, std::io::stdout().lock()),
    };
    written.map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

//! perfbench: one benchmark for the simulator, the attack fuzzer and the
//! campaign service, end to end and per layer. See README.md.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! perfbench --repeat N [--workload NAME]... [--seed N] [--seconds N]
//! ```
//!
//! A run measures one workload for about `--seconds` (default 20) seconds of
//! timed work, checks its outputs, prints one `name value unit` line per
//! metric and ends with one JSON line. `--trace 1` adds the traced run: it prints the
//! per-layer metrics instead of the end-to-end ones and writes
//! `.perfbench/trace/<workload>.trace.json`. `--repeat N` respawns the
//! benchmark N times per workload with seeds `--seed`, `--seed`+1, … and
//! prints each end-to-end metric's median and quartiles.

mod calib;
mod fuzz;
mod kernel;
mod repeat;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};

/// Worker threads of every workload, pinned so that results compare
/// across machines and commits.
pub const THREADS: usize = 2;

/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
const SECONDS: u64 = 20;

/// Every workload runs at least this many rounds.
const MIN_ROUNDS: usize = 3;

/// The workloads, in the order `--repeat` runs them.
const WORKLOADS: [&str; 4] = [
    sweep::MEMORY.name,
    sweep::COMPUTE.name,
    fuzz::NAME,
    service::NAME,
];

/// Everything the benchmark writes lives under this directory of the
/// working directory.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n       \
                     perfbench --repeat N [--workload NAME]... [--seed N] [--seconds N]\n\
                     workloads: sweep-memory, sweep-compute, fuzz-zoo, campaign-service";

/// How long a workload keeps starting rounds.
pub struct Budget {
    seconds: f64,
}

impl Budget {
    /// Whether to run another round after `rounds` rounds that measured
    /// `measured` seconds: always up to [`MIN_ROUNDS`] and until the tail
    /// percentile has ten samples beyond it (`tail_ok`), then while one
    /// more round of average length still fits in the budget.
    pub fn more(&self, rounds: usize, measured: f64, tail_ok: bool) -> bool {
        if rounds < MIN_ROUNDS {
            return true;
        }
        if !tail_ok {
            // A run whose rounds keep failing still ends.
            return measured < 2.0 * self.seconds;
        }
        measured + measured / rounds as f64 <= self.seconds
    }
}

/// A fresh, empty temporary directory for `tag` under [`OUT_DIR`].
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR)
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Peak resident set size (`VmHWM`) in MiB from a `/proc/*/status` file.
pub fn peak_rss_mb(status: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: SECONDS,
        trace: false,
        repeat: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                out.workloads.push(name);
            }
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeat" => out.repeat = Some(number(value()?)?.max(1) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some(n) = args.repeat {
        let workloads: Vec<&str> = if args.workloads.is_empty() {
            WORKLOADS.to_vec()
        } else {
            args.workloads.iter().map(String::as_str).collect()
        };
        repeat::run(&workloads, args.seed, args.seconds, n)
    } else if let [workload] = args.workloads.as_slice() {
        run(workload, &args)
    } else {
        eprintln!("perfbench: give exactly one --workload\n{USAGE}");
        2
    };
    std::process::exit(code);
}

/// One measured run of `workload`; returns the exit code.
fn run(workload: &str, args: &Args) -> i32 {
    let budget = Budget {
        seconds: args.seconds as f64,
    };
    let trace_dir = args.trace.then(|| Path::new(OUT_DIR).join("trace"));
    let trace_dir = trace_dir.as_deref();
    let mut report = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    report.info(format!(
        "{workload} seed {} seconds {} trace {}; {THREADS} threads on {cores} available",
        args.seed, args.seconds, args.trace
    ));
    match workload {
        "sweep-memory" => sweep::MEMORY.run(args.seed, &budget, trace_dir, &mut report),
        "sweep-compute" => sweep::COMPUTE.run(args.seed, &budget, trace_dir, &mut report),
        fuzz::NAME => fuzz::run(args.seed, &budget, trace_dir, &mut report),
        _ => service::run(args.seed, &budget, trace_dir, &mut report),
    }
    if workload != service::NAME {
        report.set(
            "peak_rss_mb",
            peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN),
        );
    }
    if let Some(dir) = trace_dir {
        report.info(format!(
            "trace written to {}",
            dir.join(format!("{workload}.trace.json")).display()
        ));
    }
    report.finish(args.trace)
}

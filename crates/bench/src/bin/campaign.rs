//! Command-line client for `campaignd` (see `autorfm_campaign`).
//!
//! ```text
//! campaign (--addr HOST:PORT | --store DIR) <command> [args]
//! ```
//!
//! `--store DIR` reads the server address from `DIR/daemon.addr`, which
//! `campaignd` writes at startup. Commands:
//!
//! * `submit [--name N] [--workloads a,b] [--scenarios s,..] [--trackers t,..]
//!   [--thresholds n,..] [--cores N] [--instructions N] [--seed N]` —
//!   submit a sweep; prints the server's reply (campaign id + dedup counts),
//! * `status ID` — one campaign's progress,
//! * `wait ID` — poll until the campaign completes (exit 1 on a 10-minute
//!   timeout),
//! * `manifest ID` — the per-cell manifest (digests, perf, errors),
//! * `cell KEY` — one cell by 16-hex-digit key,
//! * `check ID` — re-run every cell of the campaign standalone (a direct
//!   `System` run, no daemon) and diff the result digests against the
//!   manifest; exits 1 on any mismatch, failed, or unfinished cell,
//! * `campaigns` / `stats` / `metrics` / `trackers` / `mitigations` /
//!   `workloads` — the matching GET endpoints,
//! * `shutdown` — stop the server.

use autorfm::telemetry::Json;
use autorfm::System;
use autorfm_campaign::{encode_record, http, CellSpec};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: campaign (--addr HOST:PORT | --store DIR) \
    <submit|status|wait|manifest|cell|check|campaigns|stats|metrics|trackers|mitigations|workloads|shutdown> [args]";

/// GET `path`, failing the process on transport errors or non-2xx statuses.
fn get(addr: &str, path: &str) -> Json {
    let (status, body) = http::request(addr, "GET", path, None)
        .unwrap_or_else(|e| panic!("GET {path} against {addr} failed: {e}"));
    if !(200..300).contains(&status) {
        eprintln!("GET {path}: HTTP {status}: {}", body.to_compact());
        std::process::exit(1);
    }
    body
}

/// Splits a comma-separated list into JSON strings (empty input → none).
fn csv(value: &str) -> Json {
    Json::Arr(
        value
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| Json::Str(s.to_string()))
            .collect(),
    )
}

/// Parses a numeric flag value into a [`Json::Num`].
fn num_flag(flag: &str, value: &str) -> Json {
    Json::Num(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} needs a number, got {value}")),
    )
}

/// Builds the `submit` payload (a `SweepRequest` in JSON form) from the
/// subcommand's remaining flags.
fn submit_payload(args: &mut impl Iterator<Item = String>) -> Json {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--name" => fields.push(("name", Json::Str(value()))),
            "--workloads" => fields.push(("workloads", csv(&value()))),
            "--scenarios" => fields.push(("scenarios", csv(&value()))),
            "--trackers" => fields.push(("trackers", csv(&value()))),
            "--thresholds" => {
                let list = value();
                fields.push((
                    "thresholds",
                    Json::Arr(
                        list.split(',')
                            .filter(|s| !s.is_empty())
                            .map(|v| num_flag("--thresholds", v))
                            .collect(),
                    ),
                ));
            }
            "--cores" => fields.push(("cores", num_flag("--cores", &value()))),
            "--instructions" => {
                fields.push(("instructions", num_flag("--instructions", &value())));
            }
            "--seed" => fields.push(("seed", num_flag("--seed", &value()))),
            other => panic!("unknown submit flag {other}"),
        }
    }
    Json::obj(fields)
}

/// `check ID`: re-runs every manifest cell standalone and diffs digests.
/// Returns the number of bad (mismatched, failed, unfinished, or
/// malformed) cells.
fn check(addr: &str, id: &str) -> usize {
    let manifest = get(addr, &format!("/campaigns/{id}/manifest"));
    let cells = manifest
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("manifest for {id} has no cells"));
    let mut bad = 0usize;
    for cell in cells {
        let label = format!(
            "{}/{}",
            cell.get("workload").and_then(Json::as_str).unwrap_or("?"),
            cell.get("scenario").and_then(Json::as_str).unwrap_or("?"),
        );
        let status = cell.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != "done" {
            let error = cell.get("error").and_then(Json::as_str).unwrap_or("");
            eprintln!("check: {label}: status {status} {error}");
            bad += 1;
            continue;
        }
        let Some(digest) = cell.get("result_digest").and_then(Json::as_str) else {
            eprintln!("check: {label}: manifest row has no result digest");
            bad += 1;
            continue;
        };
        let (key, cfg) = match CellSpec::from_json(cell).and_then(|s| Ok((s.key(), s.config()?))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("check: {label}: bad manifest row: {e}");
                bad += 1;
                continue;
            }
        };
        if cell.get("key").and_then(Json::as_str) != Some(format!("{key:016x}").as_str()) {
            eprintln!("check: {label}: manifest key does not match the row's fields ({key:016x})");
            bad += 1;
            continue;
        }
        let result = System::new(cfg)
            .unwrap_or_else(|e| panic!("build system for {label}: {e}"))
            .run();
        let local = encode_record(key, Ok(&result)).result_digest();
        let local = format!("{:#018x}", local.expect("a completed record has a digest"));
        if local == digest {
            println!("check: {label}: ok ({digest})");
        } else {
            eprintln!("check: {label}: MISMATCH server {digest} vs local {local}");
            bad += 1;
        }
    }
    bad
}

/// The next positional argument, or a usage panic.
fn next_arg(args: &mut impl Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| panic!("missing argument; {USAGE}"))
}

/// POSTs `path` with an optional body, printing the reply; exits 1 on a
/// non-2xx status.
fn post(addr: &str, path: &str, body: Option<&Json>) {
    let (status, reply) = http::request(addr, "POST", path, body)
        .unwrap_or_else(|e| panic!("POST {path} against {addr} failed: {e}"));
    println!("{}", reply.to_pretty());
    if !(200..300).contains(&status) {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr: Option<String> = None;
    let command = loop {
        match args.next().unwrap_or_else(|| panic!("{USAGE}")).as_str() {
            "--addr" => addr = Some(args.next().expect("--addr needs HOST:PORT")),
            "--store" => {
                let dir = std::path::PathBuf::from(args.next().expect("--store needs a directory"));
                let path = dir.join("daemon.addr");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
                addr = Some(text.trim().to_string());
            }
            cmd => break cmd.to_string(),
        }
    };
    let addr = addr.unwrap_or_else(|| panic!("no server address; {USAGE}"));
    match command.as_str() {
        "submit" => {
            let payload = submit_payload(&mut args);
            post(&addr, "/campaigns", Some(&payload));
        }
        "status" => println!(
            "{}",
            get(&addr, &format!("/campaigns/{}", next_arg(&mut args))).to_pretty()
        ),
        "wait" => {
            let id = next_arg(&mut args);
            let deadline = Instant::now() + Duration::from_secs(600);
            loop {
                let status = get(&addr, &format!("/campaigns/{id}"));
                if status.get("complete") == Some(&Json::Bool(true)) {
                    println!("{}", status.to_pretty());
                    break;
                }
                if Instant::now() >= deadline {
                    eprintln!("wait: campaign {id} did not complete in time");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        "manifest" => {
            println!(
                "{}",
                get(
                    &addr,
                    &format!("/campaigns/{}/manifest", next_arg(&mut args))
                )
                .to_pretty()
            );
        }
        "cell" => println!(
            "{}",
            get(&addr, &format!("/cells/{}", next_arg(&mut args))).to_pretty()
        ),
        "check" => {
            let bad = check(&addr, &next_arg(&mut args));
            if bad > 0 {
                eprintln!("check: {bad} bad cell(s)");
                std::process::exit(1);
            }
            println!("check: all cells match");
        }
        "campaigns" => println!("{}", get(&addr, "/campaigns").to_pretty()),
        "stats" => println!("{}", get(&addr, "/stats").to_pretty()),
        "metrics" => println!("{}", get(&addr, "/metrics").to_pretty()),
        "trackers" => println!("{}", get(&addr, "/trackers").to_pretty()),
        "mitigations" => println!("{}", get(&addr, "/mitigations").to_pretty()),
        "workloads" => println!("{}", get(&addr, "/workloads").to_pretty()),
        "shutdown" => post(&addr, "/shutdown", None),
        other => panic!("unknown command {other}; {USAGE}"),
    }
}

//! HTTP routing for the campaign daemon.
//!
//! Thread-per-connection over a [`TcpListener`]; every handler holds a
//! cloned [`Daemon`] handle. The API surface (all bodies JSON):
//!
//! | Method | Path                        | Meaning |
//! |--------|-----------------------------|---------|
//! | GET    | `/health`                   | liveness + uptime |
//! | GET    | `/trackers`                 | known tracker names |
//! | GET    | `/mitigations`              | known mitigation-policy names |
//! | GET    | `/workloads`                | known workload names |
//! | POST   | `/campaigns`                | submit a [`SweepRequest`]; returns id + dedup counts |
//! | GET    | `/campaigns`                | all campaign statuses |
//! | GET    | `/campaigns/{id}`           | one campaign's status |
//! | GET    | `/campaigns/{id}/manifest`  | per-cell manifest (digests, perf, errors) |
//! | GET    | `/cells/{key}`              | one cell by 16-hex-digit key |
//! | GET    | `/stats`                    | global throughput/dedup statistics |
//! | GET    | `/metrics`                  | the telemetry registry |
//! | POST   | `/shutdown`                 | stop workers and the accept loop |

use crate::cell::SweepRequest;
use crate::daemon::Daemon;
use crate::http::{read_request, respond_error, respond_json, Request};
use autorfm::telemetry::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Serves `daemon` on `listener` until a `POST /shutdown` arrives. Returns
/// after the accept loop exits; the caller still owns worker teardown via
/// [`Daemon::stop`].
///
/// # Errors
///
/// Returns the I/O error if the listener's local address cannot be read.
pub fn serve(daemon: &Daemon, listener: TcpListener) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    for conn in listener.incoming() {
        if daemon.is_shutdown() {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let daemon = daemon.clone();
        std::thread::spawn(move || {
            if let Err(e) = handle(&daemon, &mut stream, addr) {
                // Client went away or sent garbage; nothing to clean up.
                let _ = e;
            }
        });
    }
    Ok(())
}

fn handle(daemon: &Daemon, stream: &mut TcpStream, addr: SocketAddr) -> std::io::Result<()> {
    let req = match read_request(&mut *stream) {
        Ok(req) => req,
        Err(e) => return respond_error(stream, 400, "Bad Request", &e.to_string()),
    };
    route(daemon, stream, addr, &req)
}

fn route(
    daemon: &Daemon,
    stream: &mut TcpStream,
    addr: SocketAddr,
    req: &Request,
) -> std::io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => {
            let uptime = daemon
                .stats()
                .get("uptime_ns")
                .cloned()
                .unwrap_or(Json::Null);
            respond_json(
                stream,
                200,
                "OK",
                &Json::obj(vec![("ok", Json::Bool(true)), ("uptime_ns", uptime)]),
            )
        }
        ("GET", ["trackers"]) => {
            // Registry metadata, not bare names: storage bits are quoted at
            // the paper's default AutoRFM window of 4.
            let entries: Vec<Json> = autorfm::trackers::REGISTRY
                .iter()
                .map(|info| {
                    Json::obj(vec![
                        ("name", Json::Str(info.name.to_string())),
                        ("display", Json::Str(info.display.to_string())),
                        ("description", Json::Str(info.description.to_string())),
                        ("storage_bits", Json::Num(f64::from((info.storage_bits)(4)))),
                        ("recursive", Json::Bool(info.flags.recursive)),
                        ("all_bank", Json::Bool(info.flags.all_bank)),
                        ("oracle", Json::Bool(info.flags.oracle)),
                    ])
                })
                .collect();
            respond_json(
                stream,
                200,
                "OK",
                &Json::obj(vec![("trackers", Json::Arr(entries))]),
            )
        }
        ("GET", ["mitigations"]) => {
            let entries: Vec<Json> = autorfm::mitigation::REGISTRY
                .iter()
                .map(|info| {
                    Json::obj(vec![
                        ("name", Json::Str(info.name.to_string())),
                        ("display", Json::Str(info.display.to_string())),
                        ("description", Json::Str(info.description.to_string())),
                        ("recursive", Json::Bool(info.flags.recursive)),
                        (
                            "refreshes_per_round",
                            Json::Num(f64::from(info.flags.refreshes_per_round)),
                        ),
                        ("transitive_safe", Json::Bool(info.flags.transitive_safe)),
                    ])
                })
                .collect();
            respond_json(
                stream,
                200,
                "OK",
                &Json::obj(vec![("mitigations", Json::Arr(entries))]),
            )
        }
        ("GET", ["workloads"]) => {
            let names: Vec<Json> = autorfm::workloads::ALL_WORKLOADS
                .iter()
                .map(|w| Json::Str(w.name.to_string()))
                .collect();
            respond_json(
                stream,
                200,
                "OK",
                &Json::obj(vec![("workloads", Json::Arr(names))]),
            )
        }
        ("POST", ["campaigns"]) => {
            let json = match req.json() {
                Ok(json) => json,
                Err(e) => return respond_error(stream, 400, "Bad Request", &e),
            };
            let parsed = match SweepRequest::from_json(&json) {
                Ok(parsed) => parsed,
                Err(e) => return respond_error(stream, 400, "Bad Request", &e.to_string()),
            };
            match daemon.submit(&parsed) {
                Ok(outcome) => respond_json(
                    stream,
                    200,
                    "OK",
                    &Json::obj(vec![
                        ("id", Json::Str(outcome.id)),
                        ("total", Json::Num(outcome.total as f64)),
                        ("scheduled", Json::Num(outcome.scheduled as f64)),
                        ("deduped", Json::Num(outcome.deduped as f64)),
                    ]),
                ),
                Err(e) => respond_error(stream, 400, "Bad Request", &e.to_string()),
            }
        }
        ("GET", ["campaigns"]) => respond_json(
            stream,
            200,
            "OK",
            &Json::obj(vec![("campaigns", daemon.campaigns())]),
        ),
        ("GET", ["campaigns", id]) => match daemon.campaign_status(id) {
            Some(status) => respond_json(stream, 200, "OK", &status),
            None => respond_error(stream, 404, "Not Found", "unknown campaign"),
        },
        ("GET", ["campaigns", id, "manifest"]) => match daemon.campaign_manifest(id) {
            Some(manifest) => respond_json(stream, 200, "OK", &manifest),
            None => respond_error(stream, 404, "Not Found", "unknown campaign"),
        },
        ("GET", ["cells", key]) => match u64::from_str_radix(key, 16) {
            Ok(key) => match daemon.cell(key) {
                Some(cell) => respond_json(stream, 200, "OK", &cell),
                None => respond_error(stream, 404, "Not Found", "unknown cell"),
            },
            Err(_) => respond_error(stream, 400, "Bad Request", "cell keys are hex"),
        },
        ("GET", ["stats"]) => respond_json(stream, 200, "OK", &daemon.stats()),
        ("GET", ["metrics"]) => respond_json(stream, 200, "OK", &daemon.metrics_json()),
        ("POST", ["shutdown"]) => {
            let out = respond_json(
                stream,
                200,
                "OK",
                &Json::obj(vec![("ok", Json::Bool(true))]),
            );
            daemon.request_shutdown();
            // Unblock the accept loop so `serve` observes the flag.
            let _ = TcpStream::connect(addr);
            out
        }
        _ => respond_error(stream, 404, "Not Found", "no such endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::http;
    use autorfm::KernelKind;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autorfm-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn http_api_end_to_end() {
        let dir = scratch("api");
        let daemon = Daemon::start(DaemonConfig {
            store: dir.clone(),
            workers: 2,
            batch: 4,
            kernel: KernelKind::Event,
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let daemon = daemon.clone();
            std::thread::spawn(move || serve(&daemon, listener).unwrap())
        };

        let (status, body) = http::request(&addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));

        let (_, body) = http::request(&addr, "GET", "/trackers", None).unwrap();
        let trackers = body.get("trackers").and_then(Json::as_arr).unwrap();
        assert_eq!(trackers.len(), autorfm::trackers::names().len());
        for (entry, info) in trackers.iter().zip(autorfm::trackers::REGISTRY.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(info.name));
            assert!(entry.get("description").is_some());
            assert!(entry.get("storage_bits").is_some());
            assert_eq!(
                entry.get("recursive"),
                Some(&Json::Bool(info.flags.recursive))
            );
            assert_eq!(
                entry.get("all_bank"),
                Some(&Json::Bool(info.flags.all_bank))
            );
        }
        let names = |entries: &[Json]| -> Vec<String> {
            entries
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        let tracker_names = names(trackers);
        for zoo in ["graphene", "abacus", "hydra", "oracle"] {
            assert!(tracker_names.iter().any(|n| n == zoo), "{zoo} missing");
        }
        let oracle = trackers
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some("oracle"))
            .expect("oracle registered");
        assert_eq!(oracle.get("oracle"), Some(&Json::Bool(true)));

        let (status, body) = http::request(&addr, "GET", "/mitigations", None).unwrap();
        assert_eq!(status, 200);
        let mitigations = body.get("mitigations").and_then(Json::as_arr).unwrap();
        assert_eq!(mitigations.len(), autorfm::mitigation::names().len());
        for (entry, info) in mitigations.iter().zip(autorfm::mitigation::REGISTRY.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(info.name));
            assert_eq!(
                entry.get("recursive"),
                Some(&Json::Bool(info.flags.recursive))
            );
            assert_eq!(
                entry.get("refreshes_per_round").and_then(Json::as_f64),
                Some(f64::from(info.flags.refreshes_per_round))
            );
            assert_eq!(
                entry.get("transitive_safe"),
                Some(&Json::Bool(info.flags.transitive_safe))
            );
        }
        let mitigation_names = names(mitigations);
        for policy in ["baseline", "recursive", "fractal", "minimal-pair"] {
            assert!(
                mitigation_names.iter().any(|n| n == policy),
                "{policy} missing"
            );
        }
        let fractal = mitigations
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("fractal"))
            .expect("fractal registered");
        assert_eq!(fractal.get("transitive_safe"), Some(&Json::Bool(true)));

        let req = SweepRequest {
            name: "api".into(),
            workloads: vec!["mcf".into()],
            scenarios: vec!["AutoRFM-4".into()],
            cores: 2,
            instructions: 4_000,
            ..SweepRequest::default()
        };
        let (status, submit) =
            http::request(&addr, "POST", "/campaigns", Some(&req.to_json())).unwrap();
        assert_eq!(status, 200, "{submit:?}");
        let id = submit.get("id").and_then(Json::as_str).unwrap().to_string();

        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let (_, status) =
                http::request(&addr, "GET", &format!("/campaigns/{id}"), None).unwrap();
            if status.get("complete") == Some(&Json::Bool(true)) {
                break;
            }
            assert!(Instant::now() < deadline, "campaign timed out");
            std::thread::sleep(Duration::from_millis(20));
        }

        let (_, manifest) =
            http::request(&addr, "GET", &format!("/campaigns/{id}/manifest"), None).unwrap();
        let cells = manifest.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        let key = cells[0].get("key").and_then(Json::as_str).unwrap();
        assert!(cells[0].get("result_digest").is_some());

        let (status, cell) = http::request(&addr, "GET", &format!("/cells/{key}"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(cell.get("status").and_then(Json::as_str), Some("done"));

        let (status, _) = http::request(&addr, "GET", "/cells/zzz", None).unwrap();
        assert_eq!(status, 400);
        let (status, _) = http::request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, err) = http::request(
            &addr,
            "POST",
            "/campaigns",
            Some(&Json::obj(vec![("workloads", Json::Arr(vec![]))])),
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(err.get("error").is_some());

        let (status, _) = http::request(&addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        server.join().unwrap();
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

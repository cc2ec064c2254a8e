//! The campaign daemon: an always-on sweep server over a content-addressed
//! result store (see `autorfm_campaign` for the service itself).
//!
//! ```text
//! campaignd --store DIR [--addr A] [--port P] [--workers N] [--batch N] [--kernel K]
//! ```
//!
//! * `--store DIR` (required) — root of the cell store; campaign specs are
//!   persisted under `DIR/campaigns/` and auto-resumed on restart,
//! * `--addr A` — bind address (default `127.0.0.1`),
//! * `--port P` — bind port (default `0` = ephemeral),
//! * `--workers N`, `--batch N` — worker threads and lockstep lanes per
//!   work unit (defaults from `DaemonConfig::new`),
//! * `--kernel stepped|event` — simulation kernel (default: event).
//!
//! On startup the bound address is printed to stdout as
//! `campaignd listening on ADDR` and written to `DIR/daemon.addr`, which is
//! how the `campaign` client's `--store DIR` flag finds the server. The
//! process serves until a `POST /shutdown` arrives.

use autorfm::KernelKind;
use autorfm_campaign::{serve, Daemon, DaemonConfig};
use std::net::TcpListener;
use std::path::PathBuf;

const USAGE: &str =
    "usage: campaignd --store DIR [--addr A] [--port P] [--workers N] [--batch N] [--kernel K]";

fn main() {
    let mut store: Option<PathBuf> = None;
    let mut addr = "127.0.0.1".to_string();
    let mut port: u16 = 0;
    let mut workers: Option<usize> = None;
    let mut batch: Option<usize> = None;
    let mut kernel: Option<KernelKind> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store = Some(args.next().expect("--store needs a directory").into()),
            "--addr" => addr = args.next().expect("--addr needs an address"),
            "--port" => {
                port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--port needs a port number");
            }
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .map(|n| n.max(1))
                        .expect("--workers needs a positive number"),
                );
            }
            "--batch" => {
                batch = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .map(|n| n.max(1))
                        .expect("--batch needs a positive number"),
                );
            }
            "--kernel" => {
                let v = args.next().expect("--kernel needs stepped|event");
                kernel = Some(
                    KernelKind::parse(&v)
                        .unwrap_or_else(|| panic!("--kernel: unknown kernel {v} (stepped|event)")),
                );
            }
            other => panic!("unknown flag {other}; {USAGE}"),
        }
    }
    let store = store.unwrap_or_else(|| panic!("--store is required; {USAGE}"));

    let mut cfg = DaemonConfig::new(&store);
    if let Some(n) = workers {
        cfg.workers = n;
    }
    if let Some(n) = batch {
        cfg.batch = n;
    }
    if let Some(k) = kernel {
        cfg.kernel = k;
    }
    let daemon = Daemon::start(cfg).expect("start campaign daemon");
    let listener = TcpListener::bind((addr.as_str(), port)).expect("bind campaign daemon listener");
    let local = listener.local_addr().expect("read bound address");
    // The client's `--store DIR` flag reads the address back from here.
    if let Err(e) = std::fs::write(store.join("daemon.addr"), format!("{local}\n")) {
        eprintln!("warning: could not write daemon.addr: {e}");
    }
    println!("campaignd listening on {local}");
    serve(&daemon, listener).expect("serve campaign daemon");
    daemon.stop();
}

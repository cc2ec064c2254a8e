//! The campaign-service workload. Each round starts a `campaignd` child
//! (`--workers 2 --batch 8 --kernel event`) on a fresh store, then drives
//! it over HTTP with a closed loop of `CLIENTS` client threads, each with
//! one request in flight. Fresh campaigns are one workload × eight
//! scenarios at two cores; every fourth submit repeats one of the client's
//! earlier campaigns, which the service must answer from its store.

use crate::report::Report;
use crate::stats::{self, round_seed, MIN_BEYOND, TAIL};
use crate::trace::{ns, Tracer};
use crate::{Budget, THREADS};
use autorfm::sim_core::DetRng;
use autorfm::snapshot::store::CellStore;
use autorfm::snapshot::{digest64, Snapshot, Writer};
use autorfm::telemetry::Json;
use autorfm::{KernelKind, System};
use autorfm_bench::par_map;
use autorfm_campaign::{http, CellSpec, SweepRequest};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const NAME: &str = "campaign-service";

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const BATCH: usize = 8;
/// Submits per round, drawn by the clients from one queue so that neither
/// idles while the other finishes; every fourth repeats an earlier campaign,
/// so a round holds 48 fresh campaigns.
const SUBMITS: usize = 64;
const WORKLOADS: [&str; 4] = ["mcf", "ConnComp", "wrf", "blender"];
const SCENARIOS: [&str; 8] = [
    "baseline-zen",
    "RFM-2",
    "RFM-4",
    "RFM-8",
    "AutoRFM-2",
    "AutoRFM-4",
    "AutoRFM-8",
    "PRAC-ABO32",
];
const CORES: u8 = 2;
/// Fresh campaign `i` runs `BASE_INSTRUCTIONS + STEP_INSTRUCTIONS·⌊i/4⌋`
/// instructions per core: new cells every time, same warm shape.
const BASE_INSTRUCTIONS: u64 = 20_000;
const STEP_INSTRUCTIONS: u64 = 500;
/// Daemon starts per round (see [`round`]).
const STARTS: usize = 5;
/// Status poll interval of a waiting client.
const POLL: Duration = Duration::from_millis(2);
/// A campaign that has not completed by then counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

/// Fresh campaign `i` of a round with generator seed `seed`.
fn fresh_request(i: usize, seed: u64) -> SweepRequest {
    SweepRequest {
        name: format!("perfbench-{i}"),
        workloads: vec![WORKLOADS[i % WORKLOADS.len()].to_string()],
        scenarios: SCENARIOS.iter().map(|s| s.to_string()).collect(),
        trackers: Vec::new(),
        thresholds: Vec::new(),
        cores: CORES,
        instructions: BASE_INSTRUCTIONS + STEP_INSTRUCTIONS * (i / WORKLOADS.len()) as u64,
        seed,
    }
}

/// A `campaignd` child that is killed and reaped if the round ends early.
struct DaemonChild {
    child: Child,
    addr: String,
}

impl DaemonChild {
    /// Starts `campaignd` (built beside this executable) on `store` with an
    /// ephemeral port, and reads the address it prints.
    fn spawn(store: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("campaignd");
        let mut child = Command::new(&exe)
            .arg("--store")
            .arg(store)
            .args(["--workers", &WORKERS.to_string()])
            .args(["--batch", &BATCH.to_string()])
            .args(["--kernel", "event"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let mut daemon = DaemonChild {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("campaignd listening on ")) {
            (Some(Ok(_)), Some(addr)) => daemon.addr = addr.to_string(),
            _ => return Err(format!("campaignd did not report its address: {line:?}")),
        }
        Ok(daemon)
    }

    /// [`spawn`](Self::spawn), then polls `/health` until it answers; returns
    /// the daemon and the seconds from spawn until the answer.
    fn start(store: &Path) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let daemon = Self::spawn(store)?;
        let healthy = (0..1000).any(|_| {
            let up = matches!(
                http::request(&daemon.addr, "GET", "/health", None),
                Ok((200, _))
            );
            if !up {
                std::thread::sleep(Duration::from_millis(5));
            }
            up
        });
        if !healthy {
            return Err("campaignd never answered /health".to_string());
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// The child's peak resident set (VmHWM) in MiB.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `POST /shutdown`, then waits for a clean exit (a daemon still running
    /// after [`CAMPAIGN_TIMEOUT`] is killed by `Drop`).
    fn shutdown(mut self) -> Result<(), String> {
        let posted = http::request(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + CAMPAIGN_TIMEOUT;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("the daemon did not stop".to_string())
                }
                None => std::thread::sleep(POLL),
            }
        };
        match posted {
            Ok((200, _)) if status.success() => Ok(()),
            other => Err(format!("daemon shutdown: {other:?}, exit {status}")),
        }
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One completed fresh campaign.
struct Fresh {
    index: usize,
    request: SweepRequest,
    latency_ms: f64,
    exec_ms: Option<f64>,
}

/// What one client thread saw in one round.
#[derive(Default)]
struct ClientLog {
    fresh: Vec<Fresh>,
    dedup_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    cell_get_ms: Vec<f64>,
    polls: usize,
    http_ok: usize,
    failures: Vec<String>,
}

/// One client's view of the service, with optional request spans.
struct Client<'a> {
    addr: &'a str,
    tracer: Option<&'a Mutex<Tracer>>,
    log: ClientLog,
}

impl Client<'_> {
    /// One HTTP round trip: its reply on a 2xx status, else `None` with the
    /// failure logged. Traced runs record it as a span under `parent`.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
        parent: Option<u64>,
    ) -> Option<(Json, f64)> {
        let start = Instant::now();
        let reply = http::request(self.addr, method, path, body);
        let end = Instant::now();
        if let (Some(tracer), Some(parent)) = (self.tracer, parent) {
            let mut tracer = tracer.lock().expect("tracer lock poisoned");
            let id = tracer.id();
            tracer.span(
                id,
                "campaign.request",
                Some((parent, "campaign")),
                start,
                end,
            );
        }
        match reply {
            Ok((status, json)) if (200..300).contains(&status) => {
                self.log.http_ok += 1;
                Some((json, ns(start, end) as f64 / 1e6))
            }
            other => {
                self.log
                    .failures
                    .push(format!("{method} {path}: {other:?}"));
                None
            }
        }
    }

    /// Submits `request` and polls its status until complete; returns the
    /// latency from submit to seeing completion and the status polls made.
    fn run_campaign(
        &mut self,
        request: &SweepRequest,
        parent: Option<u64>,
        fresh: bool,
    ) -> Option<(f64, usize)> {
        let start = Instant::now();
        let (reply, submit_ms) =
            self.call("POST", "/campaigns", Some(&request.to_json()), parent)?;
        if fresh {
            self.log.submit_ms.push(submit_ms);
        }
        let Some(id) = reply.get("id").and_then(Json::as_str).map(str::to_string) else {
            self.log.failures.push(format!(
                "submit reply has no campaign id: {}",
                reply.to_compact()
            ));
            return None;
        };
        let mut polls = 0;
        loop {
            let (status, status_ms) =
                self.call("GET", &format!("/campaigns/{id}"), None, parent)?;
            polls += 1;
            self.log.status_ms.push(status_ms);
            if status.get("complete") == Some(&Json::Bool(true)) {
                let failed = status.get("failed").and_then(Json::as_u64).unwrap_or(0);
                if failed > 0 {
                    self.log
                        .failures
                        .push(format!("campaign {id}: {failed} failed cells"));
                    return None;
                }
                return Some((ns(start, Instant::now()) as f64 / 1e6, polls));
            }
            if start.elapsed() > CAMPAIGN_TIMEOUT {
                self.log.failures.push(format!(
                    "campaign {id} did not complete in {CAMPAIGN_TIMEOUT:?}"
                ));
                return None;
            }
            std::thread::sleep(POLL);
        }
    }

    /// The client's closed loop for one round: submit `k` of the round
    /// (from the shared queue `next`) is a repeat when `k % 4 == 3`, else
    /// fresh campaign `k − ⌊k/4⌋`. A client's first submit is always fresh
    /// (it draws `k` ≤ 2 or has completed one before drawing `k` = 3), so a
    /// repeat always has an earlier campaign of its own to pick.
    fn run(&mut self, next: &AtomicUsize, seed: u64, client: usize, round_span: Option<u64>) {
        let mut rng = DetRng::seeded(seed).fork(client as u64);
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= SUBMITS {
                break;
            }
            let span = self
                .tracer
                .map(|t| t.lock().expect("tracer lock poisoned").id());
            let start = Instant::now();
            if k % 4 == 3 {
                if self.log.fresh.is_empty() {
                    self.log
                        .failures
                        .push(format!("submit {k}: no earlier campaign to repeat"));
                    continue;
                }
                let earlier = &self.log.fresh[rng.gen_range(self.log.fresh.len() as u64) as usize];
                let request = earlier.request.clone();
                if let Some((ms, _)) = self.run_campaign(&request, span, false) {
                    self.log.dedup_ms.push(ms);
                }
            } else {
                let index = k - k / 4;
                let request = fresh_request(index, seed);
                if let Some((latency_ms, polls)) = self.run_campaign(&request, span, true) {
                    self.log.polls += polls;
                    let cell = request
                        .expand()
                        .ok()
                        .and_then(|cells| cells.first().map(CellSpec::key));
                    let exec_ms = cell.and_then(|key| {
                        let (json, ms) =
                            self.call("GET", &format!("/cells/{key:016x}"), None, span)?;
                        self.log.cell_get_ms.push(ms);
                        json.get("elapsed_ns")
                            .and_then(Json::as_f64)
                            .map(|ns| ns / 1e6)
                    });
                    self.log.fresh.push(Fresh {
                        index,
                        request,
                        latency_ms,
                        exec_ms,
                    });
                }
            }
            if let (Some(tracer), Some(id)) = (self.tracer, span) {
                let parent = round_span.map(|r| (r, "round"));
                tracer.lock().expect("tracer lock poisoned").span(
                    id,
                    "campaign",
                    parent,
                    start,
                    Instant::now(),
                );
            }
        }
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    wall_s: f64,
    submits: usize,
    peak_rss_mb: f64,
    logs: Vec<ClientLog>,
    stats: Option<Json>,
    digest: u64,
}

/// Runs round `round`: daemon start, the client loop, daemon stop, then the
/// output check against the store. With `trace`, spans go to the tracer and
/// the store put/get timings are taken before the store is removed.
fn round(seed: u64, round: usize, tracer: Option<&Mutex<Tracer>>, report: &mut Report) -> Round {
    let generator_seed = round_seed(seed, round, 1, 0);
    let mut out = Round::default();
    // Set-up: `STARTS` daemons, each on a fresh store, from spawn until
    // `/health` answers; each stops its predecessor, and the last one serves.
    let mut setup_s = Vec::new();
    let mut started: Option<(DaemonChild, PathBuf)> = None;
    for k in 0..STARTS {
        if let Some((earlier, root)) = started.take() {
            let stopped = earlier.shutdown();
            report.check(stopped.is_ok(), || format!("{stopped:?}"));
            let _ = std::fs::remove_dir_all(&root);
        }
        let root = crate::temp_dir(&format!("service-{round}-{k}"));
        match DaemonChild::start(&root) {
            Ok((daemon, secs)) => {
                setup_s.push(secs);
                started = Some((daemon, root));
            }
            Err(e) => {
                report.check(false, || e);
                let _ = std::fs::remove_dir_all(&root);
                return out;
            }
        }
    }
    let (daemon, root) = started.expect("a round starts at least one daemon");
    out.setup_s = stats::median(&setup_s);

    let round_span = tracer.map(|t| t.lock().expect("tracer lock poisoned").id());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (addr, next) = (&daemon.addr, &next);
                scope.spawn(move || {
                    let mut c = Client {
                        addr,
                        tracer,
                        log: ClientLog::default(),
                    };
                    c.run(next, generator_seed, client, round_span);
                    c.log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    out.wall_s = ns(start, end) as f64 / 1e9;
    if let (Some(tracer), Some(id)) = (tracer, round_span) {
        tracer
            .lock()
            .expect("tracer lock poisoned")
            .span(id, "round", None, start, end);
    }
    out.submits = logs.iter().map(|l| l.fresh.len() + l.dedup_ms.len()).sum();
    out.stats = http::request(&daemon.addr, "GET", "/stats", None)
        .ok()
        .map(|(_, json)| json);
    out.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let stopped = daemon.shutdown();
    report.check(stopped.is_ok(), || format!("{stopped:?}"));
    for log in &logs {
        report.succeeded(log.http_ok);
        for failure in &log.failures {
            report.check(false, || failure.clone());
        }
    }
    out.logs = logs;
    out.digest = check_store(&root, &out.logs, report);
    if tracer.is_some() {
        store_timings(&root, report);
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Output check, as `campaign check` does it: one cell of every fresh
/// campaign (one fresh cell in eight) is re-run standalone and its encoded
/// result must equal the bytes in the store. Returns a digest of every
/// stored record.
fn check_store(root: &Path, logs: &[ClientLog], report: &mut Report) -> u64 {
    let store = match CellStore::open(root) {
        Ok(store) => store,
        Err(e) => {
            report.check(false, || {
                format!("cannot reopen the store {}: {e}", root.display())
            });
            return 0;
        }
    };
    let picked: Vec<CellSpec> = logs
        .iter()
        .flat_map(|l| &l.fresh)
        .filter_map(|f| {
            f.request
                .expand()
                .ok()?
                .get(f.index % SCENARIOS.len())
                .copied()
        })
        .collect();
    let standalone = par_map(&picked, THREADS, |cell| {
        let cfg = cell.config().map_err(|e| e.to_string())?;
        let result = System::new(cfg)
            .map_err(|e| e.to_string())?
            .run_with(KernelKind::Event);
        let mut w = Writer::new();
        result.encode(&mut w);
        Ok::<_, String>(w.into_bytes())
    });
    for (cell, local) in picked.iter().zip(standalone) {
        let stored = store.get(cell.key()).and_then(|r| r.outcome.ok());
        report.check(local.is_ok() && stored == local.ok(), || {
            format!(
                "{}/{}: the standalone result differs from the stored cell",
                cell.workload.name, cell.scenario
            )
        });
    }
    let mut all = Writer::new();
    for key in store.keys() {
        if let Some(record) = store.get(key) {
            all.put_bytes(&record.encode());
        }
    }
    digest64(all.bytes())
}

/// Times `CellStore` get on the service's own records and put of them into
/// a second store.
fn store_timings(root: &Path, report: &mut Report) {
    let copy = crate::temp_dir("service-store-copy");
    let (Ok(store), Ok(target)) = (CellStore::open(root), CellStore::open(&copy)) else {
        report.check(false, || "cannot open the stores for timing".to_string());
        return;
    };
    let us = |start: Instant| ns(start, Instant::now()) as f64 / 1e3;
    let (mut put_us, mut get_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for key in store.keys() {
        let t = Instant::now();
        let record = store.get(key);
        get_us.push(us(t));
        let Some(record) = record else {
            report.check(false, || {
                format!("stored cell {key:016x} does not read back")
            });
            continue;
        };
        let t = Instant::now();
        let put = target.put(key, &record);
        put_us.push(us(t));
        report.check(put.is_ok(), || {
            format!("cannot copy cell {key:016x}: {put:?}")
        });
        bytes.push(std::fs::metadata(store.cell_path(key)).map_or(0.0, |m| m.len() as f64));
    }
    report.store_timings(&put_us, &get_us, &bytes);
    let _ = std::fs::remove_dir_all(&copy);
}

/// Runs rounds until the time budget is spent and fills `report`.
pub fn run(seed: u64, budget: &Budget, trace_dir: Option<&Path>, report: &mut Report) {
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut fresh_count = 0;
    while budget.more(
        rounds.len(),
        measured,
        stats::beyond(fresh_count, TAIL) >= MIN_BEYOND,
    ) {
        report.sample_host();
        let r = round(seed, rounds.len(), None, report);
        if r.logs.is_empty() {
            break;
        }
        measured += r.wall_s;
        fresh_count += r.logs.iter().map(|l| l.fresh.len()).sum::<usize>();
        rounds.push(r);
    }
    report.sample_host();
    if !report.check(!rounds.is_empty(), || "no round completed".to_string()) {
        return;
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: &dyn Fn(&ClientLog) -> Vec<f64>| {
        rounds
            .iter()
            .flat_map(|r| r.logs.iter().flat_map(f))
            .collect::<Vec<f64>>()
    };
    let fresh =
        |f: &dyn Fn(&Fresh) -> Option<f64>| pooled(&|l| l.fresh.iter().filter_map(f).collect());
    report.rounds(measured, &per_round(&|r| r.submits as f64 / r.wall_s));
    let (p50, p90) = report.timing("fresh campaign ms", &fresh(&|f| Some(f.latency_ms)));
    report.set("latency_ms_p50", p50);
    report.set("latency_ms_p90", p90);
    report.set("setup_s", stats::median(&per_round(&|r| r.setup_s)));
    report.set("peak_rss_mb", stats::median(&per_round(&|r| r.peak_rss_mb)));
    report.info(format!(
        "output_digest {:#018x} (round 0 store)",
        rounds[0].digest
    ));

    let submit_ms = pooled(&|l| l.submit_ms.clone());
    let (submit_p50, submit_p90) = report.timing("campaign submit ms", &submit_ms);
    report.set("campaign.submit_ms_p50", submit_p50);
    report.set("campaign.submit_ms_p90", submit_p90);
    let p50 = |v: Vec<f64>| stats::percentile(&v, 50.0);
    report.set(
        "campaign.status_ms_p50",
        p50(pooled(&|l| l.status_ms.clone())),
    );
    report.set(
        "campaign.cell_get_ms_p50",
        p50(pooled(&|l| l.cell_get_ms.clone())),
    );
    report.set(
        "campaign.dedup_ms_p50",
        p50(pooled(&|l| l.dedup_ms.clone())),
    );
    let polls: usize = rounds.iter().flat_map(|r| &r.logs).map(|l| l.polls).sum();
    report.set(
        "campaign.polls_per_campaign",
        polls as f64 / fresh_count.max(1) as f64,
    );
    report.set("campaign.exec_ms_p50", p50(fresh(&|f| f.exec_ms)));
    report.set(
        "campaign.wait_ms_p50",
        p50(fresh(&|f| Some(f.latency_ms - f.exec_ms?))),
    );
    let stat = |name: &str| {
        rounds[0]
            .stats
            .as_ref()
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    report.set("campaign.cells_computed", stat("cells_computed"));
    report.set("campaign.cells_deduped", stat("cells_deduped"));
    report.set("campaign.cells_failed", stat("cells_failed"));

    if let Some(dir) = trace_dir {
        // Round 0 again untraced, as the baseline of the tracing overhead,
        // then traced; both must store round 0's cells.
        let untraced = round(seed, 0, None, report);
        let tracer = Mutex::new(Tracer::default());
        let traced = round(seed, 0, Some(&tracer), report);
        report.check(
            traced.digest == rounds[0].digest && untraced.digest == rounds[0].digest,
            || {
                "a repeat of service round 0 stored different cells; the trace is invalid"
                    .to_string()
            },
        );
        let overhead_pct = (traced.wall_s / untraced.wall_s - 1.0) * 100.0;
        report.set("bench.trace_overhead_pct", overhead_pct);
        let header = vec![
            ("workload", Json::Str(NAME.into())),
            ("seed", Json::Num(seed as f64)),
            ("trace_overhead_pct", Json::Num(overhead_pct)),
        ];
        let tracer = tracer.into_inner().expect("tracer lock poisoned");
        let written = tracer.write(dir, NAME, header);
        report.check(written.is_ok(), || {
            format!("cannot write the trace file: {written:?}")
        });
    }
}

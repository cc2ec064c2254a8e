//! The sweep workloads: a workload × scenario matrix per generator seed, run
//! the way the experiment harness runs its figures. Per round, one warm
//! donor per (workload, seed) is built (the round's set-up), then every cell
//! forks from its donor (`System::new_from_warm`) and runs under the event
//! kernel, fanned out over `THREADS` threads with the harness's `par_map`.

use crate::kernel;
use crate::report::Report;
use crate::stats::{self, round_seed, MIN_BEYOND, TAIL};
use crate::trace::{ns, Tracer};
use crate::{Budget, THREADS};
use autorfm::experiments::Scenario;
use autorfm::snapshot::store::{cell_key, CellRecord, CellStore};
use autorfm::snapshot::{digest64, Snapshot, Writer};
use autorfm::telemetry::Json;
use autorfm::workloads::WorkloadSpec;
use autorfm::{KernelKind, SimConfig, SimResult, System};
use autorfm_bench::par_map;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One sweep workload.
pub struct Sweep {
    /// Workload name on the command line.
    pub name: &'static str,
    /// The Table-V workloads it sweeps.
    workloads: [&'static str; 4],
    /// Generator seeds per round.
    seeds_per_round: usize,
}

/// High ACT-PKI workloads with footprints far beyond the LLC: host time goes
/// to the memory controller, the DRAM device and the in-DRAM trackers.
pub const MEMORY: Sweep = Sweep {
    name: "sweep-memory",
    workloads: ["mcf", "ConnComp", "lbm", "PageRank"],
    seeds_per_round: 1,
};

/// Low ACT-PKI workloads: the cores are hot every step and the warm fork is
/// a large share of each cell.
pub const COMPUTE: Sweep = Sweep {
    name: "sweep-compute",
    workloads: ["wrf", "blender", "cam4", "xz"],
    seeds_per_round: 3,
};

/// The scenario set S of every sweep.
const SCENARIOS: [&str; 12] = [
    "baseline-zen",
    "baseline-rubix",
    "RFM-2",
    "RFM-4",
    "RFM-8",
    "RFM-4-rubix",
    "AutoRFM-2",
    "AutoRFM-4",
    "AutoRFM-8",
    "AutoRFM-4-zen",
    "AutoRFM-4-recursive",
    "PRAC-ABO32",
];

/// The harness defaults: 8 cores, 100K instructions per core.
const CORES: u8 = 8;
const INSTRUCTIONS: u64 = 100_000;

/// Every this-many-th cell of a round is re-run under the stepped kernel.
const CHECK_EVERY: usize = 10;

/// Paper averages of Fig 11 (`results/golden/fig11_rfm_vs_autorfm.txt`),
/// slowdown versus the Zen baseline.
const PAPER_SLOWDOWN: [(&str, f64); 4] = [
    ("RFM-4", 0.330),
    ("RFM-8", 0.129),
    ("AutoRFM-4", 0.031),
    ("AutoRFM-8", 0.023),
];

/// One (workload, seed) pair of a round; it has one warm donor.
struct Shape {
    spec: &'static WorkloadSpec,
    seed: u64,
}

/// One finished cell: the scenario on donor `shape`, and what it measured.
struct Done {
    shape: usize,
    scenario: Scenario,
    cfg: SimConfig,
    result: SimResult,
    encoded: Vec<u8>,
    fork_ns: u64,
    run_ns: u64,
    executed: u64,
    skipped: u64,
    llc_hits: u64,
    llc_misses: u64,
    mshr_stalls: u64,
    row_hit_rate: f64,
    retries: u64,
    completed: u64,
}

fn encode(result: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    result.encode(&mut w);
    w.into_bytes()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Done {
    fn key(&self) -> u64 {
        let cfg = &self.cfg;
        cell_key(
            cfg.workload.name,
            &self.scenario.to_string(),
            cfg.num_cores,
            cfg.instructions_per_core,
            cfg.seed,
        )
    }
}

/// Forks cell (`shape`, `scenario`) from `warm` and runs it.
fn run_cell(shape: usize, spec: &Shape, scenario: Scenario, warm: &[u8]) -> Result<Done, String> {
    let cfg = SimConfig::builder(spec.spec)
        .scenario(scenario)
        .cores(CORES)
        .instructions(INSTRUCTIONS)
        .seed(spec.seed)
        .build()
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut sys = System::new_from_warm(cfg.clone(), warm).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let result = sys.run_with(KernelKind::Event);
    let t2 = Instant::now();
    let (executed, skipped) = sys.kernel_stats();
    let (uncore, mc) = (sys.uncore().stats(), sys.mc().stats());
    Ok(Done {
        shape,
        scenario,
        cfg,
        encoded: encode(&result),
        result,
        fork_ns: ns(t0, t1),
        run_ns: ns(t1, t2),
        executed,
        skipped,
        llc_hits: uncore.llc_load_hits.get(),
        llc_misses: uncore.llc_load_misses.get(),
        mshr_stalls: uncore.mshr_stalls.get(),
        row_hit_rate: mc.row_hit_rate(),
        retries: mc.retries.get(),
        completed: mc.completed.get(),
    })
}

/// Everything a sweep run accumulates over its rounds.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    throughput: Vec<f64>,
    minstr_per_s: Vec<f64>,
    tail_idle_s: Vec<f64>,
    cell_ms: Vec<f64>,
    warmup_ms: Vec<f64>,
    fork_ms: Vec<f64>,
    run_ms: Vec<f64>,
    /// Per scenario of [`PAPER_SLOWDOWN`]: slowdowns over (workload, seed).
    slowdowns: [Vec<f64>; 4],
}

impl Sweep {
    /// The shapes of round `round`: every workload at every round seed.
    fn shapes(&self, seed: u64, round: usize) -> Vec<Shape> {
        (0..self.seeds_per_round)
            .flat_map(|k| {
                let seed = round_seed(seed, round, self.seeds_per_round, k);
                self.workloads.iter().map(move |w| Shape {
                    spec: WorkloadSpec::by_name(w).expect("sweep workloads are registered"),
                    seed,
                })
            })
            .collect()
    }

    /// Runs rounds until the time budget is spent and fills `report`.
    pub fn run(&self, seed: u64, budget: &Budget, trace_dir: Option<&Path>, report: &mut Report) {
        let scenarios: Vec<Scenario> = SCENARIOS
            .iter()
            .map(|s| s.parse().expect("sweep scenarios parse"))
            .collect();
        let mut totals = Totals::default();
        let mut round0 = Vec::new();
        let mut measured = 0.0;
        let mut round = 0;
        while budget.more(
            round,
            measured,
            stats::beyond(totals.cell_ms.len(), TAIL) >= MIN_BEYOND,
        ) {
            let shapes = self.shapes(seed, round);
            report.sample_host();
            let t = Instant::now();
            let donors = par_map(&shapes, THREADS, |shape| {
                let t = Instant::now();
                let warm = SimConfig::builder(shape.spec)
                    .scenario(scenarios[0])
                    .cores(CORES)
                    .instructions(INSTRUCTIONS)
                    .seed(shape.seed)
                    .build()
                    .and_then(System::new)
                    .map(|sys| sys.warm_state())
                    .map_err(|e| e.to_string());
                (warm, ms(ns(t, Instant::now())))
            });
            totals.setup_s.push(t.elapsed().as_secs_f64());
            // A donor that failed leaves an empty warm state: its cells are skipped.
            let mut warm = Vec::new();
            for (shape, (bytes, donor_ms)) in shapes.iter().zip(donors) {
                totals.warmup_ms.push(donor_ms);
                report.check(bytes.is_ok(), || {
                    format!("warm donor {}: {:?}", shape.spec.name, bytes.as_ref().err())
                });
                warm.push(bytes.unwrap_or_default());
            }

            let cells: Vec<(usize, Scenario)> = (0..shapes.len())
                .filter(|&s| !warm[s].is_empty())
                .flat_map(|s| scenarios.iter().map(move |&scenario| (s, scenario)))
                .collect();
            let t = Instant::now();
            let runs = par_map(&cells, THREADS, |&(s, scenario)| {
                run_cell(s, &shapes[s], scenario, &warm[s])
            });
            let wall = t.elapsed().as_secs_f64();
            measured += wall;

            let mut done = Vec::new();
            for (&(s, scenario), run) in cells.iter().zip(runs) {
                match run {
                    Ok(d) => done.push(d),
                    Err(e) => {
                        report.check(false, || {
                            format!("cell {}/{scenario}: {e}", shapes[s].spec.name)
                        });
                    }
                }
            }
            report.succeeded(done.len());
            // Output check: every tenth cell again under the stepped kernel.
            let checked: Vec<&Done> = done.iter().step_by(CHECK_EVERY).collect();
            let stepped = par_map(&checked, THREADS, |d| {
                System::new_from_warm(d.cfg.clone(), &warm[d.shape])
                    .map(|mut sys| encode(&sys.run_with(KernelKind::Stepped)))
            });
            for (d, stepped) in checked.iter().zip(stepped) {
                report.check(stepped.is_ok_and(|s| s == d.encoded), || {
                    format!(
                        "{}/{}: the stepped kernel disagrees with the event kernel",
                        d.cfg.workload.name, d.scenario
                    )
                });
            }

            let busy_s: f64 = done
                .iter()
                .map(|d| (d.fork_ns + d.run_ns) as f64 / 1e9)
                .sum();
            totals.throughput.push(done.len() as f64 / wall);
            let instructions = done.len() as f64 * (INSTRUCTIONS * u64::from(CORES)) as f64;
            totals.minstr_per_s.push(instructions / wall / 1e6);
            totals.tail_idle_s.push(wall - busy_s / THREADS as f64);
            for d in &done {
                totals.cell_ms.push(ms(d.fork_ns + d.run_ns));
                totals.fork_ms.push(ms(d.fork_ns));
                totals.run_ms.push(ms(d.run_ns));
            }
            slowdowns(&done, &mut totals);
            if round == 0 {
                round0 = done;
            }
            round += 1;
        }
        report.sample_host();

        report.rounds(measured, &totals.throughput);
        let (p50, p90) = report.timing("cell fork+run ms", &totals.cell_ms);
        report.set("latency_ms_p50", p50);
        report.set("latency_ms_p90", p90);
        report.set("setup_s", stats::median(&totals.setup_s));
        report.set(
            "core.warmup_ms_p50",
            stats::percentile(&totals.warmup_ms, 50.0),
        );
        report.set("core.fork_ms_p50", stats::percentile(&totals.fork_ms, 50.0));
        report.set("core.run_ms_p50", stats::percentile(&totals.run_ms, 50.0));
        report.set("core.sim_minstr_per_s", stats::median(&totals.minstr_per_s));
        report.set("bench.tail_idle_s", stats::median(&totals.tail_idle_s));
        for ((scenario, paper), sims) in PAPER_SLOWDOWN.iter().zip(&totals.slowdowns) {
            let sim = sims.iter().sum::<f64>() / sims.len().max(1) as f64;
            report.info(format!(
                "model accuracy {scenario}: simulated mean slowdown {:.1}% vs paper {:.1}% ({:+.1} pp; \
                 {} workload-seed pairs, the paper averages 21 workloads)",
                sim * 100.0,
                paper * 100.0,
                (sim - paper) * 100.0,
                sims.len()
            ));
        }
        let mut digest = Writer::new();
        for d in &round0 {
            digest.put_bytes(&d.encoded);
        }
        report.info(format!(
            "output_digest {:#018x} (round 0, {} cells)",
            digest64(digest.bytes()),
            round0.len()
        ));
        round0_counters(&round0, report);
        if let Some(dir) = trace_dir {
            self.trace(seed, &round0, dir, report);
        }
    }

    /// The traced run: round 0's cells again through the traced loop, which
    /// must reproduce each untraced result bit for bit; then the layer
    /// metrics, the store timings and the trace file. Each cell also runs
    /// untraced just before, on the same thread, as the baseline of the
    /// tracing overhead.
    fn trace(&self, seed: u64, cells: &[Done], dir: &Path, report: &mut Report) {
        let tracer = Mutex::new(Tracer::default());
        let round_id = tracer.lock().expect("tracer lock poisoned").id();
        let t_round = Instant::now();
        let traced = par_map(cells, THREADS, |d| {
            let untraced_ns = System::new(d.cfg.clone()).map_or(0, |mut sys| {
                let start = Instant::now();
                sys.run_with(KernelKind::Event);
                ns(start, Instant::now())
            });
            let id = tracer.lock().expect("tracer lock poisoned").id();
            let start = Instant::now();
            let out = kernel::run_traced(&d.cfg, &tracer, id);
            let end = Instant::now();
            tracer.lock().expect("tracer lock poisoned").span(
                id,
                "cell",
                Some((round_id, "round")),
                start,
                end,
            );
            (untraced_ns, out)
        });
        let mut tracer = tracer.into_inner().expect("tracer lock poisoned");
        tracer.span(round_id, "round", None, t_round, Instant::now());

        let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
        for (d, (untraced, traced)) in cells.iter().zip(&traced) {
            let same = traced
                .as_ref()
                .is_ok_and(|t| encode(&t.result) == d.encoded);
            report.check(same, || {
                format!(
                    "traced loop does not reproduce {}/{} bitwise; the trace is invalid",
                    d.cfg.workload.name, d.scenario
                )
            });
            if let Ok(t) = traced {
                traced_ns += t.kernel_ns;
                untraced_ns += untraced;
            }
        }
        let overhead_pct = (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0;
        let coverage = kernel::coverage(&tracer);
        report.check(coverage >= 0.9, || {
            format!(
                "timed spans cover {:.1}% of traced cell wall, under 90%",
                coverage * 100.0
            )
        });
        report.info(format!(
            "timed spans cover {:.1}% of traced cell wall",
            coverage * 100.0
        ));

        report.set("core.kernel_self_ms", ms(tracer.self_ns("core.kernel")));
        report.set("cpu.core_step_ms", ms(tracer.total_ns("cpu.core_step")));
        report.set("cpu.core_step_calls", tracer.count("cpu.core_step") as f64);
        report.set("cpu.uncore_tick_ms", ms(tracer.total_ns("cpu.uncore_tick")));
        report.set(
            "cpu.uncore_tick_calls",
            tracer.count("cpu.uncore_tick") as f64,
        );
        let tick_ns =
            tracer.total_ns("memctrl.tick_or_skip") + tracer.total_ns("memctrl.tick_event");
        report.set("memctrl.tick_ms", ms(tick_ns));
        report.set(
            "memctrl.tick_calls",
            tracer.count("memctrl.tick_event") as f64,
        );
        report.set(
            "memctrl.next_event_ms",
            ms(tracer.total_ns("memctrl.next_event_at")),
        );
        report.set(
            "memctrl.next_event_calls",
            tracer.count("memctrl.next_event_at") as f64,
        );
        report.set(
            "memctrl.skip_ticks_calls",
            tracer.count("memctrl.skip_ticks") as f64,
        );
        report.set("bench.trace_overhead_pct", overhead_pct);
        store_timings(cells, report);

        let header = vec![
            ("workload", Json::Str(self.name.into())),
            ("seed", Json::Num(seed as f64)),
            ("cells", Json::Num(cells.len() as f64)),
            ("trace_overhead_pct", Json::Num(overhead_pct)),
        ];
        let written = tracer.write(dir, self.name, header);
        report.check(written.is_ok(), || {
            format!("cannot write the trace file: {written:?}")
        });
    }
}

/// Slowdowns of the [`PAPER_SLOWDOWN`] scenarios versus the Zen baseline,
/// one per donor shape of the round.
fn slowdowns(done: &[Done], totals: &mut Totals) {
    let perf = |shape: usize, name: &str| {
        done.iter()
            .find(|d| d.shape == shape && d.scenario.to_string() == name)
            .map(|d| d.result.perf())
    };
    let shapes = done.iter().map(|d| d.shape + 1).max().unwrap_or(0);
    for shape in 0..shapes {
        let Some(base) = perf(shape, "baseline-zen") else {
            continue;
        };
        for ((scenario, _), out) in PAPER_SLOWDOWN.iter().zip(&mut totals.slowdowns) {
            if let Some(p) = perf(shape, scenario) {
                out.push(1.0 - p / base);
            }
        }
    }
}

/// Simulated work counts of round 0: deterministic for a given `--seed`.
fn round0_counters(cells: &[Done], report: &mut Report) {
    let sum = |f: &dyn Fn(&Done) -> u64| cells.iter().map(f).sum::<u64>();
    let (executed, skipped) = (sum(&|d| d.executed), sum(&|d| d.skipped));
    report.set("core.steps_executed", executed as f64);
    report.set("core.steps_skipped", skipped as f64);
    report.set(
        "core.skip_ratio",
        skipped as f64 / (executed + skipped).max(1) as f64,
    );
    let (hits, misses) = (sum(&|d| d.llc_hits), sum(&|d| d.llc_misses));
    report.set(
        "cpu.llc_load_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("cpu.mshr_stalls", sum(&|d| d.mshr_stalls) as f64);
    let row_hit_rate =
        cells.iter().map(|d| d.row_hit_rate).sum::<f64>() / cells.len().max(1) as f64;
    report.set("memctrl.row_hit_rate", row_hit_rate);
    let (retries, completed) = (sum(&|d| d.retries), sum(&|d| d.completed));
    report.set(
        "memctrl.retry_ratio",
        retries as f64 / (completed + retries).max(1) as f64,
    );
    report.set("dram.acts", sum(&|d| d.result.dram.acts.get()) as f64);
    report.set("dram.alerts", sum(&|d| d.result.dram.alerts.get()) as f64);
    report.set("dram.rfms", sum(&|d| d.result.dram.rfms.get()) as f64);
    let mitigations = sum(&|d| d.result.dram.mitigations.get());
    report.set("dram.mitigations", mitigations as f64);
    let empty = sum(&|d| d.result.dram.empty_mitigations.get());
    report.set(
        "dram.empty_mitigation_ratio",
        empty as f64 / mitigations.max(1) as f64,
    );
}

/// Times `CellStore` put and get on round 0's results, keyed as the harness
/// and the campaign service key them.
fn store_timings(cells: &[Done], report: &mut Report) {
    let root = crate::temp_dir("sweep-store");
    let store = match CellStore::open(&root) {
        Ok(store) => store,
        Err(e) => {
            report.check(false, || {
                format!("cannot open a store at {}: {e}", root.display())
            });
            return;
        }
    };
    let (mut put_us, mut get_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for d in cells {
        let key = d.key();
        let record = CellRecord::ok(key, d.encoded.clone());
        let t = Instant::now();
        let put = store.put(key, &record);
        put_us.push(ns(t, Instant::now()) as f64 / 1e3);
        let t = Instant::now();
        let got = store.get(key);
        get_us.push(ns(t, Instant::now()) as f64 / 1e3);
        report.check(put.is_ok() && got.as_ref() == Some(&record), || {
            format!("store round trip of cell {key:016x}")
        });
        bytes.push(std::fs::metadata(store.cell_path(key)).map_or(0.0, |m| m.len() as f64));
    }
    report.store_timings(&put_us, &get_us, &bytes);
    let _ = std::fs::remove_dir_all(&root);
}

//! The fuzz workload: the attack-pattern fuzzer against every registered
//! tracker, as `attack_fuzz` runs it without a store. Candidates are
//! evaluated by pooled lane evaluators over lane-sized chunks fanned out on
//! `THREADS` threads. A round is one fuzz seed over all trackers; its set-up
//! is each fuzzer's construction and seeded generation 0 (the fixed shapes),
//! and its measured part is the search generations.

use crate::calib::HostSpeed;
use crate::report::Report;
use crate::stats::{self, round_seed, MIN_BEYOND, TAIL};
use crate::trace::{ns, Tracer};
use crate::{Budget, THREADS};
use autorfm::analysis::{
    AttackFuzzer, AttackPattern, CandidateResult, EvaluatorPool, FuzzConfig, FuzzStore,
};
use autorfm::snapshot::{digest64, Writer};
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;
use autorfm_bench::par_map;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub const NAME: &str = "fuzz-zoo";

/// Activations per candidate evaluation.
const ACTIVATIONS: u64 = 60_000;
/// Search generations after generation 0, and candidates per generation.
const GENERATIONS: u32 = 3;
const POPULATION: u32 = 48;
/// Lockstep lanes per evaluator (the `attack_fuzz` default).
const LANES: usize = 8;
/// One archived genome in this many is re-evaluated serially.
const CHECK_EVERY: usize = 16;

/// One evaluation call of a fuzzer: a generation's fresh genomes.
struct Call {
    start: Instant,
    end: Instant,
    patterns: usize,
    /// Summed wall time of the call's lane-sized chunks.
    chunks_ns: u64,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_ns: u64,
    measured_ns: u64,
    search_patterns: usize,
    call_ms: Vec<f64>,
    tail_idle_ns: u64,
    eval_ns: u64,
    run_ns: u64,
    evaluated: u64,
    proposed: u64,
    archived: u64,
    acts: u64,
    mitigations: u64,
    eval_ns_per_tracker: Vec<(TrackerKind, u64)>,
    archives: Vec<(FuzzConfig, Vec<CandidateResult>)>,
    digest: u64,
}

/// Runs round `round` of `seed`: one fuzz campaign per registered tracker.
/// With a tracer, every evaluation call and chunk is recorded as a span.
fn round(seed: u64, round: usize, host: &HostSpeed, tracer: Option<&Mutex<Tracer>>) -> Round {
    let fuzz_seed = round_seed(seed, round, 1, 0);
    let mut out = Round::default();
    let mut digests = Writer::new();
    let round_id = tracer.map(|t| t.lock().expect("tracer lock poisoned").id());
    let round_start = Instant::now();
    for kind in TrackerKind::ALL {
        let start = Instant::now();
        let mut fuzzer = AttackFuzzer::new(FuzzConfig {
            activations: ACTIVATIONS,
            generations: GENERATIONS,
            population: POPULATION,
            seed: fuzz_seed,
            ..FuzzConfig::smoke(kind)
        });
        let cfg = fuzzer.cfg().clone();
        let pool = EvaluatorPool::new(cfg.clone(), LANES);
        let calls = RefCell::new(Vec::<Call>::new());
        // Host samples between generations of untraced rounds, when no
        // evaluation runs; their time is taken out of the measured time.
        let sampled_ns = Cell::new(0);
        let tracker_id = tracer.map(|t| t.lock().expect("tracer lock poisoned").id());
        let outcome = fuzzer.run(|batch: &[AttackPattern]| {
            let call_start = Instant::now();
            let call_id = tracer.map(|t| t.lock().expect("tracer lock poisoned").id());
            let chunks: Vec<&[AttackPattern]> = batch.chunks(pool.lanes()).collect();
            let evaluated = par_map(&chunks, THREADS, |chunk| {
                let t = Instant::now();
                let results = pool.evaluate(chunk);
                let end = Instant::now();
                if let (Some(tracer), Some(parent)) = (tracer, call_id) {
                    let mut tracer = tracer.lock().expect("tracer lock poisoned");
                    let id = tracer.id();
                    tracer.span(
                        id,
                        "analysis.evaluate_batch",
                        Some((parent, "analysis.eval")),
                        t,
                        end,
                    );
                }
                (results, ns(t, end))
            });
            let chunks_ns = evaluated.iter().map(|(_, ns)| ns).sum();
            let end = Instant::now();
            if let (Some(tracer), Some(id), Some(parent)) = (tracer, call_id, tracker_id) {
                tracer.lock().expect("tracer lock poisoned").span(
                    id,
                    "analysis.eval",
                    Some((parent, "analysis.fuzz")),
                    call_start,
                    end,
                );
            }
            calls.borrow_mut().push(Call {
                start: call_start,
                end,
                patterns: batch.len(),
                chunks_ns,
            });
            if tracer.is_none() {
                host.sample(1);
                sampled_ns.set(sampled_ns.get() + ns(end, Instant::now()));
            }
            evaluated
                .into_iter()
                .flat_map(|(results, _)| results)
                .collect()
        });
        let end = Instant::now();
        if let (Some(tracer), Some(id)) = (tracer, tracker_id) {
            let mut tracer = tracer.lock().expect("tracer lock poisoned");
            tracer.span(
                id,
                "analysis.fuzz",
                round_id.map(|r| (r, "round")),
                start,
                end,
            );
        }

        let calls = calls.into_inner();
        let seeded = calls.first().map_or(end, |c| c.end);
        out.setup_ns += ns(start, seeded);
        out.measured_ns += ns(seeded, end).saturating_sub(sampled_ns.get());
        let eval_ns: u64 = calls.iter().map(|c| ns(c.start, c.end)).sum();
        for c in calls.iter().skip(1) {
            out.search_patterns += c.patterns;
            out.call_ms.push(ns(c.start, c.end) as f64 / 1e6);
            out.tail_idle_ns += ns(c.start, c.end).saturating_sub(c.chunks_ns / THREADS as u64);
        }
        out.eval_ns += eval_ns;
        out.run_ns += ns(start, end).saturating_sub(sampled_ns.get());
        out.eval_ns_per_tracker.push((kind, eval_ns));
        out.evaluated += outcome.evaluated;
        out.proposed += outcome.evaluated + outcome.deduped;
        out.archived += outcome.archive_len as u64;
        for r in fuzzer.archive().values() {
            out.acts += r.report.activations;
            out.mitigations += r.report.mitigations;
        }
        digests.put_u64(fuzzer.archive_digest());
        out.archives
            .push((cfg, fuzzer.archive().values().cloned().collect()));
    }
    if let (Some(tracer), Some(id)) = (tracer, round_id) {
        let mut tracer = tracer.lock().expect("tracer lock poisoned");
        tracer.span(id, "round", None, round_start, Instant::now());
    }
    out.digest = digest64(digests.bytes());
    out
}

/// Output check: serial `AttackFuzzer::evaluate` must equal the lane result
/// of one archived genome in [`CHECK_EVERY`].
fn check(round: &Round, report: &mut Report) {
    let picked: Vec<(&FuzzConfig, &CandidateResult)> = round
        .archives
        .iter()
        .flat_map(|(cfg, archive)| archive.iter().step_by(CHECK_EVERY).map(move |r| (cfg, r)))
        .collect();
    let serial = par_map(&picked, THREADS, |(cfg, r)| {
        AttackFuzzer::evaluate(cfg, &r.pattern)
    });
    for ((cfg, lane), serial) in picked.iter().zip(serial) {
        report.check(serial == **lane, || {
            format!(
                "{}: serial evaluation of genome {:016x} differs from its lane result",
                cfg.tracker, lane.digest
            )
        });
    }
}

/// Runs rounds until the time budget is spent and fills `report`.
pub fn run(seed: u64, budget: &Budget, trace_dir: Option<&Path>, report: &mut Report) {
    let (mut setup_s, mut throughput, mut call_ms, mut tail_idle_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut first: Option<Round> = None;
    while budget.more(
        setup_s.len(),
        measured,
        stats::beyond(call_ms.len(), TAIL) >= MIN_BEYOND,
    ) {
        report.sample_host();
        let r = round(seed, setup_s.len(), report.host(), None);
        let measured_s = r.measured_ns as f64 / 1e9;
        measured += measured_s;
        setup_s.push(r.setup_ns as f64 / 1e9);
        throughput.push(r.search_patterns as f64 / measured_s);
        tail_idle_s.push(r.tail_idle_ns as f64 / 1e9);
        call_ms.extend_from_slice(&r.call_ms);
        report.succeeded(r.evaluated as usize);
        check(&r, report);
        if first.is_none() {
            first = Some(Round {
                archives: Vec::new(),
                ..r
            });
        }
    }
    report.sample_host();
    let first = first.expect("the budget runs at least one round");
    report.rounds(measured, &throughput);
    let (p50, p90) = report.timing("search generation evaluation ms", &call_ms);
    report.set("latency_ms_p50", p50);
    report.set("latency_ms_p90", p90);
    report.set("setup_s", stats::median(&setup_s));
    report.set("bench.tail_idle_s", stats::median(&tail_idle_s));
    report.info(format!(
        "output_digest {:#018x} (round 0 archives)",
        first.digest
    ));
    let ms = |ns: u64| ns as f64 / 1e6;
    report.set("analysis.eval_ms", ms(first.eval_ns));
    report.set(
        "analysis.search_self_ms",
        ms(first.run_ns.saturating_sub(first.eval_ns)),
    );
    report.set("analysis.patterns_evaluated", first.evaluated as f64);
    report.set(
        "analysis.archive_accept_ratio",
        first.archived as f64 / first.proposed.max(1) as f64,
    );
    report.set("dram.acts", first.acts as f64);
    report.set("dram.mitigations", first.mitigations as f64);
    if let Some(dir) = trace_dir {
        trace(seed, &first, dir, report);
    }
}

/// The traced run: round 0 again with a span per evaluation call and chunk,
/// right after round 0 again untraced as the baseline of the tracing
/// overhead. Both must rebuild round 0's archives; then the per-tracker
/// evaluation times, the store timings and the trace file.
fn trace(seed: u64, first: &Round, dir: &Path, report: &mut Report) {
    let untraced = round(seed, 0, report.host(), None);
    let tracer = Mutex::new(Tracer::default());
    let traced = round(seed, 0, report.host(), Some(&tracer));
    let tracer = tracer.into_inner().expect("tracer lock poisoned");
    report.check(
        traced.digest == first.digest && untraced.digest == first.digest,
        || "a repeat of fuzz round 0 built different archives; the trace is invalid".to_string(),
    );
    let overhead_pct = (traced.run_ns as f64 / untraced.run_ns.max(1) as f64 - 1.0) * 100.0;
    report.set("bench.trace_overhead_pct", overhead_pct);
    let per_tracker: Vec<(String, Json)> = traced
        .eval_ns_per_tracker
        .iter()
        .map(|(kind, ns)| {
            (
                format!("analysis.eval_ms.{kind}"),
                Json::Num(*ns as f64 / 1e6),
            )
        })
        .collect();
    for (name, ms) in &per_tracker {
        report.info(format!("{name} {}", ms.as_f64().unwrap_or(f64::NAN)));
    }
    store_timings(&traced, report);
    let header = vec![
        ("workload", Json::Str(NAME.into())),
        ("seed", Json::Num(seed as f64)),
        ("trace_overhead_pct", Json::Num(overhead_pct)),
        ("eval_ms_per_tracker", Json::Obj(per_tracker)),
    ];
    let written = tracer.write(dir, NAME, header);
    report.check(written.is_ok(), || {
        format!("cannot write the trace file: {written:?}")
    });
}

/// Times `FuzzStore` put and get on round 0's archived candidates, as
/// `attack_fuzz --store` persists them.
fn store_timings(round: &Round, report: &mut Report) {
    let root = crate::temp_dir("fuzz-store");
    let (mut put_us, mut get_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (cfg, archive) in &round.archives {
        let store = match FuzzStore::open(&root, cfg) {
            Ok(store) => store,
            Err(e) => {
                report.check(false, || {
                    format!("cannot open a fuzz store at {}: {e}", root.display())
                });
                continue;
            }
        };
        for r in archive {
            let t = Instant::now();
            let put = store.put(r);
            put_us.push(ns(t, Instant::now()) as f64 / 1e3);
            let t = Instant::now();
            let got = store.get(r.digest);
            get_us.push(ns(t, Instant::now()) as f64 / 1e3);
            report.check(put.is_ok() && got.as_ref() == Some(r), || {
                format!("fuzz store round trip of {:016x}", r.digest)
            });
            let path = store.store().fuzz_path(store.key_for(r.digest));
            bytes.push(std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
        }
    }
    report.store_timings(&put_us, &get_us, &bytes);
    let _ = std::fs::remove_dir_all(&root);
}

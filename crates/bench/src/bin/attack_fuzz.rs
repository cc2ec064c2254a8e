//! Attack-pattern fuzzer sweep: per-tracker minimum-activations-to-escape
//! curves for **every** registered tracker, with the OracleRH
//! strictly-hardest gate, lockstep lane evaluation, and an optional
//! persistent evaluation store.
//!
//! For each `autorfm::trackers::names()` entry this runs one
//! [`AttackFuzzer`] campaign (mutation + simulated annealing over the
//! [`AttackPattern`] genome space). Candidate evaluation fans out with
//! `par_map` over lane-sized chunks, each chunk running through a pooled
//! [`LaneEvaluator`]: persistent sims are reset per candidate instead of
//! rebuilt, and `--lanes` genomes advance in lockstep through one batched
//! dispatcher. Because each candidate's simulation seed is derived from its
//! genome digest, the sweep is bit-reproducible at any `--jobs` and any
//! `--lanes`.
//!
//! With `--store DIR`, every evaluation is also persisted as a sealed
//! `KIND_FUZZ` record in the shared cell store, keyed by
//! `(config, genome digest)`. A re-run over the same store (`--resume`
//! makes the intent explicit and requires `--store`) answers every stored
//! genome from disk — `sim_evaluated` drops to zero and the archive digest
//! is reproduced exactly.
//!
//! Per tracker the campaign yields an escape curve: for each watched damage
//! threshold, the fewest activations any archived candidate needed to push
//! the worst unmitigated damage past it. Curves collapse to a hardness
//! scalar `Σ_T min(crossing_T, budget+1)` — bigger means harder to escape.
//! The idealized OracleRH runs with an *eager* mitigation trigger, so its
//! hardness must be **strictly greater** than every real tracker's; the
//! binary exits nonzero otherwise, when some real tracker never escapes
//! even the lowest threshold, or when the MINT/PrIDE curves leave the
//! closed-form expectation band (run-of-successes
//! `E = (1-q^T)/((1-q)·q^T)`, `q = 1 - 1/W`): thresholds with `E` far
//! below the budget must be crossed within a small multiple of `E`, and
//! thresholds with `E` far above `budget × archive` must never be crossed.
//!
//! The last stdout line is a JSON record `{pr, patterns_per_sec, lanes,
//! sim_evaluated, store_hits, archive_digest, trackers, thresholds, curves,
//! hardness, oracle_escape_margin, fuzzer_beats_fixed}`; `scripts/verify.sh`
//! reads it to check that `--resume` re-simulates nothing.
//!
//! Usage: `attack_fuzz [--tracker NAME] [--jobs N] [--seed N]
//! [--activations N] [--generations N] [--population N] [--lanes N]
//! [--store DIR] [--resume] [--full]`
//! (unknown flags are rejected; harness env knobs like `AUTORFM_JOBS`
//! still apply underneath).

use autorfm::analysis::{
    AttackFuzzer, AttackPattern, CandidateResult, EvaluatorPool, FuzzConfig, FuzzStore, MintModel,
};
use autorfm::snapshot::{digest64, Writer};
use autorfm::telemetry::Json;
use autorfm::trackers::TrackerKind;
use autorfm_bench::{par_map, print_table, Harness, RunOpts};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A threshold is "must cross" when `slack × E` fits the budget this many
/// times over, and its crossing must lie within `slack × E`.
const BAND_SLACK: f64 = 16.0;
/// A threshold is "must never cross" when `E` exceeds the total simulated
/// activations (`budget × archive`) by this factor.
const UNREACHABLE_MARGIN: f64 = 64.0;

struct FuzzArgs {
    tracker: Option<TrackerKind>,
    jobs: usize,
    seed: u64,
    activations: u64,
    generations: u32,
    population: u32,
    lanes: usize,
    store: Option<PathBuf>,
    resume: bool,
}

fn parse_args() -> FuzzArgs {
    let env = RunOpts::from_env();
    let mut out = FuzzArgs {
        tracker: None,
        jobs: env.jobs,
        seed: 9,
        activations: 30_000,
        generations: 6,
        population: 24,
        lanes: 8,
        store: None,
        resume: false,
    };
    let usage = "usage: attack_fuzz [--tracker NAME] [--jobs N] [--seed N] \
                 [--activations N] [--generations N] [--population N] \
                 [--lanes N] [--store DIR] [--resume] [--full]";
    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value\n{usage}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tracker" => {
                let name = next_val(&mut args, "--tracker");
                out.tracker = Some(name.parse().unwrap_or_else(|e| panic!("{e}")));
            }
            "--jobs" => {
                out.jobs = next_val(&mut args, "--jobs")
                    .parse()
                    .expect("--jobs needs an integer");
            }
            "--seed" => {
                out.seed = next_val(&mut args, "--seed")
                    .parse()
                    .expect("--seed needs an integer");
            }
            "--activations" => {
                out.activations = next_val(&mut args, "--activations")
                    .parse()
                    .expect("--activations needs an integer");
            }
            "--generations" => {
                out.generations = next_val(&mut args, "--generations")
                    .parse()
                    .expect("--generations needs an integer");
            }
            "--population" => {
                out.population = next_val(&mut args, "--population")
                    .parse()
                    .expect("--population needs an integer");
            }
            "--lanes" => {
                out.lanes = next_val(&mut args, "--lanes")
                    .parse()
                    .expect("--lanes needs an integer");
                assert!(out.lanes >= 1, "--lanes must be at least 1");
            }
            "--store" => {
                out.store = Some(PathBuf::from(next_val(&mut args, "--store")));
            }
            "--resume" => out.resume = true,
            "--full" => {
                out.activations = 120_000;
                out.generations = 12;
                out.population = 48;
            }
            other => panic!("unknown argument {other:?}\n{usage}"),
        }
    }
    assert!(
        !out.resume || out.store.is_some(),
        "--resume needs --store DIR (nothing to resume from)\n{usage}"
    );
    out
}

/// Store-aware batched evaluator: answers stored genomes from `store`,
/// simulates the misses through pooled lane evaluators (`jobs`-way over
/// lane-sized chunks), persists fresh results, and returns everything in
/// batch order.
fn evaluate_batch(
    pool: &EvaluatorPool,
    store: Option<&FuzzStore>,
    jobs: usize,
    batch: &[AttackPattern],
    sim_evaluated: &AtomicU64,
    store_hits: &AtomicU64,
) -> Vec<CandidateResult> {
    let mut slots: Vec<Option<CandidateResult>> = vec![None; batch.len()];
    let mut misses: Vec<(usize, AttackPattern)> = Vec::new();
    for (i, p) in batch.iter().enumerate() {
        match store.and_then(|s| s.get(p.digest())) {
            Some(hit) => {
                store_hits.fetch_add(1, Ordering::Relaxed);
                slots[i] = Some(hit);
            }
            None => misses.push((i, p.clone())),
        }
    }
    if !misses.is_empty() {
        sim_evaluated.fetch_add(misses.len() as u64, Ordering::Relaxed);
        let patterns: Vec<AttackPattern> = misses.iter().map(|(_, p)| p.clone()).collect();
        let chunks: Vec<&[AttackPattern]> = patterns.chunks(pool.lanes()).collect();
        let fresh: Vec<CandidateResult> = par_map(&chunks, jobs, |chunk| pool.evaluate(chunk))
            .into_iter()
            .flatten()
            .collect();
        debug_assert_eq!(fresh.len(), misses.len());
        for ((i, _), r) in misses.iter().zip(fresh) {
            if let Some(s) = store {
                s.put(&r).expect("fuzz store write failed");
            }
            slots[*i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every batch slot filled"))
        .collect()
}

/// Closed-form gate: MINT (fractal) and PrIDE sample each activation with
/// probability `1/W`, so the expected activations to a first `T`-damage
/// escape follow the run-of-successes closed form. Checks each watched
/// threshold of `outcome` against the band and appends violations.
fn escape_band_violations(
    kind: TrackerKind,
    window: u32,
    budget: u64,
    thresholds: &[u64],
    curve: &[Option<u64>],
    archive_len: usize,
    violations: &mut Vec<String>,
) {
    let model = MintModel::rfm(window, false);
    let total_sim_acts = budget as f64 * archive_len.max(1) as f64;
    for (&t, &crossing) in thresholds.iter().zip(curve) {
        let e = model.expected_first_escape_acts(t as f64);
        if e * BAND_SLACK <= budget as f64 / 2.0 || e * 4.0 <= budget as f64 {
            // Comfortably reachable within one candidate's budget.
            match crossing {
                None => violations.push(format!(
                    "{kind} T={t}: expected escape within ~{e:.0} acts \
                     (budget {budget}), but no candidate crossed"
                )),
                Some(a) => {
                    let hi = (e * BAND_SLACK).min(budget as f64);
                    if (a as f64) < t as f64 || a as f64 > hi {
                        violations.push(format!(
                            "{kind} T={t}: crossing {a} outside closed-form band \
                             [{t}, {hi:.0}] (E={e:.0})"
                        ));
                    }
                }
            }
        } else if e >= total_sim_acts * UNREACHABLE_MARGIN {
            // Far beyond everything the whole archive simulated.
            if let Some(a) = crossing {
                violations.push(format!(
                    "{kind} T={t}: crossed at {a} but closed form expects \
                     ~{e:.0} acts ≫ {total_sim_acts:.0} total simulated"
                ));
            }
        }
        // In-between thresholds are borderline: no gate either way.
    }
}

fn main() {
    let args = parse_args();
    let opts = RunOpts::from_env();
    let mut harness = Harness::new(&opts);
    println!("=== Attack fuzzer: min activations to escape, per registered tracker ===\n");

    let kinds: Vec<TrackerKind> = match args.tracker {
        Some(t) => vec![t],
        None => TrackerKind::ALL.to_vec(),
    };
    let budget = args.activations;
    let sim_evaluated = AtomicU64::new(0);
    let store_hits = AtomicU64::new(0);
    let start = std::time::Instant::now();

    let mut outcomes = Vec::new();
    let mut archive_digests = Vec::new();
    for &kind in &kinds {
        let cfg = FuzzConfig {
            activations: args.activations,
            generations: args.generations,
            population: args.population,
            seed: args.seed,
            ..FuzzConfig::smoke(kind)
        };
        let mut fuzzer = AttackFuzzer::new(cfg);
        let cfg = fuzzer.cfg().clone();
        let store = args
            .store
            .as_deref()
            .map(|root| FuzzStore::open(root, &cfg).expect("cannot open fuzz store"));
        let pool = EvaluatorPool::new(cfg.clone(), args.lanes);
        let jobs = args.jobs;
        let outcome = fuzzer.run(|batch: &[AttackPattern]| {
            evaluate_batch(
                &pool,
                store.as_ref(),
                jobs,
                batch,
                &sim_evaluated,
                &store_hits,
            )
        });
        archive_digests.push(fuzzer.archive_digest());
        outcomes.push(outcome);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let evaluated: u64 = outcomes.iter().map(|o| o.evaluated).sum();
    let patterns_per_sec = evaluated as f64 / elapsed.max(1e-9);
    // One scalar over the whole sweep: digest of the per-tracker archive
    // digests in registry order. Equal ⇒ every archive bitwise-identical.
    let archive_digest = {
        let mut w = Writer::new();
        for d in &archive_digests {
            w.put_u64(*d);
        }
        digest64(w.bytes())
    };

    // Curves collapse to a hardness scalar: sum over thresholds of the
    // crossing point, with "never escaped" charged as budget+1.
    let hardness: Vec<u64> = outcomes
        .iter()
        .map(|o| o.curve.iter().map(|c| c.unwrap_or(budget + 1)).sum())
        .collect();

    let thresholds = outcomes[0].thresholds.clone();
    let mut headers: Vec<String> = vec!["tracker".into()];
    headers.extend(thresholds.iter().map(|t| format!("T={t}")));
    headers.push("hardness".into());
    headers.push("best/fixed".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (o, h) in outcomes.iter().zip(&hardness) {
        let mut row = vec![o.tracker.to_string()];
        row.extend(
            o.curve
                .iter()
                .map(|c| c.map_or_else(|| "-".into(), |a| a.to_string())),
        );
        row.push(h.to_string());
        row.push(format!("{}/{}", o.best.score(), o.best_fixed.score()));
        rows.push(row);
    }
    print_table(&header_refs, &rows);
    let hits = store_hits.load(Ordering::Relaxed);
    let simulated = sim_evaluated.load(Ordering::Relaxed);
    println!(
        "\n{evaluated} patterns evaluated in {elapsed:.2}s ({patterns_per_sec:.1}/s); \
         {simulated} simulated, {hits} answered from the store; \
         '-' = never escaped within the {budget}-activation budget"
    );

    // Gates: the eager oracle must be strictly hardest to escape, and every
    // real tracker's curve must carry signal (escape at the lowest
    // threshold). Both are skipped under `--tracker` (single-kind runs have
    // no cross-tracker ordering to check).
    let mut violations = Vec::new();
    let mut oracle_escape_margin = f64::NAN;
    if args.tracker.is_none() {
        let oracle_idx = kinds
            .iter()
            .position(|k| k.info().flags.oracle)
            .expect("registry has an oracle baseline");
        let oracle_hardness = hardness[oracle_idx];
        let mut max_real = 0u64;
        for (i, &kind) in kinds.iter().enumerate() {
            if i == oracle_idx {
                continue;
            }
            max_real = max_real.max(hardness[i]);
            if hardness[i] >= oracle_hardness {
                violations.push(format!(
                    "{kind} hardness {} >= oracle {}",
                    hardness[i], oracle_hardness
                ));
            }
            if outcomes[i].curve[0].is_none() {
                violations.push(format!(
                    "{kind} never escaped the lowest threshold T={} (no curve signal)",
                    thresholds[0]
                ));
            }
        }
        oracle_escape_margin = oracle_hardness as f64 / max_real.max(1) as f64;
        println!(
            "oracle hardness {oracle_hardness}; hardest real tracker {max_real}; \
             margin {oracle_escape_margin:.3}x"
        );
    }

    // Quantitative escape-curve gate: the memoryless 1/W samplers must land
    // inside the run-of-successes expectation band (runs whenever the kind
    // is present, including under `--tracker mint`/`--tracker pride`).
    for o in &outcomes {
        if matches!(o.tracker, TrackerKind::Mint | TrackerKind::Pride) {
            escape_band_violations(
                o.tracker,
                4, // FuzzConfig::smoke window — the sweep always runs W=4.
                budget,
                &o.thresholds,
                &o.curve,
                o.archive_len,
                &mut violations,
            );
        }
    }

    let fuzzer_beats_fixed = outcomes
        .iter()
        .filter(|o| o.best.score() >= o.best_fixed.score())
        .count();
    let strictly_better = outcomes
        .iter()
        .filter(|o| o.best.score() > o.best_fixed.score())
        .count();
    println!(
        "fuzzer matched-or-beat the best fixed shape on {fuzzer_beats_fixed}/{} trackers \
         ({strictly_better} strictly better)",
        outcomes.len()
    );

    for (o, h) in outcomes.iter().zip(&hardness) {
        let tracker = o.tracker.to_string();
        harness.gauge("fuzz_hardness", &[("tracker", &tracker)], *h as f64);
        harness.gauge(
            "fuzz_best_damage",
            &[("tracker", &tracker)],
            o.best.score() as f64,
        );
    }
    harness.gauge("fuzz_patterns_per_sec", &[], patterns_per_sec);
    harness.gauge("fuzz_store_hits", &[], hits as f64);
    harness.finish();

    let curves = Json::Obj(
        outcomes
            .iter()
            .map(|o| {
                (
                    o.tracker.to_string(),
                    Json::Arr(
                        o.curve
                            .iter()
                            .map(|c| c.map_or(Json::Null, |a| Json::Num(a as f64)))
                            .collect(),
                    ),
                )
            })
            .collect(),
    );
    let hardness_obj = Json::Obj(
        kinds
            .iter()
            .zip(&hardness)
            .map(|(k, h)| (k.to_string(), Json::Num(*h as f64)))
            .collect(),
    );
    let record = Json::obj(vec![
        ("pr", Json::Num(10.0)),
        ("patterns_per_sec", Json::Num(patterns_per_sec)),
        ("lanes", Json::Num(args.lanes as f64)),
        ("sim_evaluated", Json::Num(simulated as f64)),
        ("store_hits", Json::Num(hits as f64)),
        (
            "archive_digest",
            Json::Str(format!("{archive_digest:016x}")),
        ),
        (
            "trackers",
            Json::Arr(kinds.iter().map(|k| Json::Str(k.to_string())).collect()),
        ),
        (
            "thresholds",
            Json::Arr(thresholds.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("curves", curves),
        ("hardness", hardness_obj),
        ("oracle_escape_margin", Json::Num(oracle_escape_margin)),
        ("fuzzer_beats_fixed", Json::Num(fuzzer_beats_fixed as f64)),
    ]);
    println!("{}", record.to_compact());

    if !violations.is_empty() {
        eprintln!("attack_fuzz: escape-curve gate FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(2);
    }
}

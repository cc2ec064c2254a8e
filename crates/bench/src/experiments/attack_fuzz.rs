//! Attack fuzzer: per-tracker minimum-activations-to-escape curves for
//! **every** registered tracker, with the OracleRH strictly-hardest gate and
//! the MINT/PrIDE closed-form band. Not a paper figure: it probes the
//! paper's claim (Sections IV–V) that low-cost trackers with Fractal
//! Mitigation hold up against adaptive patterns, not only fixed shapes.
//!
//! For each `autorfm::trackers::names()` entry (or the one `--tracker`
//! names) this runs one [`AttackFuzzer`] campaign (mutation + simulated
//! annealing over the [`AttackPattern`] genome space). Candidate evaluation
//! fans out with `par_map` over chunks of `LANES` (8) genomes, each chunk
//! running through a pooled [`EvaluatorPool`] evaluator. Because each
//! candidate's simulation seed is derived from its genome digest, the
//! report is bit-reproducible at any `--jobs`.
//!
//! The search budget follows the run's fidelity. With `s =
//! max(instructions / 100_000, 0.25)`, each candidate gets `30_000·s`
//! activations, over `round(6·√s)` generations of `round(24·√s)`
//! candidates: 30,000 / 6 / 24 by default, 7,500 / 3 / 12 under `--quick`
//! and 120,000 / 12 / 48 under `--full`. The seed is
//! [`FuzzConfig::smoke`]'s.
//!
//! With a cell store (`--store DIR`, or `run_all`'s `results/store`), every
//! evaluation is also persisted as a sealed `KIND_FUZZ` record keyed by
//! `(config, genome digest)`, next to the simulation cells. A rerun with the
//! same budget over the same store answers every stored genome from disk.
//!
//! Per tracker the campaign yields an escape curve: for each watched damage
//! threshold, the fewest activations any archived candidate needed to push
//! the worst unmitigated damage past it. Curves collapse to a hardness
//! scalar `Σ_T min(crossing_T, budget+1)`; bigger means harder to escape.
//! After the report is written, the target panics if:
//!
//! * the idealized OracleRH, which runs with an *eager* mitigation trigger,
//!   is not strictly harder to escape than every real tracker;
//! * some real tracker never escapes even the lowest threshold;
//! * the MINT/PrIDE curves leave the closed-form expectation band
//!   (run-of-successes `E = (1-q^T)/((1-q)·q^T)`, `q = 1 - 1/W`):
//!   thresholds with `E` far below the budget must be crossed within a
//!   small multiple of `E`, and thresholds with `E` far above
//!   `budget × archive` must never be crossed.
//!
//! The first two are cross-tracker gates, skipped under `--tracker`. The
//! report holds nothing that depends on timing or on the store; the
//! manifest's gauges carry `patterns_per_sec`, `sim_evaluated`,
//! `store_hits`, each tracker's `hardness` and `crossing`s (a threshold it
//! never escaped has none), `oracle_escape_margin` and
//! `fuzzer_beats_fixed`.

use super::Ctx;
use crate::{par_map, render_table};
use autorfm::analysis::{
    AttackFuzzer, AttackPattern, CandidateResult, EvaluatorPool, FuzzConfig, FuzzStore, MintModel,
};
use autorfm::snapshot::{digest64, Writer};
use autorfm::trackers::TrackerKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A threshold is "must cross" when `slack × E` fits the budget this many
/// times over, and its crossing must lie within `slack × E`.
const BAND_SLACK: f64 = 16.0;
/// A threshold is "must never cross" when `E` exceeds the total simulated
/// activations (`budget × archive`) by this factor.
const UNREACHABLE_MARGIN: f64 = 64.0;
/// Genomes per evaluation chunk handed to one pooled evaluator.
const LANES: usize = 8;

/// The campaign for `tracker` at `instructions` per core: the smoke config
/// with its search budget scaled by the run's fidelity (see the module doc).
fn fuzz_config(tracker: TrackerKind, instructions: u64) -> FuzzConfig {
    let s = (instructions as f64 / 100_000.0).max(0.25);
    FuzzConfig {
        activations: (30_000.0 * s).round() as u64,
        generations: (6.0 * s.sqrt()).round() as u32,
        population: (24.0 * s.sqrt()).round() as u32,
        ..FuzzConfig::smoke(tracker)
    }
}

/// Store-aware batched evaluator: answers stored genomes from `store`,
/// simulates the misses through pooled evaluators (`jobs`-way over
/// `LANES`-sized chunks), persists fresh results, and returns everything in
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
/// threshold of `curve` against the band and appends violations.
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

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.println("=== Attack fuzzer: min activations to escape, per registered tracker ===\n");

    let kinds: Vec<TrackerKind> = match opts.tracker {
        Some(t) => vec![t],
        None => TrackerKind::ALL.to_vec(),
    };
    let sim_evaluated = AtomicU64::new(0);
    let store_hits = AtomicU64::new(0);
    let start = Instant::now();

    let mut outcomes = Vec::new();
    // One scalar over the whole sweep: digest of the per-tracker archive
    // digests in registry order. Equal ⇒ every archive bitwise-identical.
    let mut archive_digests = Writer::new();
    for &kind in &kinds {
        let mut fuzzer = AttackFuzzer::new(fuzz_config(kind, opts.instructions));
        let cfg = fuzzer.cfg().clone();
        let store = opts
            .store
            .as_deref()
            .map(|root| FuzzStore::open(root, &cfg).expect("cannot open fuzz store"));
        let pool = EvaluatorPool::new(cfg, LANES);
        let outcome = fuzzer.run(|batch: &[AttackPattern]| {
            evaluate_batch(
                &pool,
                store.as_ref(),
                opts.jobs,
                batch,
                &sim_evaluated,
                &store_hits,
            )
        });
        archive_digests.put_u64(fuzzer.archive_digest());
        outcomes.push(outcome);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let evaluated: u64 = outcomes.iter().map(|o| o.evaluated).sum();
    let budget = fuzz_config(kinds[0], opts.instructions).activations;

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
    ctx.print(render_table(&header_refs, &rows));
    ctx.println(format!(
        "\n{evaluated} patterns evaluated; \
         '-' = never escaped within the {budget}-activation budget"
    ));

    // Gates: the eager oracle must be strictly hardest to escape, and every
    // real tracker's curve must carry signal (escape at the lowest
    // threshold). Both are skipped under `--tracker` (single-kind runs have
    // no cross-tracker ordering to check).
    let mut violations = Vec::new();
    if opts.tracker.is_none() {
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
        let margin = oracle_hardness as f64 / max_real.max(1) as f64;
        ctx.println(format!(
            "oracle hardness {oracle_hardness}; hardest real tracker {max_real}; \
             margin {margin:.3}x"
        ));
        ctx.gauge("oracle_escape_margin", &[], margin);
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
    ctx.println(format!(
        "fuzzer matched-or-beat the best fixed shape on {fuzzer_beats_fixed}/{} trackers \
         ({strictly_better} strictly better)",
        outcomes.len()
    ));
    ctx.println(format!(
        "archive digest {:016x}",
        digest64(archive_digests.bytes())
    ));

    ctx.gauge(
        "patterns_per_sec",
        &[],
        evaluated as f64 / elapsed.max(1e-9),
    );
    let sim_evaluated = sim_evaluated.load(Ordering::Relaxed) as f64;
    ctx.gauge("sim_evaluated", &[], sim_evaluated);
    ctx.gauge("store_hits", &[], store_hits.load(Ordering::Relaxed) as f64);
    ctx.gauge("fuzzer_beats_fixed", &[], fuzzer_beats_fixed as f64);
    for (o, &h) in outcomes.iter().zip(&hardness) {
        let tracker = o.tracker.to_string();
        ctx.gauge("hardness", &[("tracker", &tracker)], h as f64);
        for (t, crossing) in o.thresholds.iter().zip(&o.curve) {
            if let Some(a) = crossing {
                let t = t.to_string();
                let labels = [("tracker", tracker.as_str()), ("threshold", t.as_str())];
                ctx.gauge("crossing", &labels, *a as f64);
            }
        }
    }

    assert!(
        violations.is_empty(),
        "escape-curve gate: {}",
        violations.join("; ")
    );
}

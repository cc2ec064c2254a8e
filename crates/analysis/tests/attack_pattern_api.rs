//! Integration tests for the attack-pattern API and the fuzzer:
//!
//! * genome codec round-trips (proptest over [`DetRng`]-generated genomes,
//!   mirroring the wake-cache harness: the vendored proptest shim has no
//!   collection strategies, so genomes are drawn from a proptest-drawn seed),
//! * fuzzer determinism across evaluator thread counts (the acceptance
//!   criterion behind `attack_fuzz --jobs N`),
//! * cursor replay driving [`AttackSim`] bitwise-identically whether a genome
//!   runs in one call, in chunks, or one [`AttackPattern::row_at`] at a time,
//! * exactly-once dedup in the survivor archive.

use autorfm_analysis::{
    archive_digest, AttackFuzzer, AttackPattern, AttackSim, EvaluatorPool, FuzzConfig, FuzzStore,
    LaneEvaluator, PatternCursor,
};
use autorfm_mitigation::MitigationKind;
use autorfm_sim_core::{DetRng, RowAddr};
use autorfm_trackers::TrackerKind;
use proptest::prelude::*;

/// A pseudo-random (sanitized, hence valid) genome drawn from `seed`.
fn random_pattern(seed: u64) -> AttackPattern {
    let mut rng = DetRng::seeded(seed);
    let n_off = 1 + rng.gen_range(12) as usize;
    let offsets: Vec<i16> = (0..n_off)
        .map(|_| rng.gen_range(1024) as i16 - 512)
        .collect();
    let n_sched = 1 + rng.gen_range(48) as usize;
    let schedule: Vec<u16> = (0..n_sched)
        .map(|_| rng.gen_range(n_off as u64 * 2) as u16)
        .collect();
    let mut p = AttackPattern {
        base: RowAddr(rng.gen_range(1 << 20) as u32),
        offsets,
        schedule,
        phase: rng.gen_range(128) as u16,
        decoy_every: rng.gen_range(16) as u16,
        decoys: rng.gen_range(6) as u8,
    };
    p.sanitize(131_072);
    p
}

proptest! {
    /// Encode → decode is the identity, and the digest is a pure function
    /// of the genome (stable across re-encodings).
    #[test]
    fn codec_round_trips(seed in 0u64..1_000_000) {
        let p = random_pattern(seed);
        let bytes = p.to_bytes();
        let back = AttackPattern::from_bytes(&bytes).expect("self-encoded genome decodes");
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(back.digest(), p.digest());
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Truncated encodings never decode (no partial genomes in the archive).
    #[test]
    fn truncated_encodings_rejected(seed in 0u64..1_000_000) {
        let bytes = random_pattern(seed).to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(AttackPattern::from_bytes(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// A genome replayed through the tracker sim gives one deterministic
    /// report per (genome, seed) — the property per-candidate evaluation
    /// relies on.
    #[test]
    fn replay_is_deterministic(seed in 0u64..100_000) {
        let p = random_pattern(seed);
        let run = |p: &AttackPattern| {
            let mut sim = AttackSim::new(
                TrackerKind::Mint,
                MitigationKind::Fractal,
                4,
                131_072,
                seed ^ 0xDEAD,
            )
            .expect("valid config");
            sim.run_pattern(&mut PatternCursor::new(p.clone()), 2_000)
        };
        prop_assert_eq!(run(&p), run(&p));
    }
}

/// Every named shape drives `AttackSim` to one bitwise-identical report
/// however its cursor is consumed: a single `run_pattern` call, uneven
/// chunks over one cursor, or a manual
/// `activate(row_at(i))` loop.
#[test]
fn cursor_replay_is_chunking_invariant() {
    let shapes = [
        AttackPattern::single(RowAddr(25_000)),
        AttackPattern::double_sided(RowAddr(20_000)),
        AttackPattern::circular(RowAddr(10_000), 4),
        AttackPattern::circular(RowAddr(10_000), 8),
        AttackPattern::half_double(RowAddr(40_000), 2),
        AttackPattern::decoy(RowAddr(30_000), 3),
    ];
    let sim = || {
        AttackSim::new(TrackerKind::Mint, MitigationKind::Fractal, 4, 131_072, 77)
            .expect("valid config")
    };
    for shape in shapes {
        let whole = sim().run_pattern(&mut PatternCursor::new(shape.clone()), 50_000);

        let mut chunked_sim = sim();
        let mut cursor = PatternCursor::new(shape.clone());
        for n in [1, 4_095, 20_000, 25_904] {
            chunked_sim.run_pattern(&mut cursor, n);
        }
        assert_eq!(
            chunked_sim.report(),
            whole,
            "{shape:?}: chunked replay diverged"
        );

        let mut manual = sim();
        for i in 0..50_000 {
            manual.activate(shape.row_at(i));
        }
        assert_eq!(manual.report(), whole, "{shape:?}: row_at replay diverged");
    }
}

/// A tiny stand-in for the bench harness's `par_map`: scoped threads pull
/// items through an atomic index and write results back in input order.
fn threaded_eval(
    cfg: &FuzzConfig,
    threads: usize,
) -> impl Fn(&[AttackPattern]) -> Vec<autorfm_analysis::CandidateResult> + '_ {
    move |batch| {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<_>>> = batch.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = batch.get(i) else { break };
                    *slots[i].lock().unwrap() = Some(AttackFuzzer::evaluate(cfg, p));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().unwrap())
            .collect()
    }
}

fn small_cfg(tracker: TrackerKind) -> FuzzConfig {
    FuzzConfig {
        activations: 3_000,
        generations: 3,
        population: 8,
        ..FuzzConfig::smoke(tracker)
    }
}

/// Same config + seed → identical fuzz outcome whether candidates are
/// evaluated serially or on 2/7 worker threads (order-preserving map).
#[test]
fn fuzzer_outcome_independent_of_thread_count() {
    let cfg = small_cfg(TrackerKind::Hydra);
    let serial = AttackFuzzer::new(cfg.clone()).run(|batch| {
        batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect()
    });
    for threads in [2, 7] {
        let threaded = AttackFuzzer::new(cfg.clone()).run(threaded_eval(&cfg, threads));
        assert_eq!(
            serial, threaded,
            "{threads}-thread run diverged from serial"
        );
    }
}

/// Resubmitting archived genomes — directly or via a rerun over the same
/// seed population — is counted as dedup, never re-evaluated.
#[test]
fn archive_dedups_resubmitted_genomes_exactly_once() {
    let cfg = small_cfg(TrackerKind::NaiveTrr);
    let mut fuzzer = AttackFuzzer::new(cfg.clone());
    let outcome = fuzzer.run(|batch| {
        batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect()
    });
    assert_eq!(outcome.archive_len as u64, outcome.evaluated);

    // Direct resubmission of every archived candidate: all dedup hits.
    let archived: Vec<_> = fuzzer.archive().values().cloned().collect();
    for r in archived {
        assert!(!fuzzer.submit(r), "archived genome re-admitted");
    }
    assert_eq!(fuzzer.archive().len(), outcome.archive_len);

    // Every proposal is accounted for exactly once: either it was fresh and
    // evaluated, or its digest was already seen and it became a dedup hit.
    let proposals = AttackFuzzer::seed_patterns(&cfg).len() as u64
        + u64::from(cfg.generations * cfg.population);
    assert_eq!(outcome.evaluated + outcome.deduped, proposals);

    // The evaluator only ever sees fresh genomes: re-running with a counting
    // evaluator shows each simulated candidate was simulated exactly once.
    let evaluated = std::cell::Cell::new(0u64);
    let rerun = AttackFuzzer::new(cfg.clone()).run(|batch: &[AttackPattern]| {
        evaluated.set(evaluated.get() + batch.len() as u64);
        batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect()
    });
    assert_eq!(evaluated.get(), rerun.evaluated);
    assert_eq!(rerun.archive_len as u64, rerun.evaluated);
}

/// Evaluator purity across the whole tracker zoo: for **every** registered
/// tracker, a reused [`LaneEvaluator`] — one sim reset per candidate, across
/// batches — matches the serial per-candidate evaluator bitwise.
#[test]
fn lane_evaluator_pure_for_every_tracker() {
    for kind in TrackerKind::ALL {
        let cfg = FuzzConfig {
            activations: 2_000,
            ..small_cfg(kind)
        };
        let batch: Vec<AttackPattern> = AttackFuzzer::seed_patterns(&cfg)
            .into_iter()
            .chain((0..6).map(|i| random_pattern(0x1A2E + i)))
            .collect();
        let serial: Vec<_> = batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect();
        let mut ev = LaneEvaluator::new(cfg.clone());
        assert_eq!(
            ev.evaluate_batch(&batch),
            serial,
            "{kind}: evaluator diverged from serial"
        );
        // Reuse after a full batch must not leak state into the next.
        assert_eq!(
            ev.evaluate_batch(&batch),
            serial,
            "{kind}: reused evaluator diverged"
        );
    }
}

/// The full fuzz campaign produces one archive digest no matter how the
/// evaluation is executed: a fresh sim per candidate, pooled evaluators
/// over chunks of any width, a threaded driver, or replayed from a
/// populated [`FuzzStore`] with zero fresh simulations.
#[test]
fn archive_digest_identical_across_lanes_threads_and_store_replay() {
    let cfg = small_cfg(TrackerKind::Mint);

    let digest_of = |eval: &dyn Fn(&[AttackPattern]) -> Vec<autorfm_analysis::CandidateResult>| {
        let mut fuzzer = AttackFuzzer::new(cfg.clone());
        let outcome = fuzzer.run(|batch| eval(batch));
        (fuzzer.archive_digest(), outcome)
    };

    // Reference: a freshly built sim per candidate.
    let (want, want_outcome) = digest_of(&|batch| {
        batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect()
    });

    // Pooled evaluators over chunks of several widths.
    for lanes in [1, 4, 16] {
        let pool = EvaluatorPool::new(cfg.clone(), lanes);
        let (got, outcome) = digest_of(&|batch| {
            batch
                .chunks(pool.lanes())
                .flat_map(|chunk| pool.evaluate(chunk))
                .collect()
        });
        assert_eq!(got, want, "{lanes}-wide archive digest diverged");
        assert_eq!(outcome, want_outcome, "{lanes}-wide outcome diverged");
    }

    // Pooled lanes under a 3-thread driver, persisting into a store...
    let dir = std::env::temp_dir().join(format!("autorfm-lane-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FuzzStore::open(&dir, &cfg).unwrap();
    let pool = EvaluatorPool::new(cfg.clone(), 4);
    let threaded = threaded_eval(&cfg, 3);
    let (got, outcome) = digest_of(&|batch| {
        let results = threaded(batch);
        for r in &results {
            store.put(r).unwrap();
        }
        let _ = pool; // pool exercised above; store capture is the point here
        results
    });
    assert_eq!(got, want, "threaded+store archive digest diverged");
    assert_eq!(outcome, want_outcome);

    // ...then replayed purely from the store: zero fresh simulations, same
    // digest, bitwise-equal archive contents.
    let replayed = std::cell::Cell::new(0u64);
    let (got, outcome) = digest_of(&|batch| {
        batch
            .iter()
            .map(|p| {
                store.get(p.digest()).unwrap_or_else(|| {
                    replayed.set(replayed.get() + 1);
                    AttackFuzzer::evaluate(&cfg, p)
                })
            })
            .collect()
    });
    assert_eq!(replayed.get(), 0, "warm store must answer every genome");
    assert_eq!(got, want, "store-replayed archive digest diverged");
    assert_eq!(outcome, want_outcome);

    // Sanity: the digest helper itself agrees with the fuzzer's archive.
    let mut fuzzer = AttackFuzzer::new(cfg.clone());
    fuzzer.run(|batch| {
        batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect()
    });
    assert_eq!(
        archive_digest(fuzzer.archive().values()),
        fuzzer.archive_digest()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

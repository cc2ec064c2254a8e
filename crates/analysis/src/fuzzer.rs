//! The attack-pattern fuzzer: mutation + simulated-annealing search over the
//! [`AttackPattern`] genome space against the stripped
//! tracker-only [`AttackSim`] fast path.
//!
//! # Search loop
//!
//! Generation 0 evaluates the classic fixed shapes (circular, wide circular,
//! double-sided, Half-Double, decoy, single-sided) expressed as genomes —
//! the fuzzer can therefore never report a champion weaker than the best
//! known shape. Each subsequent generation proposes `population` mutants of
//! the annealer's current genome, evaluates the fresh ones (batch-parallel
//! via a caller-supplied map, e.g. the bench harness's `par_map`), and then
//! applies Metropolis acceptance: the generation's champion replaces the
//! current genome if it scored at least as much damage, or with probability
//! `exp(Δ/T)` otherwise, with `T` decaying geometrically per generation.
//!
//! # Determinism
//!
//! Candidate *generation* and annealing *acceptance* consume only the
//! fuzzer's own mutation RNG, serially. Candidate *evaluation* is pure: the
//! simulation seed is a [`DetRng`] fork keyed by the candidate's content
//! digest, so a genome's score is a function of `(config, genome)` alone —
//! independent of thread count, batch composition, or discovery order. The
//! caller-supplied evaluator must preserve input order (as `par_map` does);
//! with that, a fuzz run is bit-reproducible at any `--jobs`.
//!
//! # Survivor archive
//!
//! Every evaluated candidate lands in an archive keyed by its pattern
//! digest (`digest64` of the canonical encoding), the same way campaign
//! cells are keyed by `SimConfig::key`: resubmitting a genome — within a batch,
//! across generations, or across restarts fed from a serialized archive —
//! is a dedup hit, never a re-evaluation. The archive is also what the
//! escape curve is computed from: for each watched threshold, the minimum
//! activation count at which *any* archived candidate pushed the worst
//! damage past it.

use crate::montecarlo::{AttackReport, AttackSim};
use crate::pattern::{AttackPattern, PatternCursor, MAX_OFFSETS, MAX_SCHEDULE};
use autorfm_mitigation::MitigationKind;
use autorfm_sim_core::{DetRng, RowAddr};
use autorfm_trackers::{build_tracker, OracleRh, Tracker, TrackerKind};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Initial annealing temperature, in damage units.
const INITIAL_TEMPERATURE: f64 = 8.0;
/// Geometric cooling factor applied after every generation.
const COOLING: f64 = 0.85;
/// Mutation offsets stay within this many rows of the anchor.
const MAX_REACH: i16 = 512;

/// Configuration of one fuzz campaign (one tracker + policy stack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Tracker under attack.
    pub tracker: TrackerKind,
    /// Mitigation policy paired with it.
    pub policy: MitigationKind,
    /// Mitigation window (one mitigation per `window` activations).
    pub window: u32,
    /// Bank size in rows.
    pub rows_per_bank: u32,
    /// Activation budget per candidate evaluation.
    pub activations: u64,
    /// Search generations after the seeded generation 0.
    pub generations: u32,
    /// Candidates proposed per generation.
    pub population: u32,
    /// Master seed: mutation stream + per-candidate evaluation forks.
    pub seed: u64,
    /// Escape thresholds to watch (damage units; sorted + deduped by
    /// [`AttackFuzzer::new`]). Compare against `T = 2 × TRH-D`.
    pub thresholds: Vec<u64>,
    /// Overrides the OracleRH mitigation trigger when `tracker` is the
    /// oracle kind. Security sweeps want an *eager* oracle (small trigger):
    /// with perfect knowledge and a tight trigger the idealized defender
    /// bounds achievable damage below every real tracker, making it the
    /// strictly-hardest-to-escape lower bound of the curve family.
    pub oracle_mitigate_at: Option<u32>,
}

impl FuzzConfig {
    /// A smoke-scale config for `tracker` at the paper's default window 4:
    /// 30k activations per candidate, 6 generations of 24, thresholds
    /// spanning weak-to-strong escapes, eager oracle trigger 4.
    pub fn smoke(tracker: TrackerKind) -> Self {
        FuzzConfig {
            tracker,
            policy: MitigationKind::Fractal,
            window: 4,
            rows_per_bank: 131_072,
            activations: 30_000,
            generations: 6,
            population: 24,
            seed: 9,
            thresholds: vec![24, 48, 96, 148, 256],
            oracle_mitigate_at: Some(1),
        }
    }
}

/// One evaluated candidate: the genome, its digest, and what it achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateResult {
    /// The evaluated genome.
    pub pattern: AttackPattern,
    /// Content digest of the genome (the archive key).
    pub digest: u64,
    /// Attack report at the end of the activation budget.
    pub report: AttackReport,
    /// Per watched threshold (ascending): minimum activations at which the
    /// worst damage first reached it.
    pub crossings: Vec<Option<u64>>,
}

impl CandidateResult {
    /// Search score: the worst damage achieved (higher = stronger attack).
    pub fn score(&self) -> u64 {
        self.report.max_damage
    }
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Tracker that was fuzzed.
    pub tracker: TrackerKind,
    /// Watched thresholds, ascending (parallel to `curve`).
    pub thresholds: Vec<u64>,
    /// The minimum-activations-to-escape curve: per threshold, the fewest
    /// activations any archived candidate needed to push the worst damage
    /// past it (`None` = no candidate escaped within the budget).
    pub curve: Vec<Option<u64>>,
    /// Strongest candidate found (ties broken by lowest digest).
    pub best: CandidateResult,
    /// Strongest fixed-shape seed (the baseline the fuzzer must match).
    pub best_fixed: CandidateResult,
    /// Candidates actually simulated.
    pub evaluated: u64,
    /// Dedup hits: proposals whose digest was already archived.
    pub deduped: u64,
    /// Distinct genomes in the survivor archive.
    pub archive_len: usize,
}

/// Mutation + simulated-annealing search over attack-pattern genomes.
pub struct AttackFuzzer {
    cfg: FuzzConfig,
    /// Mutation + acceptance stream (never touched by evaluation).
    rng: DetRng,
    archive: BTreeMap<u64, CandidateResult>,
    seed_digests: Vec<u64>,
    current: AttackPattern,
    current_score: u64,
    temperature: f64,
    evaluated: u64,
    deduped: u64,
}

impl AttackFuzzer {
    /// Creates a fuzzer; thresholds are canonicalized (sorted + deduped) so
    /// crossings align across candidates.
    pub fn new(mut cfg: FuzzConfig) -> Self {
        cfg.thresholds.sort_unstable();
        cfg.thresholds.dedup();
        let rng = DetRng::seeded(cfg.seed).fork(0xF0_22E8);
        let current = AttackPattern::single(RowAddr(cfg.rows_per_bank / 2));
        AttackFuzzer {
            cfg,
            rng,
            archive: BTreeMap::new(),
            seed_digests: Vec::new(),
            current,
            current_score: 0,
            temperature: INITIAL_TEMPERATURE,
            evaluated: 0,
            deduped: 0,
        }
    }

    /// The (canonicalized) campaign configuration.
    pub fn cfg(&self) -> &FuzzConfig {
        &self.cfg
    }

    /// The classic fixed shapes as genomes, anchored mid-bank: the seeded
    /// generation 0 and the fuzzer's `best_fixed` baseline.
    pub fn seed_patterns(cfg: &FuzzConfig) -> Vec<AttackPattern> {
        let base = RowAddr(cfg.rows_per_bank / 2);
        let w = cfg.window.max(1);
        let mut seeds = vec![
            AttackPattern::circular(base, w),
            AttackPattern::circular(base, 2 * w),
            AttackPattern::double_sided(base),
            AttackPattern::half_double(base, 2),
            AttackPattern::decoy(base, w.saturating_sub(1).max(1)),
            AttackPattern::single(base),
        ];
        for s in &mut seeds {
            s.sanitize(cfg.rows_per_bank);
        }
        seeds
    }

    /// The per-candidate simulation seed: a [`DetRng`] fork keyed by the
    /// genome digest, so a genome's score is a pure function of
    /// `(cfg, genome)` — the invariant every evaluation path (serial,
    /// threaded, reused evaluators, store replay) preserves.
    pub fn candidate_seed(cfg: &FuzzConfig, digest: u64) -> u64 {
        DetRng::seeded(cfg.seed).fork(digest).next_u64()
    }

    /// Evaluates one candidate: pure in `(cfg, pattern)`. The simulation
    /// seed is a per-candidate [`DetRng`] fork keyed by the genome digest,
    /// so the result is independent of batch composition and thread count.
    pub fn evaluate(cfg: &FuzzConfig, pattern: &AttackPattern) -> CandidateResult {
        LaneEvaluator::new(cfg.clone()).evaluate_one(pattern)
    }

    /// Admits an evaluated candidate into the survivor archive. Returns
    /// `false` (and changes nothing) if its digest is already archived —
    /// exactly-once semantics, like campaign-cell dedup.
    pub fn submit(&mut self, result: CandidateResult) -> bool {
        if self.archive.contains_key(&result.digest) {
            return false;
        }
        self.archive.insert(result.digest, result);
        true
    }

    /// The survivor archive, keyed by pattern digest.
    pub fn archive(&self) -> &BTreeMap<u64, CandidateResult> {
        &self.archive
    }

    /// Stable content digest of the survivor archive (see
    /// [`crate::evalstore::archive_digest`]). Equal digests mean bitwise-
    /// identical archives — the scalar the chunking/thread-identity and
    /// resume gates compare.
    pub fn archive_digest(&self) -> u64 {
        crate::evalstore::archive_digest(self.archive.values())
    }

    /// Dedups `batch` against the archive (and within itself), evaluates
    /// the fresh genomes with `eval`, and archives the results in input
    /// order. Returns the digests of `batch`, in order.
    fn admit_batch(
        &mut self,
        batch: &[AttackPattern],
        eval: &impl Fn(&[AttackPattern]) -> Vec<CandidateResult>,
    ) -> Vec<u64> {
        let digests: Vec<u64> = batch.iter().map(AttackPattern::digest).collect();
        let mut fresh = Vec::new();
        let mut fresh_digests = std::collections::BTreeSet::new();
        for (p, &d) in batch.iter().zip(&digests) {
            if self.archive.contains_key(&d) || !fresh_digests.insert(d) {
                self.deduped += 1;
            } else {
                fresh.push(p.clone());
            }
        }
        let results = eval(&fresh);
        assert_eq!(
            results.len(),
            fresh.len(),
            "evaluator must return one result per candidate, in order"
        );
        for r in results {
            self.evaluated += 1;
            self.submit(r);
        }
        digests
    }

    /// One mutated copy of `base` (1–2 operators, then sanitize).
    fn mutate(&mut self, base: &AttackPattern) -> AttackPattern {
        let mut p = base.clone();
        let ops = 1 + self.rng.gen_range(2);
        for _ in 0..ops {
            match self.rng.gen_range(9) {
                // Nudge one aggressor offset by ±1..3 rows.
                0 => {
                    let i = self.rng.gen_range(p.offsets.len() as u64) as usize;
                    let delta = (1 + self.rng.gen_range(3)) as i16;
                    let sign = if self.rng.gen_bool(0.5) { 1 } else { -1 };
                    p.offsets[i] = (p.offsets[i] + sign * delta).clamp(-MAX_REACH, MAX_REACH);
                }
                // Grow the aggressor set: clone an offset, shifted.
                1 if p.offsets.len() < MAX_OFFSETS => {
                    let i = self.rng.gen_range(p.offsets.len() as u64) as usize;
                    let delta = (1 + self.rng.gen_range(4)) as i16;
                    let off = (p.offsets[i] + delta).clamp(-MAX_REACH, MAX_REACH);
                    p.offsets.push(off);
                    // Give the new aggressor a schedule slot so it is live.
                    if p.schedule.len() < MAX_SCHEDULE {
                        p.schedule.push((p.offsets.len() - 1) as u16);
                    }
                }
                // Shrink the aggressor set.
                2 if p.offsets.len() > 1 => {
                    let i = self.rng.gen_range(p.offsets.len() as u64) as usize;
                    p.offsets.swap_remove(i);
                }
                // Reorder the interleaving: swap two schedule slots.
                3 if p.schedule.len() > 1 => {
                    let a = self.rng.gen_range(p.schedule.len() as u64) as usize;
                    let b = self.rng.gen_range(p.schedule.len() as u64) as usize;
                    p.schedule.swap(a, b);
                }
                // Grow the schedule: insert a random aggressor reference.
                4 if p.schedule.len() < MAX_SCHEDULE => {
                    let at = self.rng.gen_range(p.schedule.len() as u64 + 1) as usize;
                    let idx = self.rng.gen_range(p.offsets.len() as u64) as u16;
                    p.schedule.insert(at, idx);
                }
                // Shrink the schedule.
                5 if p.schedule.len() > 1 => {
                    let i = self.rng.gen_range(p.schedule.len() as u64) as usize;
                    p.schedule.remove(i);
                }
                // Re-phase against the mitigation-window boundary.
                6 => {
                    p.phase = self.rng.gen_range(2 * p.schedule.len().max(1) as u64) as u16;
                }
                // Re-mix decoys: density and count.
                7 => {
                    let w = self.cfg.window.max(2) as u64;
                    p.decoy_every = match self.rng.gen_range(4) {
                        0 => 0,
                        1 => (w - 1) as u16,
                        2 => w as u16,
                        _ => (1 + self.rng.gen_range(2 * w)) as u16,
                    };
                    p.decoys = 1 + self.rng.gen_range(4) as u8;
                }
                // Re-anchor the whole layout.
                _ => {
                    let delta = 1 + self.rng.gen_range(64) as u32;
                    p.base = if self.rng.gen_bool(0.5) {
                        RowAddr(p.base.0.wrapping_add(delta))
                    } else {
                        RowAddr(p.base.0.wrapping_sub(delta))
                    };
                }
            }
        }
        p.sanitize(self.cfg.rows_per_bank);
        p
    }

    /// Runs the full campaign: seeded generation 0, then
    /// `cfg.generations × cfg.population` annealed mutants. `eval` maps a
    /// batch of fresh genomes to results *in input order* — pass a serial
    /// map, or fan out with `par_map`; the outcome is identical.
    pub fn run(&mut self, eval: impl Fn(&[AttackPattern]) -> Vec<CandidateResult>) -> FuzzOutcome {
        let seeds = Self::seed_patterns(&self.cfg);
        self.seed_digests = self.admit_batch(&seeds, &eval);
        let seed_digests = self.seed_digests.clone();
        let champion = self
            .best_of(seed_digests.iter())
            .expect("seeded generation is never empty");
        let (champ_pattern, champ_score) = (champion.pattern.clone(), champion.score());
        self.current = champ_pattern;
        self.current_score = champ_score;
        self.temperature = INITIAL_TEMPERATURE;

        for _ in 0..self.cfg.generations {
            let batch: Vec<AttackPattern> = (0..self.cfg.population)
                .map(|_| {
                    let cur = self.current.clone();
                    self.mutate(&cur)
                })
                .collect();
            let digests = self.admit_batch(&batch, &eval);
            if let Some(champ) = self.best_of(digests.iter()) {
                let (champ_pattern, champ_score) = (champ.pattern.clone(), champ.score());
                let delta = champ_score as f64 - self.current_score as f64;
                let accept =
                    delta >= 0.0 || self.rng.gen_f64() < (delta / self.temperature.max(1e-9)).exp();
                if accept {
                    self.current = champ_pattern;
                    self.current_score = champ_score;
                }
            }
            self.temperature *= COOLING;
        }
        self.outcome()
    }

    /// The archived candidate with the highest score among `digests` (ties
    /// broken by lowest digest, for order-independence).
    fn best_of<'a>(&self, digests: impl Iterator<Item = &'a u64>) -> Option<&CandidateResult> {
        let mut best: Option<&CandidateResult> = None;
        for d in digests {
            let Some(r) = self.archive.get(d) else {
                continue;
            };
            let better = match best {
                None => true,
                Some(b) => r.score() > b.score() || (r.score() == b.score() && r.digest < b.digest),
            };
            if better {
                best = Some(r);
            }
        }
        best
    }

    /// The campaign outcome so far (curve over the whole archive).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been evaluated yet (call [`AttackFuzzer::run`]
    /// first).
    pub fn outcome(&self) -> FuzzOutcome {
        let best = self
            .best_of(self.archive.keys())
            .expect("outcome() requires at least one evaluated candidate")
            .clone();
        let best_fixed = self
            .best_of(self.seed_digests.iter())
            .expect("outcome() requires the seeded generation")
            .clone();
        let mut curve = vec![None; self.cfg.thresholds.len()];
        for r in self.archive.values() {
            for (slot, crossing) in curve.iter_mut().zip(&r.crossings) {
                if let Some(acts) = crossing {
                    *slot = Some(slot.map_or(*acts, |cur: u64| cur.min(*acts)));
                }
            }
        }
        FuzzOutcome {
            tracker: self.cfg.tracker,
            thresholds: self.cfg.thresholds.clone(),
            curve,
            best,
            best_fixed,
            evaluated: self.evaluated,
            deduped: self.deduped,
            archive_len: self.archive.len(),
        }
    }
}

/// A reusable candidate evaluator: one [`AttackSim`], built once and
/// [`reset`](AttackSim::reset) per candidate instead of rebuilt. Each
/// candidate still runs under [`AttackFuzzer::candidate_seed`], so
/// `evaluate_batch` is bitwise-identical to mapping
/// [`AttackFuzzer::evaluate`] over the batch (pinned for every registered
/// tracker in `crates/analysis/tests`).
pub struct LaneEvaluator {
    cfg: FuzzConfig,
    sim: AttackSim,
}

impl LaneEvaluator {
    /// Builds an evaluator for `cfg`. The oracle kind honors
    /// `cfg.oracle_mitigate_at` (the eager trigger that makes OracleRH the
    /// strictly-hardest curve bound).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` names a tracker/policy stack that cannot be built —
    /// the same contract as [`AttackFuzzer::evaluate`].
    pub fn new(cfg: FuzzConfig) -> Self {
        let tracker: Box<dyn Tracker> = match cfg.oracle_mitigate_at {
            Some(at) if cfg.tracker.info().flags.oracle => {
                Box::new(OracleRh::new(cfg.window, at).expect("oracle trigger must be buildable"))
            }
            _ => build_tracker(cfg.tracker, cfg.window).expect("registered tracker must build"),
        };
        let sim = AttackSim::with_tracker(tracker, cfg.policy, cfg.rows_per_bank, 0)
            .expect("registered tracker+policy must build");
        LaneEvaluator { cfg, sim }
    }

    fn evaluate_one(&mut self, pattern: &AttackPattern) -> CandidateResult {
        let digest = pattern.digest();
        self.sim
            .reset(AttackFuzzer::candidate_seed(&self.cfg, digest));
        self.sim.watch_thresholds(&self.cfg.thresholds);
        let report = self.sim.run_pattern(
            &mut PatternCursor::new(pattern.clone()),
            self.cfg.activations,
        );
        CandidateResult {
            pattern: pattern.clone(),
            digest,
            report,
            crossings: self.sim.crossings().to_vec(),
        }
    }

    /// Evaluates `batch` in input order. Results are bitwise-identical to
    /// `batch.iter().map(|p| AttackFuzzer::evaluate(&cfg, p))`.
    pub fn evaluate_batch(&mut self, batch: &[AttackPattern]) -> Vec<CandidateResult> {
        batch.iter().map(|p| self.evaluate_one(p)).collect()
    }
}

/// A thread-safe checkout pool of [`LaneEvaluator`]s: the bridge between
/// the bench harness's `par_map` fan-out (which splits a batch into chunks
/// across worker threads) and evaluator reuse (which wants each evaluator to
/// survive across rounds). Each call checks an evaluator out, runs the
/// sub-batch, and returns it; evaluators are built lazily, so a serial
/// caller only ever constructs one.
pub struct EvaluatorPool {
    cfg: FuzzConfig,
    lanes: usize,
    pool: Mutex<Vec<LaneEvaluator>>,
}

impl EvaluatorPool {
    /// Creates an empty pool of evaluators for `cfg`; callers split their
    /// batches into `lanes`-candidate chunks, one chunk per `evaluate` call.
    pub fn new(cfg: FuzzConfig, lanes: usize) -> Self {
        EvaluatorPool {
            cfg,
            lanes,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Chunk width callers split batches by (clamped ≥ 1).
    pub fn lanes(&self) -> usize {
        self.lanes.max(1)
    }

    /// Evaluates `batch` on a pooled evaluator (building one if all are
    /// checked out). Pure per candidate, so results do not depend on which
    /// evaluator served the batch.
    pub fn evaluate(&self, batch: &[AttackPattern]) -> Vec<CandidateResult> {
        let checked_out = self.pool.lock().expect("pool poisoned").pop();
        let mut ev = checked_out.unwrap_or_else(|| LaneEvaluator::new(self.cfg.clone()));
        let out = ev.evaluate_batch(batch);
        self.pool.lock().expect("pool poisoned").push(ev);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(tracker: TrackerKind) -> FuzzConfig {
        FuzzConfig {
            activations: 4_000,
            generations: 2,
            population: 6,
            ..FuzzConfig::smoke(tracker)
        }
    }

    fn serial_eval(cfg: &FuzzConfig) -> impl Fn(&[AttackPattern]) -> Vec<CandidateResult> + '_ {
        move |batch| {
            batch
                .iter()
                .map(|p| AttackFuzzer::evaluate(cfg, p))
                .collect()
        }
    }

    #[test]
    fn archive_dedups_exactly_once() {
        let cfg = tiny_cfg(TrackerKind::NaiveTrr);
        let mut fuzzer = AttackFuzzer::new(cfg.clone());
        let p = AttackPattern::single(RowAddr(60_000));
        let r = AttackFuzzer::evaluate(&cfg, &p);
        assert!(fuzzer.submit(r.clone()));
        assert!(!fuzzer.submit(r), "resubmitted genome must dedup");
        assert_eq!(fuzzer.archive().len(), 1);
    }

    #[test]
    fn fuzzer_never_loses_to_its_seeds() {
        let cfg = tiny_cfg(TrackerKind::NaiveTrr);
        let mut fuzzer = AttackFuzzer::new(cfg.clone());
        let outcome = fuzzer.run(serial_eval(&cfg));
        assert!(
            outcome.best.score() >= outcome.best_fixed.score(),
            "champion {} below seeded baseline {}",
            outcome.best.score(),
            outcome.best_fixed.score()
        );
        assert!(outcome.evaluated > 0);
        assert_eq!(outcome.archive_len as u64, outcome.evaluated);
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = tiny_cfg(TrackerKind::Mint);
        let a = AttackFuzzer::new(cfg.clone()).run(serial_eval(&cfg));
        let b = AttackFuzzer::new(cfg.clone()).run(serial_eval(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn eager_oracle_is_bounded() {
        // With a tight trigger and perfect knowledge, the oracle keeps the
        // worst damage far below what weak trackers concede.
        let oracle_cfg = tiny_cfg(TrackerKind::Oracle);
        let oracle = AttackFuzzer::new(oracle_cfg.clone()).run(serial_eval(&oracle_cfg));
        let trr_cfg = tiny_cfg(TrackerKind::NaiveTrr);
        let trr = AttackFuzzer::new(trr_cfg.clone()).run(serial_eval(&trr_cfg));
        assert!(
            oracle.best.score() < trr.best.score(),
            "oracle {} should bound naive TRR {}",
            oracle.best.score(),
            trr.best.score()
        );
    }

    #[test]
    fn lane_evaluator_matches_serial_at_any_lane_count() {
        let cfg = tiny_cfg(TrackerKind::Mint);
        let batch = AttackFuzzer::seed_patterns(&cfg);
        let serial: Vec<CandidateResult> = batch
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect();
        for lanes in [1, 3, 16] {
            let pool = EvaluatorPool::new(cfg.clone(), lanes);
            // Two passes: the second reuses pooled evaluators (reset scrubs
            // all sim state between candidates).
            for _ in 0..2 {
                let chunked: Vec<CandidateResult> = batch
                    .chunks(pool.lanes())
                    .flat_map(|chunk| pool.evaluate(chunk))
                    .collect();
                assert_eq!(chunked, serial, "{lanes}-wide chunks diverged from serial");
            }
        }
    }

    #[test]
    fn evaluator_pool_run_matches_plain_run() {
        let cfg = tiny_cfg(TrackerKind::NaiveTrr);
        let plain = AttackFuzzer::new(cfg.clone()).run(serial_eval(&cfg));
        let pool = EvaluatorPool::new(cfg.clone(), 4);
        let pooled = AttackFuzzer::new(cfg.clone()).run(|batch| pool.evaluate(batch));
        assert_eq!(plain, pooled);
    }

    #[test]
    fn thresholds_canonicalized_and_curve_aligned() {
        let mut cfg = tiny_cfg(TrackerKind::NaiveTrr);
        cfg.thresholds = vec![96, 24, 24, 48];
        let mut fuzzer = AttackFuzzer::new(cfg.clone());
        assert_eq!(fuzzer.cfg().thresholds, vec![24, 48, 96]);
        let canonical = fuzzer.cfg().clone();
        let outcome = fuzzer.run(serial_eval(&canonical));
        assert_eq!(outcome.thresholds, vec![24, 48, 96]);
        assert_eq!(outcome.curve.len(), 3);
        // Monotone: higher thresholds can only cross later (or never).
        let crossed: Vec<u64> = outcome.curve.iter().flatten().copied().collect();
        assert!(crossed.windows(2).all(|w| w[0] <= w[1]));
    }
}

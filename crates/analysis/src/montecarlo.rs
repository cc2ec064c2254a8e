//! Monte-Carlo attack harness: adversarial patterns against the *real*
//! tracker + mitigation implementations.
//!
//! [`AttackSim`] is the DRAM device's mitigation machinery minus timing,
//! address mapping and queueing (the attacker saturates the bank's
//! activation budget anyway): the device's [`MitigationEngine`] decides when
//! and whom to mitigate, and `RowhammerAudit`'s rule
//! [`DamageModel::hammer`] scores the damage on a dense epoch-cleared
//! [`DamageArena`]: every activation (demand or refresh-internal) adds one
//! unit to its immediate neighbours; refreshing or activating a row
//! restores it.
//!
//! Attack inputs are [`crate::AttackPattern`] genomes (see
//! [`crate::pattern`]): [`AttackSim::run_pattern`] is the primary entry
//! point, replaying the paper's fixed shapes, serialized genomes, and fuzzer
//! candidates alike through a [`PatternCursor`].
//! [`AttackSim::watch_thresholds`] records the minimum activation count at
//! which the worst damage first reached each watched threshold — the
//! per-candidate sample behind the fuzzer's minimum-activations-to-escape
//! curves.

use crate::pattern::PatternCursor;
use autorfm_mitigation::{DamageArena, DamageModel, MitigationEngine, MitigationKind};
use autorfm_sim_core::{ConfigError, DetRng, RowAddr};
use autorfm_trackers::{build_tracker, Tracker, TrackerKind};

/// Result of an attack run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttackReport {
    /// Worst disturbance any row accumulated without an intervening restore.
    /// Compare against `T = 2 × TRH-D`: the attack succeeds iff this exceeds
    /// the threshold.
    pub max_damage: u64,
    /// Demand activations issued.
    pub activations: u64,
    /// Mitigations performed.
    pub mitigations: u64,
    /// Victim refreshes issued.
    pub victim_refreshes: u64,
}

/// A single-bank tracker + mitigation stack under attack.
#[derive(Debug)]
pub struct AttackSim {
    engine: MitigationEngine,
    damage: DamageArena,
    rows_per_bank: u32,
    report: AttackReport,
    /// Damage thresholds to watch (ascending) and, for each, the activation
    /// count at which `max_damage` first reached it.
    watch: Vec<u64>,
    crossings: Vec<Option<u64>>,
    next_watch: usize,
}

impl AttackSim {
    /// Creates the stack.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid tracker/policy parameters.
    pub fn new(
        tracker: TrackerKind,
        policy: MitigationKind,
        window: u32,
        rows_per_bank: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        Self::with_tracker(build_tracker(tracker, window)?, policy, rows_per_bank, seed)
    }

    /// Creates the stack around a pre-built tracker (the mitigation window
    /// comes from `tracker.window()`). This is the entry point for
    /// non-registry builds — e.g. the attack fuzzer's eager OracleRH, whose
    /// mitigation trigger is tightened below the registry default so the
    /// idealized defender bounds every real tracker's escape curve.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid policy or a zero window.
    pub fn with_tracker(
        tracker: Box<dyn Tracker>,
        policy: MitigationKind,
        rows_per_bank: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let window = tracker.window();
        Ok(AttackSim {
            engine: MitigationEngine::with_tracker(tracker, policy, window, DetRng::seeded(seed))?,
            damage: DamageArena::with_capacity(rows_per_bank),
            rows_per_bank,
            report: AttackReport::default(),
            watch: Vec::new(),
            crossings: Vec::new(),
            next_watch: 0,
        })
    }

    /// Resets every transient surface — damage, engine state, report, watch
    /// state — and reseeds the RNG, leaving the sim indistinguishable from a
    /// freshly built one. This is what lets a
    /// [`LaneEvaluator`](crate::fuzzer::LaneEvaluator) amortize
    /// tracker/policy construction across thousands of fuzzer candidates;
    /// the purity pin in `crates/analysis/tests` compares reset-reuse
    /// against fresh builds for every registered tracker.
    pub fn reset(&mut self, seed: u64) {
        self.engine.reset(DetRng::seeded(seed));
        self.damage.clear();
        self.report = AttackReport::default();
        self.watch.clear();
        self.crossings.clear();
        self.next_watch = 0;
    }

    /// Watches damage thresholds: after the run, [`AttackSim::crossings`]
    /// reports, per threshold, the activation count at which the worst
    /// damage first reached it (`None` = never). Thresholds are sorted
    /// internally; calling this resets any previous watch state.
    pub fn watch_thresholds(&mut self, thresholds: &[u64]) {
        self.watch = thresholds.to_vec();
        self.watch.sort_unstable();
        self.watch.dedup();
        self.crossings = vec![None; self.watch.len()];
        self.next_watch = 0;
        // Catch up in case damage already accumulated before the watch.
        self.note_damage(self.report.max_damage);
    }

    /// The watched thresholds, ascending (parallel to
    /// [`AttackSim::crossings`]).
    pub fn watched(&self) -> &[u64] {
        &self.watch
    }

    /// Per watched threshold: the activation count at which `max_damage`
    /// first reached it (`None` = not yet).
    pub fn crossings(&self) -> &[Option<u64>] {
        &self.crossings
    }

    fn note_damage(&mut self, max: u64) {
        while self.next_watch < self.watch.len() && max >= self.watch[self.next_watch] {
            self.crossings[self.next_watch] = Some(self.report.activations);
            self.next_watch += 1;
        }
    }

    /// Applies the disturbance rule to one activation of `row`.
    #[inline]
    fn hammer(&mut self, row: RowAddr) {
        if let Some((_, d)) = self.damage.hammer(row, self.rows_per_bank) {
            if d > self.report.max_damage {
                self.report.max_damage = d;
                self.note_damage(d);
            }
        }
    }

    /// Issues one demand activation of `row`, running a mitigation whenever a
    /// window completes (the attacker gets no say in mitigation timing).
    pub fn activate(&mut self, row: RowAddr) {
        self.report.activations += 1;
        self.hammer(row);
        if self.engine.on_act(row) {
            self.mitigate();
        }
    }

    /// Executes the engine's pending mitigation. Every victim refresh
    /// restores the victim and, being an internal activation, disturbs the
    /// victim's own neighbours (transitive mechanism).
    #[inline(never)]
    fn mitigate(&mut self) {
        let Some(m) = self.engine.execute_pending(self.rows_per_bank) else {
            return;
        };
        self.report.mitigations += 1;
        for v in &m.victims {
            self.report.victim_refreshes += 1;
            self.hammer(v.row);
        }
    }

    /// Advances the sim by the next `n` activations of `cursor` and returns
    /// the report so far. The cursor keeps its position, so driving one
    /// cursor in chunks replays exactly the sequence of a single call.
    pub fn run_pattern(&mut self, cursor: &mut PatternCursor, n: u64) -> AttackReport {
        for _ in 0..n {
            let row = cursor.next_row();
            self.activate(row);
        }
        self.report
    }

    /// The report so far.
    pub fn report(&self) -> AttackReport {
        self.report
    }

    /// Current damage of a row.
    pub fn damage_of(&self, row: RowAddr) -> u64 {
        self.damage.get(row.0)
    }
}

/// The worst damage any of `patterns` reaches on a fresh single-bank
/// [`AttackSim`] (131,072 rows) in `acts` activations each, and the name of
/// the first pattern that reached it (`"none"` if no row took damage).
/// Pattern `i` runs with seed `seed_base + i`.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid tracker/policy parameters.
pub fn worst_damage<'a>(
    tracker: TrackerKind,
    policy: MitigationKind,
    window: u32,
    patterns: &[(&'a str, crate::AttackPattern)],
    seed_base: u64,
    acts: u64,
) -> Result<(u64, &'a str), ConfigError> {
    let mut worst = (0, "none");
    for (seed, (name, pattern)) in (seed_base..).zip(patterns) {
        let mut sim = AttackSim::new(tracker, policy, window, 131_072, seed)?;
        let report = sim.run_pattern(&mut PatternCursor::new(pattern.clone()), acts);
        if report.max_damage > worst.0 {
            worst = (report.max_damage, *name);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AttackPattern;

    const ROWS: u32 = 131_072;

    fn run_fixed(
        tracker: TrackerKind,
        policy: MitigationKind,
        window: u32,
        pattern: &AttackPattern,
        n: u64,
        seed: u64,
    ) -> AttackReport {
        let mut sim = AttackSim::new(tracker, policy, window, ROWS, seed).unwrap();
        sim.run_pattern(&mut PatternCursor::new(pattern.clone()), n)
    }

    /// `reset` leaves a used sim indistinguishable from a fresh build: same
    /// report, crossings, and damage on a rerun, including after a
    /// mid-stream abandon (partial window, pending watch state).
    #[test]
    fn reset_matches_fresh_build() {
        let pattern = AttackPattern::circular(RowAddr(5000), 4);
        let fresh = |seed: u64| {
            let mut sim =
                AttackSim::new(TrackerKind::Mint, MitigationKind::Fractal, 4, ROWS, seed).unwrap();
            sim.watch_thresholds(&[8, 64]);
            let report = sim.run_pattern(&mut PatternCursor::new(pattern.clone()), 30_000);
            (report, sim.crossings().to_vec())
        };
        let mut sim =
            AttackSim::new(TrackerKind::Mint, MitigationKind::Fractal, 4, ROWS, 1).unwrap();
        sim.watch_thresholds(&[8, 64]);
        // Abandon one run mid-window so reset has real state to scrub.
        sim.run_pattern(&mut PatternCursor::new(pattern.clone()), 12_345);
        for seed in [1u64, 99] {
            sim.reset(seed);
            sim.watch_thresholds(&[8, 64]);
            let report = sim.run_pattern(&mut PatternCursor::new(pattern.clone()), 30_000);
            assert_eq!(
                (report, sim.crossings().to_vec()),
                fresh(seed),
                "reset-reuse diverged from fresh build at seed {seed}"
            );
        }
    }

    /// Duplicate and unsorted threshold inputs canonicalize to one ascending
    /// deduped watch list, with crossings aligned to it.
    #[test]
    fn watch_thresholds_dedups_and_sorts() {
        let mut sim =
            AttackSim::new(TrackerKind::NaiveTrr, MitigationKind::Fractal, 4, ROWS, 5).unwrap();
        sim.watch_thresholds(&[64, 1, 16, 16, 1, 64]);
        assert_eq!(sim.watched(), &[1, 16, 64]);
        assert_eq!(sim.crossings(), &[None, None, None]);
        let mut cursor = PatternCursor::new(AttackPattern::decoy(RowAddr(3000), 3));
        sim.run_pattern(&mut cursor, 30_000);
        let crossed: Vec<u64> = sim.crossings().iter().flatten().copied().collect();
        assert_eq!(crossed.len(), 3, "decoy attack crosses all three");
        assert!(crossed.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Re-watching after crossings drops the old state entirely: thresholds
    /// already reached are caught up at the *current* activation count, and
    /// yet-unreached ones start fresh.
    #[test]
    fn rewatch_after_crossings_resets_watch_state() {
        let mut sim =
            AttackSim::new(TrackerKind::NaiveTrr, MitigationKind::Fractal, 4, ROWS, 5).unwrap();
        sim.watch_thresholds(&[1, 16]);
        let mut cursor = PatternCursor::new(AttackPattern::decoy(RowAddr(3000), 3));
        sim.run_pattern(&mut cursor, 2_000);
        let first = sim.crossings().to_vec();
        assert!(first[0].is_some() && first[1].is_some());
        let acts_now = sim.report().activations;
        let max_now = sim.report().max_damage;

        // Re-watch with a different ladder mid-run.
        sim.watch_thresholds(&[16, 4, u64::MAX]);
        assert_eq!(sim.watched(), &[4, 16, u64::MAX]);
        let rewatched = sim.crossings().to_vec();
        for (i, &t) in [4u64, 16].iter().enumerate() {
            if max_now >= t {
                assert_eq!(
                    rewatched[i],
                    Some(acts_now),
                    "already-reached threshold {t} catches up at the current count"
                );
            }
        }
        assert_eq!(rewatched[2], None, "unreachable threshold stays open");

        // Later crossings land at later activation counts than the catch-up.
        sim.run_pattern(&mut cursor, 28_000);
        let final_crossings = sim.crossings().to_vec();
        assert!(final_crossings[1].unwrap() >= acts_now);
    }

    /// A watch installed after damage already accumulated back-fills every
    /// threshold at or below the current worst damage (the catch-up path).
    #[test]
    fn watch_catches_up_with_preexisting_damage() {
        let mut sim =
            AttackSim::new(TrackerKind::Mint, MitigationKind::Baseline, 4, ROWS, 7).unwrap();
        for _ in 0..5_000 {
            sim.activate(RowAddr(600));
        }
        let max = sim.report().max_damage;
        let acts = sim.report().activations;
        assert!(max >= 8, "hammering must have accumulated damage");
        sim.watch_thresholds(&[1, 8, max, max + 1_000_000]);
        let crossings = sim.crossings().to_vec();
        assert_eq!(crossings[0], Some(acts));
        assert_eq!(crossings[1], Some(acts));
        assert_eq!(crossings[2], Some(acts));
        assert_eq!(crossings[3], None, "beyond-current damage is not crossed");
    }

    /// Threshold watching records the first activation at which the worst
    /// damage reached each watched level, independent of watch order.
    #[test]
    fn watch_thresholds_record_first_crossings() {
        let mut sim =
            AttackSim::new(TrackerKind::NaiveTrr, MitigationKind::Fractal, 4, ROWS, 5).unwrap();
        sim.watch_thresholds(&[64, 1, 16]);
        let mut cursor = PatternCursor::new(AttackPattern::decoy(RowAddr(3000), 3));
        let report = sim.run_pattern(&mut cursor, 30_000);
        assert_eq!(sim.watched(), &[1, 16, 64]);
        let crossings = sim.crossings().to_vec();
        assert_eq!(crossings[0], Some(1), "first act damages a neighbor");
        let c16 = crossings[1].expect("decoy attack must reach damage 16");
        let c64 = crossings[2].expect("decoy attack must reach damage 64");
        assert!(c16 < c64, "higher thresholds cross later: {c16} vs {c64}");
        assert!(c64 <= report.activations);
        assert!(report.max_damage >= 64);
    }

    #[test]
    fn mint_fractal_bounds_circular_attack() {
        // The MINT-optimal circular pattern at window 4; fractal MINT-4
        // tolerates TRH-D 74 (T = 148). Over 200K activations the worst damage
        // must stay far below T.
        let r = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &AttackPattern::circular(RowAddr(5000), 4),
            200_000,
            1,
        );
        assert!(
            r.max_damage < 148,
            "attack succeeded: max damage {}",
            r.max_damage
        );
        assert_eq!(r.mitigations, 200_000 / 4);
        assert_eq!(r.victim_refreshes, r.mitigations * 4);
    }

    #[test]
    fn mint_recursive_bounds_circular_attack() {
        let r = run_fixed(
            TrackerKind::MintRecursive,
            MitigationKind::Recursive,
            4,
            &AttackPattern::circular(RowAddr(5000), 4),
            200_000,
            2,
        );
        // Recursive MINT-4 tolerates T = 2*96 = 192.
        assert!(
            r.max_damage < 192,
            "attack succeeded: max damage {}",
            r.max_damage
        );
    }

    #[test]
    fn half_double_breaks_baseline_but_not_fractal() {
        let pattern = AttackPattern::half_double(RowAddr(8000), 2);
        let n = 100_000;
        let baseline = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Baseline,
            4,
            &pattern,
            n,
            3,
        );
        let fractal = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &pattern,
            n,
            3,
        );
        // Under the fixed blast-radius policy, rows just outside the blast
        // radius accumulate unbounded transitive damage; Fractal keeps them
        // bounded. (Section V-A vs V-C.)
        assert!(
            baseline.max_damage > 4 * fractal.max_damage,
            "baseline {} vs fractal {}",
            baseline.max_damage,
            fractal.max_damage
        );
        assert!(
            fractal.max_damage < 148,
            "fractal must hold: {}",
            fractal.max_damage
        );
    }

    #[test]
    fn transitive_damage_grows_linearly_under_baseline() {
        // Single-sided hammering with blast-radius-2: the rows at distance 3
        // receive a refresh-disturbance every mitigation and are never
        // restored.
        let mut sim =
            AttackSim::new(TrackerKind::Mint, MitigationKind::Baseline, 4, ROWS, 7).unwrap();
        for _ in 0..40_000 {
            sim.activate(RowAddr(600));
        }
        let mitigations = sim.report().mitigations;
        let d3 = sim.damage_of(RowAddr(603)).max(sim.damage_of(RowAddr(597)));
        assert!(
            d3 as f64 > mitigations as f64 * 0.9,
            "distance-3 damage {d3} should track mitigations {mitigations}"
        );
    }

    #[test]
    fn decoy_attack_defeats_naive_trr_but_not_mint() {
        // Three decoys align the pattern period with the window, so the
        // deterministic tracker's candidate is always a decoy at selection
        // time — the classic TRR bypass.
        let pattern = AttackPattern::decoy(RowAddr(3000), 3);
        let n = 60_000;
        let trr = run_fixed(
            TrackerKind::NaiveTrr,
            MitigationKind::Fractal,
            4,
            &pattern,
            n,
            5,
        );
        let mint = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &pattern,
            n,
            5,
        );
        assert!(
            trr.max_damage > 3 * mint.max_damage,
            "naive TRR {} vs MINT {}",
            trr.max_damage,
            mint.max_damage
        );
        assert!(mint.max_damage < 148);
    }

    #[test]
    fn double_sided_bounded_by_mint_fractal() {
        let r = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &AttackPattern::double_sided(RowAddr(4000)),
            200_000,
            11,
        );
        assert!(
            r.max_damage < 148,
            "double-sided broke MINT+FM: {}",
            r.max_damage
        );
    }

    #[test]
    fn larger_windows_allow_more_damage() {
        // Sanity: the tolerated threshold grows with window, so the observed
        // worst-case damage under the optimal pattern should too.
        let d4 = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &AttackPattern::circular(RowAddr(100), 4),
            200_000,
            13,
        )
        .max_damage;
        let d16 = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            16,
            &AttackPattern::circular(RowAddr(100), 16),
            200_000,
            13,
        )
        .max_damage;
        assert!(
            d16 > d4,
            "window 16 ({d16}) should allow more damage than 4 ({d4})"
        );
    }

    #[test]
    fn minimal_pair_is_insecure_against_half_double() {
        // The Section IV-B "2 victim refreshes" option trades away all
        // transitive (and even d=2) protection: documented as ablation-only.
        let pattern = AttackPattern::half_double(RowAddr(8000), 2);
        let minimal = run_fixed(
            TrackerKind::Mint,
            MitigationKind::MinimalPair,
            4,
            &pattern,
            100_000,
            31,
        );
        let fractal = run_fixed(
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4,
            &pattern,
            100_000,
            31,
        );
        assert!(
            minimal.max_damage > 4 * fractal.max_damage,
            "minimal-pair should leak transitive damage: {} vs {}",
            minimal.max_damage,
            fractal.max_damage
        );
    }

    #[test]
    fn report_accumulates() {
        let mut sim =
            AttackSim::new(TrackerKind::Mint, MitigationKind::Fractal, 4, ROWS, 17).unwrap();
        sim.activate(RowAddr(100));
        let r = sim.report();
        assert_eq!(r.activations, 1);
        assert_eq!(sim.damage_of(RowAddr(101)), 1);
        assert_eq!(sim.damage_of(RowAddr(99)), 1);
    }
}

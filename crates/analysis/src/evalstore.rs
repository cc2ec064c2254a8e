//! Persistent fuzz-evaluation store: candidate results as content-addressed
//! records in the shared [`CellStore`].
//!
//! A fuzz campaign evaluates thousands of genomes, each a pure function of
//! `(evaluation config, genome)`. This module gives those evaluations the
//! same exactly-once persistence sweep cells already have: every
//! [`CandidateResult`] is sealed into a `KIND_FUZZ` container under
//! `<root>/cells/<16-hex key>.fuzz`, keyed by
//! `digest64(config_key ‖ genome digest)`. A second run of the
//! `attack_fuzz` experiment with the same config over the same store then
//! skips every previously evaluated genome, and `campaignd` can adopt a
//! fuzz store next to its sweep cells because both record families share
//! one store root.
//!
//! The config key deliberately covers only what changes an *evaluation* —
//! tracker, policy, window, bank size, activation budget, master seed,
//! thresholds, oracle trigger — and not `generations`/`population`: a
//! deeper search at the same activation budget reuses every stored
//! evaluation. A run with another activation budget (`attack_fuzz` scales
//! it with the run's fidelity) shares no records.

use crate::fuzzer::{CandidateResult, FuzzConfig};
use crate::montecarlo::AttackReport;
use crate::pattern::AttackPattern;
use autorfm_snapshot::store::{CellRecord, CellStore};
use autorfm_snapshot::{digest64, Reader, SnapError, Snapshot, Writer, MODEL_FINGERPRINT};
use std::path::PathBuf;

impl Snapshot for AttackReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.max_damage);
        w.put_u64(self.activations);
        w.put_u64(self.mitigations);
        w.put_u64(self.victim_refreshes);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(AttackReport {
            max_damage: r.take_u64()?,
            activations: r.take_u64()?,
            mitigations: r.take_u64()?,
            victim_refreshes: r.take_u64()?,
        })
    }
}

impl Snapshot for CandidateResult {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.pattern.to_bytes());
        w.put_u64(self.digest);
        self.report.encode(w);
        self.crossings.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let pattern = AttackPattern::from_bytes(r.take_bytes()?)
            .map_err(|e| SnapError::corrupt(format!("bad stored genome: {e}")))?;
        let digest = r.take_u64()?;
        if pattern.digest() != digest {
            return Err(SnapError::corrupt(format!(
                "stored digest {digest:#x} disagrees with genome digest {:#x}",
                pattern.digest()
            )));
        }
        Ok(CandidateResult {
            pattern,
            digest,
            report: AttackReport::decode(r)?,
            crossings: Vec::<Option<u64>>::decode(r)?,
        })
    }
}

/// Content key of a fuzz *evaluation config*: every field that changes what
/// [`AttackFuzzer::evaluate`](crate::AttackFuzzer::evaluate) returns for a
/// genome, and nothing else. Search-budget fields (`generations`,
/// `population`) are excluded on purpose — see the module docs. Salted with
/// [`MODEL_FINGERPRINT`], like sweep-cell keys.
pub fn config_key(cfg: &FuzzConfig) -> u64 {
    let mut w = Writer::new();
    w.put_u64(MODEL_FINGERPRINT);
    w.put_str(cfg.tracker.info().name);
    w.put_str(cfg.policy.info().name);
    w.put_u32(cfg.window);
    w.put_u32(cfg.rows_per_bank);
    w.put_u64(cfg.activations);
    w.put_u64(cfg.seed);
    cfg.thresholds.encode(&mut w);
    cfg.oracle_mitigate_at.encode(&mut w);
    digest64(w.bytes())
}

/// Stable digest of a whole survivor archive: `digest64` over the archived
/// `(digest, encoded result)` pairs in ascending digest order. Two runs with
/// equal archive digests hold bitwise-identical archives — the scalar the
/// resume smoke and the lane/thread identity gates compare.
pub fn archive_digest<'a>(results: impl Iterator<Item = &'a CandidateResult>) -> u64 {
    let mut entries: Vec<(u64, &CandidateResult)> = results.map(|r| (r.digest, r)).collect();
    entries.sort_unstable_by_key(|(d, _)| *d);
    let mut w = Writer::new();
    w.put_usize(entries.len());
    for (d, r) in entries {
        w.put_u64(d);
        r.encode(&mut w);
    }
    digest64(w.bytes())
}

/// A [`CellStore`] view scoped to one fuzz evaluation config: get/put of
/// [`CandidateResult`]s keyed by genome digest.
#[derive(Debug, Clone)]
pub struct FuzzStore {
    store: CellStore,
    cfg_key: u64,
}

impl FuzzStore {
    /// Opens (creating if needed) the store at `root`, scoped to `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the store tree cannot be created.
    pub fn open(root: impl Into<PathBuf>, cfg: &FuzzConfig) -> std::io::Result<Self> {
        Ok(FuzzStore {
            store: CellStore::open(root)?,
            cfg_key: config_key(cfg),
        })
    }

    /// The underlying shared store.
    pub fn store(&self) -> &CellStore {
        &self.store
    }

    /// The scoped config key (the campaign half of every record key).
    pub fn cfg_key(&self) -> u64 {
        self.cfg_key
    }

    /// The on-disk key answering `genome_digest` under this config.
    pub fn key_for(&self, genome_digest: u64) -> u64 {
        let mut w = Writer::new();
        w.put_u64(self.cfg_key);
        w.put_u64(genome_digest);
        digest64(w.bytes())
    }

    /// Reads the stored evaluation of the genome with `genome_digest`.
    /// Missing, corrupt, failed, or digest-mismatched records all read as
    /// `None` — a damaged evaluation is simply redone.
    pub fn get(&self, genome_digest: u64) -> Option<CandidateResult> {
        let record = self.store.get_fuzz(self.key_for(genome_digest))?;
        let bytes = record.outcome.ok()?;
        let mut r = Reader::new(&bytes);
        let result = CandidateResult::decode(&mut r).ok()?;
        if !r.is_empty() || result.digest != genome_digest {
            return None;
        }
        Some(result)
    }

    /// Persists one evaluation atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn put(&self, result: &CandidateResult) -> std::io::Result<()> {
        let key = self.key_for(result.digest);
        let mut w = Writer::new();
        result.encode(&mut w);
        self.store
            .put_fuzz(key, &CellRecord::ok(key, w.into_bytes()))
    }

    /// Number of fuzz records in the underlying store (all configs).
    pub fn len(&self) -> usize {
        self.store.fuzz_len()
    }

    /// Whether the underlying store holds no fuzz records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::AttackFuzzer;
    use autorfm_trackers::TrackerKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autorfm-fuzzstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> FuzzConfig {
        FuzzConfig {
            activations: 2_000,
            generations: 1,
            population: 4,
            ..FuzzConfig::smoke(TrackerKind::NaiveTrr)
        }
    }

    #[test]
    fn candidate_result_round_trips() {
        let cfg = tiny_cfg();
        for p in AttackFuzzer::seed_patterns(&cfg) {
            let r = AttackFuzzer::evaluate(&cfg, &p);
            let mut w = Writer::new();
            r.encode(&mut w);
            let mut reader = Reader::new(w.bytes());
            let back = CandidateResult::decode(&mut reader).unwrap();
            assert!(reader.is_empty());
            assert_eq!(back, r);
        }
    }

    #[test]
    fn tampered_digest_is_rejected() {
        let cfg = tiny_cfg();
        let p = &AttackFuzzer::seed_patterns(&cfg)[0];
        let r = AttackFuzzer::evaluate(&cfg, p);
        let mut w = Writer::new();
        w.put_bytes(&r.pattern.to_bytes());
        w.put_u64(r.digest ^ 1); // digest no longer matches the genome
        r.report.encode(&mut w);
        r.crossings.encode(&mut w);
        let mut reader = Reader::new(w.bytes());
        assert!(CandidateResult::decode(&mut reader).is_err());
    }

    #[test]
    fn config_key_covers_evaluation_axes_only() {
        let base = tiny_cfg();
        let k = config_key(&base);
        // Search budget does not change the key: deeper resumes reuse work.
        let mut deeper = base.clone();
        deeper.generations = 99;
        deeper.population = 1_000;
        assert_eq!(config_key(&deeper), k);
        // Every evaluation axis does change it.
        let mut m = base.clone();
        m.tracker = TrackerKind::Mint;
        assert_ne!(config_key(&m), k);
        let mut m = base.clone();
        m.activations += 1;
        assert_ne!(config_key(&m), k);
        let mut m = base.clone();
        m.seed += 1;
        assert_ne!(config_key(&m), k);
        let mut m = base.clone();
        m.thresholds.push(9_999);
        assert_ne!(config_key(&m), k);
        let mut m = base.clone();
        m.oracle_mitigate_at = None;
        assert_ne!(config_key(&m), k);
    }

    #[test]
    fn store_round_trips_and_scopes_by_config() {
        let dir = scratch("scope");
        let cfg = tiny_cfg();
        let store = FuzzStore::open(&dir, &cfg).unwrap();
        let p = &AttackFuzzer::seed_patterns(&cfg)[0];
        let r = AttackFuzzer::evaluate(&cfg, p);
        assert!(store.get(r.digest).is_none());
        store.put(&r).unwrap();
        assert_eq!(store.get(r.digest), Some(r.clone()));
        assert_eq!(store.len(), 1);

        // A different config scopes to different keys: no cross-hits.
        let mut other_cfg = cfg.clone();
        other_cfg.seed += 1;
        let other = FuzzStore::open(&dir, &other_cfg).unwrap();
        assert!(other.get(r.digest).is_none());

        // Reopening with the same config resumes the record.
        let again = FuzzStore::open(&dir, &cfg).unwrap();
        assert_eq!(again.get(r.digest), Some(r));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_digest_is_order_independent_and_content_sensitive() {
        let cfg = tiny_cfg();
        let results: Vec<CandidateResult> = AttackFuzzer::seed_patterns(&cfg)
            .iter()
            .map(|p| AttackFuzzer::evaluate(&cfg, p))
            .collect();
        let fwd = archive_digest(results.iter());
        let rev = archive_digest(results.iter().rev());
        assert_eq!(fwd, rev, "digest must not depend on iteration order");
        assert_ne!(
            fwd,
            archive_digest(results[1..].iter()),
            "dropping a result must change the digest"
        );
    }
}

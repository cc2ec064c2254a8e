//! # autorfm-analysis
//!
//! Analytical security models and Monte-Carlo attack harness.
//!
//! * [`mint_model`] — the Appendix-A closed-form model for MINT+RFM: epoch
//!   time, failure rate, MTTF, and the tolerated Rowhammer threshold as a
//!   function of the mitigation window (Eq. 1–7). Regenerates Table III,
//!   Table VI's threshold columns, and Fig 14.
//! * [`fractal_model`] — the Appendix-B security model of Fractal Mitigation:
//!   damage/escape-probability trade-off (Eq. 8–10) and the mixed-attack
//!   analysis of Fig 16.
//! * [`montecarlo`] — drives the *real* tracker + mitigation implementations
//!   with adversarial activation patterns and measures the worst-case
//!   unmitigated disturbance, validating the closed forms. [`AttackSim`]
//!   runs the DRAM device's own
//!   [`MitigationEngine`](autorfm_mitigation::MitigationEngine) and
//!   disturbance rule ([`DamageModel::hammer`](autorfm_mitigation::DamageModel::hammer))
//!   on a dense [`DamageArena`](autorfm_mitigation::DamageArena); it differs
//!   from the device only in timing, address mapping and queueing.
//! * [`evalstore`] — persistence for fuzz campaigns: candidate results as
//!   sealed `KIND_FUZZ` records in a [`CellStore`](autorfm_snapshot::store::CellStore),
//!   keyed by `(config, genome)` digests so a re-run of the `attack_fuzz`
//!   experiment over the same cell store skips every previously evaluated
//!   genome.
//! * [`pattern`] — the serializable [`AttackPattern`] genome (with named
//!   constructors for the paper's fixed shapes) and its [`PatternCursor`]:
//!   one representation for replay, search, and storage of adversarial
//!   activation sequences.
//! * [`fuzzer`] — [`AttackFuzzer`], a mutation + simulated-annealing search
//!   over the genome space with a digest-keyed survivor archive, producing
//!   per-tracker minimum-activations-to-escape curves.
//! * [`history`] — the Rowhammer-threshold-over-time data of Table II.
//!
//! # Examples
//!
//! ```
//! use autorfm_analysis::MintModel;
//!
//! // Table III: MINT (recursive) at window 4 tolerates TRH-D ~96.
//! let model = MintModel::rfm(4, true);
//! let trhd = model.tolerated_trh_d();
//! assert!((85.0..=100.0).contains(&trhd), "{trhd}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod evalstore;
pub mod fractal_model;
pub mod fuzzer;
pub mod history;
pub mod mint_model;
pub mod montecarlo;
pub mod pattern;
pub mod perf_model;

pub use evalstore::{archive_digest, config_key, FuzzStore};
pub use fractal_model::FractalModel;
pub use fuzzer::{
    AttackFuzzer, CandidateResult, EvaluatorPool, FuzzConfig, FuzzOutcome, LaneEvaluator,
};
pub use history::{TrhEntry, TRH_HISTORY};
pub use mint_model::MintModel;
pub use montecarlo::{worst_damage, AttackReport, AttackSim};
pub use pattern::{AttackPattern, PatternCursor};
pub use perf_model::{AutoRfmConflictModel, RfmPerfModel};

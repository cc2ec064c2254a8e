//! # autorfm-mitigation
//!
//! Victim-refresh mitigation policies (Section V of the paper).
//!
//! When a tracker nominates an aggressor row, the DRAM bank performs a
//! *mitigation*: a set of victim refreshes on neighboring rows. This crate
//! implements the three policies the paper analyzes:
//!
//! * [`BlastRadiusPolicy`] — the baseline: always refresh the two rows on each
//!   side of the aggressor (±1, ±2). Secure against direct attacks but blind to
//!   transitive (Half-Double \[23\]) attacks at low thresholds.
//! * [`RecursivePolicy`] — MINT's Recursive Mitigation (Section V-B): victim
//!   refreshes at level *k* are performed at distances `2k+1` and `2k+2`, so a
//!   level-2 mitigation of row E refreshes A, B, H, I (Fig 9b). Paired with
//!   [`autorfm_trackers::Mint`] in recursive (`N+1` slot) mode, which re-selects
//!   the previously mitigated row with probability `1/(N+1)`. Can occupy the
//!   same subarray for several consecutive windows — the non-determinism
//!   AutoRFM wants to avoid.
//! * [`FractalPolicy`] — the paper's Fractal Mitigation (Section V-C, Fig 10):
//!   the immediate neighbors (d=1) are always refreshed, and one additional
//!   *pair* at distance `d = 2 + leading_zeros(rand16)`, giving each distance-d
//!   neighbor refresh probability `2^(1-d)`. Exactly four victim refreshes per
//!   mitigation, single round, deterministic 4·tRC latency.
//!
//! The DRAM device and the tracker-only attack simulator share the
//! per-bank [`MitigationEngine`] (observe ACTs, select at every window end,
//! refresh victims, feed recursion back) and the [`damage`] rule
//! [`DamageModel::hammer`], so the paper's mechanism exists once.
//!
//! Policies are registered in the [`registry`] plugin table (mirroring the
//! tracker registry in `autorfm_trackers`): [`MitigationKind`], [`names`],
//! `FromStr`/`Display`, [`build_policy`], and the campaign service's
//! `GET /mitigations` are all views over [`REGISTRY`].
//!
//! # Examples
//!
//! ```
//! use autorfm_mitigation::{FractalPolicy, MitigationPolicy};
//! use autorfm_trackers::MitigationTarget;
//! use autorfm_sim_core::{DetRng, RowAddr};
//!
//! let mut rng = DetRng::seeded(1);
//! let fm = FractalPolicy::new();
//! let victims = fm.victims(MitigationTarget::direct(RowAddr(1000)), 131_072, &mut rng);
//! assert_eq!(victims.len(), 4); // always exactly four victim refreshes
//! assert!(victims.iter().any(|v| v.row == RowAddr(999)));  // d=1 always
//! assert!(victims.iter().any(|v| v.row == RowAddr(1001))); // d=1 always
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blast;
pub mod damage;
pub mod engine;
pub mod fractal;
pub mod policy;
pub mod registry;

pub use blast::{BlastRadiusPolicy, RecursivePolicy};
pub use damage::{DamageArena, DamageModel, MapDamage};
pub use engine::{ExecutedMitigation, MitigationEngine, PendingMitigation};
pub use fractal::FractalPolicy;
pub use policy::{MitigationPolicy, VictimRefresh};
pub use registry::{
    build_policy, names, MitigationFlags, MitigationInfo, MitigationKind, PolicyFactory, COUNT,
    REGISTRY,
};

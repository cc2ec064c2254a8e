//! # autorfm-dram
//!
//! Cycle-level DDR5 DRAM device model with subarray structure — the substrate
//! the AutoRFM paper builds on.
//!
//! The device is command-driven: the memory controller (see `autorfm-memctrl`)
//! issues ACT / column access / PRE / RFM commands against [`DramDevice`], which
//! enforces JEDEC timing constraints per bank ([`bank::BankArray`]) and per rank
//! (tRRD / tFAW), self-schedules REF every tREFI, and hosts the in-DRAM
//! Rowhammer machinery:
//!
//! * [`MitigationEngine`](autorfm_mitigation::MitigationEngine) — the
//!   per-bank tracker + victim-refresh policy, shared with the tracker-only
//!   attack simulator in `autorfm-analysis`. In **AutoRFM** mode the device
//!   transparently starts the engine's pending mitigation on the first
//!   precharge after every `AutoRFMTH` activations, marking one
//!   *Subarray Under Mitigation (SAUM)*; an ACT that maps to the SAUM is
//!   declined with an ALERT and can be retried after `t_M` (Section IV). In
//!   **RFM** mode the mitigation runs only when the controller issues an
//!   explicit, bank-blocking RFM command (Section II-E).
//! * [`prac::PracState`] — Per-Row Activation Counting with Alert Back-Off, the
//!   DDR5 alternative AutoRFM is compared against (Section VII-A).
//! * [`audit::RowhammerAudit`] — an optional oracle that tracks the disturbance
//!   ("damage") every row has accumulated since its last refresh, used by the
//!   security test-suite to check that no row ever exceeds the tolerated
//!   threshold under attack patterns. It applies the attack simulator's
//!   disturbance rule,
//!   [`DamageModel::hammer`](autorfm_mitigation::DamageModel::hammer), on
//!   one sparse [`MapDamage`](autorfm_mitigation::MapDamage) per bank.
//!
//! # Examples
//!
//! ```
//! use autorfm_dram::{DeviceMitigation, DramConfig, DramDevice, ActOutcome};
//! use autorfm_sim_core::{BankId, Cycle, Geometry, RowAddr};
//!
//! let cfg = DramConfig {
//!     geometry: Geometry::small(),
//!     mitigation: DeviceMitigation::auto_rfm(4),
//!     ..DramConfig::default()
//! };
//! let mut dev = DramDevice::new(cfg, 42)?;
//! let now = Cycle::from_ns(100);
//! let outcome = dev.try_act(BankId(0), RowAddr(17), now);
//! assert_eq!(outcome, ActOutcome::Accepted);
//! # Ok::<(), autorfm_sim_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod bank;
pub mod config;
pub mod device;
pub mod prac;
pub mod stats;
pub mod trace;

pub use audit::RowhammerAudit;
pub use config::{DeviceMitigation, DramConfig, RefreshPolicy};
pub use device::{ActOutcome, DramDevice};
pub use stats::DramStats;
pub use trace::{
    CommandKind, CommandRecord, CommandTrace, TimingChecker, TimingViolation, TraceStats,
};

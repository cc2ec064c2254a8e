//! # autorfm-trackers
//!
//! Secure low-cost in-DRAM Rowhammer trackers (Section II-D of the paper).
//!
//! A *tracker* lives inside each DRAM bank and identifies aggressor rows using
//! only a few bytes of SRAM. All trackers here operate on a *mitigation window*:
//! every `window` demand activations to the bank, the surrounding machinery
//! (RFM or AutoRFM) gives the tracker one opportunity to mitigate, and the
//! tracker nominates the row to mitigate.
//!
//! Trackers are registered in the [plugin registry](registry): a single
//! string-keyed table mapping name → factory + metadata (display name,
//! description, storage-bits formula, capability flags). Every name surface —
//! [`TrackerKind`], [`names`], `FromStr`/`Display`, [`build_tracker`],
//! [`by_name`] — is a view over [`registry::REGISTRY`], so adding a tracker
//! is one file plus one registry entry.
//!
//! Implemented trackers:
//!
//! * [`Mint`] — MINT \[37\]: the paper's representative tracker. A single-entry
//!   tracker that pre-selects, at the start of each window, which activation
//!   slot of the upcoming window will be captured. Guaranteed to select exactly
//!   one row per window. In *recursive* mode it selects from `N+1` slots, with
//!   the extra slot reserved for re-mitigating the previously mitigated row at
//!   an increased blast distance (transitive-attack defense, Section V-B).
//! * [`Pride`] — PrIDE \[11\]: samples each activation with probability `1/window`
//!   into a 4-entry FIFO; mitigation pops the oldest entry.
//! * [`Mithril`] — Mithril-style \[18\] counter tracker (Misra-Gries summary);
//!   mitigation picks the row with the highest estimated count.
//! * [`Parfm`] — PARFM \[18\]: buffers all activations of the current window and
//!   picks one uniformly at random.
//! * [`NaiveTrr`] — a deliberately weak TRR-like most-recent-row tracker, kept
//!   as a contrast case to demonstrate why probabilistic trackers are needed.
//! * [`Graphene`] — Graphene's Misra-Gries table with an explicit spillover
//!   counter (the DRAMsim3 algorithm).
//! * [`Abacus`] — ABACuS: one counter table shared by **all banks** of the
//!   device (the registry's all-bank scope), with per-entry sibling bitmasks.
//! * [`HydraStyle`] — Hydra/START-style two-level tracking: cheap group
//!   counters that spawn per-row counters only for hot groups.
//! * [`OracleRh`] — an idealized perfect-knowledge tracker that bounds every
//!   real tracker's slowdown from below.
//!
//! # Examples
//!
//! ```
//! use autorfm_trackers::{Mint, Tracker};
//! use autorfm_sim_core::{DetRng, RowAddr};
//!
//! let mut rng = DetRng::seeded(1);
//! let mut mint = Mint::new(4, false)?; // window of 4, fractal (N-slot) mode
//! for r in 0..4 {
//!     mint.on_activation(RowAddr(r), &mut rng);
//! }
//! let target = mint.select_for_mitigation(&mut rng);
//! assert!(target.is_some()); // MINT selects exactly one row per window
//! # Ok::<(), autorfm_sim_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abacus;
pub mod dsac;
pub mod graphene;
pub mod hydra;
pub mod mint;
pub mod mithril;
pub mod oracle;
pub mod parfm;
pub mod pride;
pub mod registry;
pub mod tracker;
pub mod trr;

pub use abacus::Abacus;
/// The snapshot codec [`Tracker::save_state`] speaks, re-exported so crates
/// layered on the trackers persist their own state with the same types.
pub use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
pub use dsac::Dsac;
pub use graphene::Graphene;
pub use hydra::HydraStyle;
pub use mint::Mint;
pub use mithril::Mithril;
pub use oracle::OracleRh;
pub use parfm::Parfm;
pub use pride::Pride;
pub use registry::{
    names, AllBankFactory, PerBankFactory, TrackerBuild, TrackerFlags, TrackerInfo, TrackerKind,
    REGISTRY,
};
pub use tracker::{build_bank_trackers, build_tracker, by_name, MitigationTarget, Tracker};
pub use trr::NaiveTrr;

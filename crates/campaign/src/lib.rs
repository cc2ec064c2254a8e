//! # autorfm-campaign
//!
//! The harness as a service: a persistent campaign daemon that accepts sweep
//! requests, expands them into (workload × scenario × tracker × threshold)
//! **cells**, schedules the cells across a worker pool, and streams every
//! completed cell into a **content-addressed store**
//! ([`autorfm::snapshot::store`]) so identical cells — within a campaign,
//! across concurrent campaigns, or across daemon restarts — are computed
//! exactly once.
//!
//! The moving parts:
//!
//! * [`cell`] — [`CellSpec`] (one simulation point, keyed by the
//!   [`autorfm::SimConfig::key`] of the configuration it runs) and
//!   [`SweepRequest`] (the
//!   JSON-shaped request a client submits; expansion and canonical identity
//!   live here).
//! * [`runner`] — [`run_batch_fallible`], the worker entry point: runs a
//!   same-shape group of cells as lanes forked one at a time from one warm
//!   donor ([`autorfm::System::fork_warm`], optionally seeded from a captured
//!   warm state), turning a lane's panic or config error into its own
//!   per-cell error record; and
//!   [`shape_units`], the same-shape grouping that feeds it (shared by the
//!   daemon and the experiment harness, with [`LANES`] lanes per unit at
//!   most by default).
//! * [`daemon`] — [`Daemon`]: the scheduler, the in-memory cell index, the
//!   warm-state pool, dedup accounting, and resumption of persisted
//!   campaigns on restart.
//! * [`http`] / [`server`] — a hand-rolled HTTP/1.1 + JSON layer over
//!   `std::net::TcpListener` (no external dependencies, like the JSON codec
//!   in `autorfm-telemetry`) exposing submit / status / manifest / cell /
//!   stats endpoints.
//!
//! The `campaignd` (daemon) and `campaign` (client) binaries in
//! `crates/bench` are thin wrappers over this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod daemon;
pub mod http;
pub mod runner;
pub mod server;

pub use cell::{CellSpec, SweepRequest};
pub use daemon::{Daemon, DaemonConfig, SubmitOutcome};
pub use runner::{run_batch_fallible, shape_units, BatchOutcome, LANES};
pub use server::serve;

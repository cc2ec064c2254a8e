//! # autorfm-sim-core
//!
//! Simulation kernel shared by every crate in the AutoRFM reproduction:
//!
//! * [`time`] — the global clock ([`Cycle`]) and nanosecond conversions. The whole
//!   simulator runs on a single clock domain: CPU cycles at 4 GHz (0.25 ns / cycle),
//!   matching the baseline configuration of the paper (Table IV).
//! * [`timing`] — DDR5 timing parameters from Table I of the paper ([`DramTimings`]).
//! * [`rng`] — a small, deterministic xoshiro256++ PRNG ([`DetRng`]) so that
//!   simulation results are bit-reproducible across runs and platforms.
//! * [`stats`] — counters, averages and histograms used for reporting.
//! * [`geometry`] — DRAM organization (banks, rows, subarrays) and typed addresses.
//!
//! # Examples
//!
//! ```
//! use autorfm_sim_core::{DramTimings, Geometry, Cycle};
//!
//! let t = DramTimings::ddr5();
//! assert_eq!(t.t_rc.as_ns(), 48);
//! let g = Geometry::paper_baseline();
//! assert_eq!(g.subarrays_per_bank, 256);
//! assert_eq!(Cycle::from_ns(48).raw(), 192); // 4 GHz clock
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod geometry;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timing;

pub use error::ConfigError;
pub use geometry::{BankId, Geometry, LineAddr, PhysAddr, RowAddr, RowId, SubarrayId};
pub use rng::DetRng;
pub use stats::{Average, Counter, Histogram};
pub use time::{Cycle, NanoSec, CYCLES_PER_NS};
pub use timing::{DramTimings, TimingOverride};

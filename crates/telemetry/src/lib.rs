//! # autorfm-telemetry
//!
//! Observability subsystem for the AutoRFM simulator:
//!
//! * [`Registry`] — a labeled metrics registry (counters, gauges, histograms
//!   with quantiles) that the simulator's [`autorfm_sim_core`] statistics
//!   primitives plug into;
//! * [`EpochSampler`] / [`EpochSeries`] — per-tREFI-window time series of
//!   the [`COUNTERS`] (ACTs, ALERTs, REFs, RFMs, …), queue occupancy,
//!   row-hit rate, and per-core IPC, retained in the run's result and
//!   rendered as CSV by [`EpochSeries::write_csv`];
//! * [`RunManifest`] — the machine-readable `results/<target>.json` documents
//!   the experiment harness writes next to every `.txt` report;
//! * [`Json`] — the self-contained JSON value/parser/writer everything above
//!   uses (the build environment is air-gapped; no serde).
//!
//! The `telemetry_report` binary summarizes a manifest, diffs two manifests,
//! and dumps a selected time series as CSV.
//!
//! # Example
//!
//! ```
//! use autorfm_sim_core::Cycle;
//! use autorfm_telemetry::{EpochSampler, Observation, Registry, COUNTERS};
//!
//! let mut reg = Registry::new();
//! reg.counter("dram_acts", &[("scenario", "AutoRFM-4")], 1234);
//!
//! let mut sampler = EpochSampler::new(Cycle::from_ns(3900), 4096); // one tREFI
//! let mut obs = Observation::default();
//! obs.counts[0] = 40; // COUNTERS[0] is "acts"
//! sampler.observe(Cycle::from_ns(3900), obs.clone());
//! let series = sampler.finish(Cycle::from_ns(5000), obs);
//! assert_eq!(series.samples[0].column(COUNTERS[0]), Some(40.0));
//! assert!(series.samples[1].partial);
//!
//! let mut csv = Vec::new();
//! series.write_csv(&mut csv)?;
//! let csv = String::from_utf8(csv).unwrap();
//! assert!(csv.starts_with("index,start_ns,end_ns,acts,"));
//! assert_eq!(csv.lines().count(), 3); // header + one row per sample
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod epoch;
pub mod json;
pub mod manifest;
pub mod registry;

pub use epoch::{
    EpochSample, EpochSampler, EpochSeries, Observation, COUNTERS, DEFAULT_MAX_SAMPLES,
};
pub use json::{Json, JsonError};
pub use manifest::{MetricDelta, RunEntry, RunManifest, SCHEMA_VERSION};
pub use registry::{Labels, Metric, MetricValue, Registry};

//! # autorfm
//!
//! AutoRFM: scaling low-cost in-DRAM Rowhammer trackers to ultra-low
//! thresholds — a full reproduction of the HPCA 2025 paper as a Rust library.
//!
//! This crate assembles the complete evaluation system of the paper:
//!
//! * 8 out-of-order cores + shared LLC ([`autorfm_cpu`]),
//! * a DDR5 memory controller with RFM / AutoRFM / PRAC support
//!   ([`autorfm_memctrl`]),
//! * the DDR5 device model with subarrays, trackers, and mitigation policies
//!   ([`autorfm_dram`], [`autorfm_trackers`], [`autorfm_mitigation`]),
//! * AMD-Zen and Rubix randomized memory mappings ([`autorfm_mapping`]),
//! * the 21 synthetic Table-V workloads ([`autorfm_workloads`]).
//!
//! The central types are [`SimConfig`] (what to simulate), [`System`] (the
//! assembled machine), and [`SimResult`] (performance + DRAM statistics).
//! [`experiments`] provides the named scenarios used throughout the paper's
//! evaluation (RFM-N, AutoRFM-N, PRAC, mapping ablations).
//!
//! # Quickstart
//!
//! ```
//! use autorfm::{experiments::Scenario, SimConfig, System};
//! use autorfm_workloads::WorkloadSpec;
//!
//! // Simulate `bwaves` under AutoRFM-4 (MINT + Fractal Mitigation + Rubix).
//! let spec = WorkloadSpec::by_name("bwaves").unwrap();
//! let cfg = SimConfig::builder(spec)
//!     .scenario(Scenario::AutoRfm { th: 4 })
//!     .cores(2)
//!     .instructions(20_000)
//!     .build()?;
//! let result = System::new(cfg)?.run();
//! assert!(result.perf() > 0.0);
//! # Ok::<(), autorfm_sim_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod config;
pub mod experiments;
pub mod result;
pub mod storage;
pub mod system;

pub use config::{MappingKind, SimConfig, SimConfigBuilder, TelemetryConfig};
pub use result::SimResult;
pub use system::{warm_digest, KernelKind, System};

pub use autorfm_snapshot as snapshot;

/// Convenience re-exports for downstream users:
/// `use autorfm::prelude::*;` pulls in the types most programs need.
pub mod prelude {
    pub use crate::experiments::Scenario;
    pub use crate::{
        KernelKind, MappingKind, SimConfig, SimConfigBuilder, SimResult, System, TelemetryConfig,
    };
    pub use autorfm_dram::DeviceMitigation;
    pub use autorfm_mitigation::MitigationKind;
    pub use autorfm_sim_core::{Cycle, DramTimings, Geometry};
    pub use autorfm_trackers::TrackerKind;
    pub use autorfm_workloads::WorkloadSpec;
}

// Re-export the component crates under predictable names.
pub use autorfm_analysis as analysis;
pub use autorfm_cpu as cpu;
pub use autorfm_dram as dram;
pub use autorfm_mapping as mapping;
pub use autorfm_memctrl as memctrl;
pub use autorfm_mitigation as mitigation;
pub use autorfm_power as power;
pub use autorfm_sim_core as sim_core;
pub use autorfm_telemetry as telemetry;
pub use autorfm_trackers as trackers;
pub use autorfm_workloads as workloads;

/// Lane-identity tests for batched cells. A batch is one never-stepped donor
/// and lanes forked from it with [`System::fork_warm`] (the path
/// `autorfm_campaign::run_batch_fallible` takes); every lane must equal the
/// standalone run of its own configuration, whether the donor was built cold
/// or from a captured [`System::warm_state`].
#[cfg(test)]
mod batch {
    mod tests {
        use crate::config::MappingKind;
        use crate::experiments::Scenario;
        use crate::{KernelKind, SimConfig, System};
        use autorfm_workloads::WorkloadSpec;

        fn lane_cfg(scenario: Scenario) -> SimConfig {
            let spec = WorkloadSpec::by_name("mcf").unwrap();
            SimConfig::builder(spec)
                .scenario(scenario)
                .cores(2)
                .instructions(4_000)
                .build()
                .unwrap()
        }

        /// Forks and runs every lane from `donor`, one after another.
        fn run_lanes(donor: &System, cfgs: &[SimConfig]) -> Vec<String> {
            cfgs.iter()
                .map(|cfg| {
                    let result = donor
                        .fork_warm(cfg.clone())
                        .unwrap()
                        .run_with(KernelKind::Event);
                    format!("{result:?}")
                })
                .collect()
        }

        #[test]
        fn lanes_match_standalone_runs() {
            let scenarios = [
                Scenario::Baseline {
                    mapping: MappingKind::Zen,
                },
                Scenario::AutoRfm { th: 4 },
                Scenario::Rfm { th: 8 },
            ];
            let cfgs: Vec<SimConfig> = scenarios.iter().map(|&s| lane_cfg(s)).collect();
            let donor = System::new(cfgs[0].clone()).unwrap();
            let results = run_lanes(&donor, &cfgs);
            for (cfg, batched) in cfgs.into_iter().zip(&results) {
                let standalone = System::new(cfg).unwrap().run_with(KernelKind::Event);
                assert_eq!(
                    &format!("{standalone:?}"),
                    batched,
                    "lane diverged from standalone"
                );
            }
        }

        #[test]
        fn warm_seeded_batch_matches_cold_batch() {
            let cfgs = vec![
                lane_cfg(Scenario::AutoRfm { th: 4 }),
                lane_cfg(Scenario::Rfm { th: 8 }),
            ];
            let cold = System::new(cfgs[0].clone()).unwrap();
            let warm = cold.warm_state();
            let seeded = System::new_from_warm(cfgs[0].clone(), &warm).unwrap();
            assert_eq!(run_lanes(&seeded, &cfgs), run_lanes(&cold, &cfgs));
        }

        #[test]
        fn mismatched_shapes_are_rejected() {
            let a = lane_cfg(Scenario::AutoRfm { th: 4 });
            let b = SimConfig {
                seed: 99,
                ..lane_cfg(Scenario::AutoRfm { th: 4 })
            };
            let donor = System::new(a).unwrap();
            assert!(donor.fork_warm(b.clone()).is_err());
            assert!(System::new_from_warm(b, &donor.warm_state()).is_err());
        }
    }
}

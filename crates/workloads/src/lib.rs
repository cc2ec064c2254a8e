//! # autorfm-workloads
//!
//! Synthetic workload generators and trace record/replay.
//!
//! The paper evaluates on SPEC-2017, GAP, and STREAM binaries (Table V). Real
//! traces are not redistributable, so this crate provides one synthetic
//! generator per named workload, calibrated to reproduce each benchmark's
//! memory behaviour class (streaming / random / graph-mixed), memory intensity
//! (ACT-PKI) and write mix. Every spec also records the paper's reported
//! ACT-PKI and ACT-per-tREFI so the Table-V harness can print paper-vs-measured
//! side by side. See DESIGN.md ("Substitutions") for why this preserves the
//! paper's results.
//!
//! Adversarial Rowhammer patterns live in `autorfm_analysis::AttackPattern`
//! (one genome type for replay, search, and storage).
//!
//! # Examples
//!
//! ```
//! use autorfm_workloads::{WorkloadGen, WorkloadSpec};
//! use autorfm_cpu::InstructionStream;
//!
//! let spec = WorkloadSpec::by_name("bwaves").unwrap();
//! let mut gen = WorkloadGen::new(spec, /*core=*/0, /*seed=*/42);
//! let _first_op = gen.next_op();
//! assert_eq!(spec.paper_act_pki, 35.7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod spec;
pub mod tracefile;

pub use generator::WorkloadGen;
pub use spec::{Pattern, Suite, WorkloadSpec, ALL_WORKLOADS};
pub use tracefile::{TraceFile, TraceOp, TraceReplay};

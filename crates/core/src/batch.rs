//! Batched lockstep simulation.
//!
//! A [`SimBatch`] runs N independent [`System`]s of the same *shape* (equal
//! [`warm_digest`]: workloads, core count, seed, warmup, LLC geometry) in one
//! process, advancing them in bounded lockstep chunks. Batching is a pure
//! scheduling transform — every lane produces the bitwise-identical
//! [`SimResult`] and snapshot bytes it would standalone — but the shared work
//! is paid once instead of N times:
//!
//! * **warmup**: lane 0 warms up cold; every other lane forks from it
//!   in memory via [`System::fork_warm`] (no snapshot round trip).
//! * **trace generation**: one [`TraceMemo`] per core records the op stream;
//!   all lanes replay it read-only through [`System::attach_trace_memos`].
//! * **locality**: lockstep chunks keep one lane's SoA bank state, LLC sets,
//!   and wake caches hot in cache for thousands of steps before switching.

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::system::{warm_digest, KernelKind, System};
use autorfm_sim_core::ConfigError;
use autorfm_workloads::TraceMemo;
use std::sync::Arc;

/// Steps each lane advances per lockstep turn. A lane switch evicts the
/// lane's working set (LLC model, bank timing columns, queues — megabytes)
/// from the host caches, so the chunk must be large enough to amortize that
/// refill; recorded trace chunks are retained for the life of the memo, so a
/// lane running a full chunk ahead of the slowest costs only the memory of
/// the recorded ops in between. 2^20 steps ≈ 1 ms of simulated time per
/// turn keeps short runs at near-sequential locality while still bounding
/// lane skew on long campaigns.
const LOCKSTEP_CHUNK_STEPS: u64 = 1 << 20;

/// N same-shape simulations advancing in lockstep. See the module docs.
pub struct SimBatch {
    lanes: Vec<System>,
    /// Per-lane final result, filled as lanes finish (lanes retire their
    /// instruction budgets at different simulated times).
    done: Vec<Option<SimResult>>,
}

impl core::fmt::Debug for SimBatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SimBatch")
            .field("lanes", &self.lanes.len())
            .field(
                "finished",
                &self.done.iter().filter(|d| d.is_some()).count(),
            )
            .finish()
    }
}

impl SimBatch {
    /// Builds one lane per configuration. All configurations must share lane
    /// 0's [`warm_digest`]; warmup runs once (lane 0) and forks, and all
    /// lanes replay one shared recorded trace per core.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if no configurations are given, any lane's
    /// configuration is invalid, or the warm digests disagree.
    pub fn new(cfgs: Vec<SimConfig>) -> Result<Self, ConfigError> {
        Self::build(cfgs, None)
    }

    /// Like [`SimBatch::new`], but lane 0 adopts a previously captured
    /// [`System::warm_state`] container instead of simulating warmup from
    /// cold. The campaign daemon uses this to serve every batch of a given
    /// shape after the first from its in-memory warm pool.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as
    /// [`SimBatch::new`], or if the warm container is invalid or its digest
    /// does not match the lanes' shape.
    pub fn new_from_warm(cfgs: Vec<SimConfig>, warm: &[u8]) -> Result<Self, ConfigError> {
        Self::build(cfgs, Some(warm))
    }

    fn build(cfgs: Vec<SimConfig>, warm: Option<&[u8]>) -> Result<Self, ConfigError> {
        let Some(first_cfg) = cfgs.first().cloned() else {
            return Err(ConfigError::new("a batch needs at least one lane"));
        };
        let shape = warm_digest(&first_cfg);
        for (i, cfg) in cfgs.iter().enumerate().skip(1) {
            if warm_digest(cfg) != shape {
                return Err(ConfigError::new(format!(
                    "lane {i} has a different shape (warm digest) than lane 0; \
                     batch lanes must share workloads, cores, seed, and warmup"
                )));
            }
        }
        let first = match warm {
            None => System::new(first_cfg.clone())?,
            Some(bytes) => System::new_from_warm(first_cfg.clone(), bytes)
                .map_err(|e| ConfigError::new(format!("bad warm state for lane 0: {e}")))?,
        };
        let mut lanes = vec![first];
        for cfg in cfgs.into_iter().skip(1) {
            let forked = lanes[0].fork_warm(cfg)?;
            lanes.push(forked);
        }
        let memos: Vec<Arc<TraceMemo>> = (0..first_cfg.num_cores)
            .map(|core| {
                Arc::new(TraceMemo::new(
                    first_cfg.workload_of(core),
                    core,
                    first_cfg.seed,
                    first_cfg.warmup_mem_ops_per_core,
                ))
            })
            .collect();
        for lane in &mut lanes {
            lane.attach_trace_memos(&memos);
        }
        let done = (0..lanes.len()).map(|_| None).collect();
        Ok(SimBatch { lanes, done })
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch has no lanes (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Lane `i`, for inspection or snapshotting mid-run.
    pub fn lane(&self, i: usize) -> &System {
        &self.lanes[i]
    }

    /// Advances every unfinished lane by at most `steps_per_lane` steps under
    /// `kernel`, round-robin. Returns `true` once every lane has finished
    /// (results are retained for [`SimBatch::run_with`]).
    pub fn advance_with(&mut self, steps_per_lane: u64, kernel: KernelKind) -> bool {
        let mut all_done = true;
        for (lane, done) in self.lanes.iter_mut().zip(&mut self.done) {
            if done.is_some() {
                continue;
            }
            match lane.run_steps_with(steps_per_lane, kernel) {
                Some(result) => *done = Some(result),
                None => all_done = false,
            }
        }
        all_done
    }

    /// Runs every lane to completion in lockstep chunks and returns the
    /// per-lane results, in lane order. Each result is bitwise identical to
    /// running that lane's configuration standalone under the same kernel.
    pub fn run_with(&mut self, kernel: KernelKind) -> Vec<SimResult> {
        while !self.advance_with(LOCKSTEP_CHUNK_STEPS, kernel) {}
        self.done
            .iter_mut()
            .map(|d| d.take().expect("all lanes finished"))
            .collect()
    }

    /// [`SimBatch::run_with`] under the environment-selected kernel.
    pub fn run(&mut self) -> Vec<SimResult> {
        self.run_with(KernelKind::from_env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingKind;
    use crate::experiments::Scenario;
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
        let mut batch = SimBatch::new(cfgs.clone()).unwrap();
        let results = batch.run_with(KernelKind::Event);
        for (cfg, batched) in cfgs.into_iter().zip(&results) {
            let standalone = System::new(cfg).unwrap().run_with(KernelKind::Event);
            assert_eq!(
                format!("{standalone:?}"),
                format!("{batched:?}"),
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
        let warm = System::new(cfgs[0].clone()).unwrap().warm_state();
        let warm_results = SimBatch::new_from_warm(cfgs.clone(), &warm)
            .unwrap()
            .run_with(KernelKind::Event);
        let cold_results = SimBatch::new(cfgs).unwrap().run_with(KernelKind::Event);
        for (w, c) in warm_results.iter().zip(&cold_results) {
            assert_eq!(format!("{w:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn garbage_warm_state_is_rejected() {
        let cfgs = vec![lane_cfg(Scenario::AutoRfm { th: 4 })];
        assert!(SimBatch::new_from_warm(cfgs, b"not a container").is_err());
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(SimBatch::new(Vec::new()).is_err());
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let a = lane_cfg(Scenario::AutoRfm { th: 4 });
        let b = SimConfig {
            seed: 99,
            ..lane_cfg(Scenario::AutoRfm { th: 4 })
        };
        assert!(SimBatch::new(vec![a, b]).is_err());
    }
}

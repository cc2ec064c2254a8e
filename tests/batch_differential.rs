//! Differential tests: warm-forked lanes must be observationally identical
//! to standalone runs.
//!
//! Batched cells share warmup: one never-stepped donor warms up and every
//! lane is built from it with [`System::fork_warm`]. That is a construction
//! shortcut only: these tests fork a (workload × tracker) matrix from one
//! donor per workload — on both kernels — and require every lane's
//! [`SimResult`] and sealed-snapshot digest to match a standalone run of the
//! same configuration, including snapshots taken mid-run and resumed.

use autorfm::experiments::Scenario;
use autorfm::trackers::{self, TrackerKind};
use autorfm::{KernelKind, SimConfig, SimResult, System};
use autorfm_workloads::WorkloadSpec;

/// Same full-stack smoke shape as `tests/kernel_differential.rs`. All
/// trackers share one warm digest (trackers are scenario-level state), so
/// the per-workload tracker sweep is exactly the same-shape lane set one
/// donor serves.
fn smoke_config(workload: &str, tracker: TrackerKind) -> SimConfig {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    SimConfig::builder(spec)
        .scenario(Scenario::AutoRfmWith { th: 4, tracker })
        .cores(2)
        .instructions(2_000)
        .seed(42)
        .warmup_mem_ops(2_000)
        .build()
        .expect("valid smoke config")
}

/// One lane per registered tracker.
fn tracker_lanes(workload: &str) -> Vec<SimConfig> {
    trackers::names()
        .iter()
        .map(|name| smoke_config(workload, name.parse().expect("registry name parses")))
        .collect()
}

/// `SimResult`'s `Debug` rendering is a lossless textual fingerprint of every
/// field, so equal strings means bitwise-equal results.
fn fingerprint(r: &SimResult) -> String {
    format!("{r:?}")
}

fn snapshot_digest(sys: &System) -> u64 {
    let snap = sys.snapshot().expect("snapshot serializes");
    autorfm::snapshot::open(&snap)
        .expect("snapshot reopens")
        .digest
}

/// Every forked lane must finish bitwise identical to a standalone run of
/// its configuration — results and final machine state — on both kernels.
#[test]
fn batch_lanes_match_standalone_across_matrix() {
    for kernel in [KernelKind::Event, KernelKind::Stepped] {
        for workload in ["mcf", "wrf"] {
            let cfgs = tracker_lanes(workload);
            let donor = System::new(cfgs[0].clone()).unwrap();
            for (i, cfg) in cfgs.into_iter().enumerate() {
                let tracker = trackers::names()[i];
                let mut lane = donor.fork_warm(cfg.clone()).expect("same-shape lane");
                let forked = lane.run_with(kernel);
                let mut standalone = System::new(cfg).unwrap();
                let r = standalone.run_with(kernel);
                assert_eq!(
                    fingerprint(&r),
                    fingerprint(&forked),
                    "lane {i} ({tracker}) diverged from standalone on \
                     {workload} under the {} kernel",
                    kernel.name()
                );
                assert_eq!(
                    snapshot_digest(&standalone),
                    snapshot_digest(&lane),
                    "lane {i} ({tracker}) final state diverged on {workload} \
                     under the {} kernel",
                    kernel.name()
                );
            }
        }
    }
}

/// A forked lane snapshotted mid-run must (a) hash identically to a
/// standalone run paused at the same step boundary, and (b) restore into a
/// system that finishes bitwise identical to the live lane itself.
#[test]
fn mid_run_lane_snapshot_restores_identically() {
    let cfgs = tracker_lanes("mcf");
    let probed = 1usize; // an arbitrary lane other than the donor's own
    let budget = 500;

    let donor = System::new(cfgs[0].clone()).unwrap();
    let mut lane = donor
        .fork_warm(cfgs[probed].clone())
        .expect("same-shape lane");
    assert!(
        lane.run_steps_with(budget, KernelKind::Event).is_none(),
        "checkpoint must land mid-run"
    );

    // (a) Same boundary, same machine state as an unforked run.
    let mut standalone = System::new(cfgs[probed].clone()).unwrap();
    assert!(standalone
        .run_steps_with(budget, KernelKind::Event)
        .is_none());
    assert_eq!(
        snapshot_digest(&standalone),
        snapshot_digest(&lane),
        "mid-run lane snapshot diverged from the standalone boundary"
    );

    // (b) Restore the lane's snapshot and race it against the live lane.
    let snap = lane.snapshot().expect("snapshot serializes");
    let mut restored = System::restore(cfgs[probed].clone(), &snap).expect("snapshot restores");
    let r_restored = restored.run_with(KernelKind::Event);
    let r_lane = lane.run_with(KernelKind::Event);
    assert_eq!(
        fingerprint(&r_lane),
        fingerprint(&r_restored),
        "restored lane diverged from the live lane's own finish"
    );
}

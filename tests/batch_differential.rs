//! Differential tests: warm-forked lanes must be observationally identical
//! to standalone runs.
//!
//! Batched cells share warmup: one never-stepped machine warms up and gives
//! up its [`autorfm::Warm`] state ([`System::into_warm`]), and every lane is
//! built from it with [`System::from_warm`]. That is a construction shortcut
//! only: these tests build a (workload × tracker) matrix from one warm state
//! per workload — on both kernels — and require every lane's
//! [`SimResult`] and sealed-snapshot digest to match a standalone run of the
//! same configuration, including snapshots taken mid-run and resumed.

use autorfm::experiments::Scenario;
use autorfm::trackers::{self, TrackerKind};
use autorfm::{KernelKind, SimConfig, SimResult, System};
use autorfm_workloads::WorkloadSpec;

/// Same full-stack smoke shape as `tests/kernel_differential.rs`. All
/// trackers share one warm digest (trackers are scenario-level state), so
/// the per-workload tracker sweep is exactly the same-shape lane set one
/// warm state serves.
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
        .digest()
}

/// Every lane built from warm state must finish bitwise identical to a standalone run of
/// its configuration — results and final machine state — on both kernels.
#[test]
fn batch_lanes_match_standalone_across_matrix() {
    for kernel in [KernelKind::Event, KernelKind::Stepped] {
        for workload in ["mcf", "wrf"] {
            let cfgs = tracker_lanes(workload);
            let warm = System::new(cfgs[0].clone()).unwrap().into_warm().unwrap();
            for (i, cfg) in cfgs.into_iter().enumerate() {
                let tracker = trackers::names()[i];
                let mut lane = System::from_warm(cfg.clone(), &warm).expect("same-shape lane");
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

/// A lane snapshotted mid-run must (a) hash identically to a
/// standalone run paused at the same step boundary, and (b) restore into a
/// system that finishes bitwise identical to the live lane itself.
#[test]
fn mid_run_lane_snapshot_restores_identically() {
    let cfgs = tracker_lanes("mcf");
    let probed = 1usize; // an arbitrary lane other than lane 0
    let budget = 500;

    let warm = System::new(cfgs[0].clone()).unwrap().into_warm().unwrap();
    let mut lane = System::from_warm(cfgs[probed].clone(), &warm).expect("same-shape lane");
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

/// perfbench's sweep scenario set (`perfbench/src/sweep.rs`).
const SWEEP_SCENARIOS: [&str; 12] = [
    "baseline-zen",
    "baseline-rubix",
    "RFM-2",
    "RFM-4",
    "RFM-8",
    "RFM-4-rubix",
    "AutoRFM-2",
    "AutoRFM-4",
    "AutoRFM-8",
    "AutoRFM-4-zen",
    "AutoRFM-4-recursive",
    "PRAC-ABO32",
];

/// The three ways to build a machine — warming it up, decoding sealed warm
/// bytes, cloning an in-memory `Warm` — reach the same state 1,000 steps in,
/// for every sweep scenario. perfbench forks through the bytes, so this pins
/// the warm-state codec (the LLC's above all) on the benchmark's own path.
#[test]
fn fork_paths_agree_on_every_sweep_scenario() {
    let spec = WorkloadSpec::by_name("wrf").expect("known workload");
    let cfgs: Vec<SimConfig> = SWEEP_SCENARIOS
        .iter()
        .map(|s| {
            SimConfig::builder(spec)
                .scenario(s.parse().expect("sweep scenarios parse"))
                .cores(2)
                .instructions(50_000)
                .seed(7)
                .warmup_mem_ops(20_000)
                .build()
                .expect("valid sweep config")
        })
        .collect();
    let donor = System::new(cfgs[0].clone()).unwrap();
    let bytes = donor.warm_state();
    let warm = donor.into_warm().unwrap();
    for (cfg, scenario) in cfgs.into_iter().zip(SWEEP_SCENARIOS) {
        let [warmed, decoded, cloned] = [
            System::new(cfg.clone()).unwrap(),
            System::new_from_warm(cfg.clone(), &bytes).expect("warm bytes decode"),
            System::from_warm(cfg, &warm).expect("same-shape lane"),
        ]
        .map(|mut sys| {
            assert!(sys.run_steps(1_000).is_none(), "1,000 steps is mid-run");
            snapshot_digest(&sys)
        });
        assert_eq!(warmed, decoded, "new_from_warm diverged under {scenario}");
        assert_eq!(warmed, cloned, "from_warm diverged under {scenario}");
    }
}

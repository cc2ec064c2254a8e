//! Differential tests: the event-driven time-skip kernel must be
//! observationally identical to the stepped oracle kernel.
//!
//! The event kernel (the default) leaps over steps it can prove are no-ops;
//! the stepped kernel executes every step and serves as the correctness
//! oracle (see `DESIGN.md`, "The clocking contract"). These tests run a
//! (workload × tracker) smoke matrix through both kernels and require
//! bitwise-identical [`SimResult`]s and identical sealed-snapshot digests —
//! the digest fingerprints the *entire* machine state, so any step the event
//! kernel wrongly skipped (or wrongly executed) shows up here.

use autorfm::experiments::Scenario;
use autorfm::memctrl::{PagePolicy, RaaRefCredit, RetryPolicy, WritePolicy};
use autorfm::sim_core::Cycle;
use autorfm::trackers::{self, TrackerKind};
use autorfm::{KernelKind, SimConfig, SimResult, System, TelemetryConfig};
use autorfm_dram::RefreshPolicy;
use autorfm_workloads::WorkloadSpec;

/// A small but full-stack configuration: enough instructions for the caches,
/// controller queues, and mitigation trackers to all see traffic, small
/// enough that the matrix stays a smoke test.
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

/// `SimResult` holds floats and nested stat blocks; its `Debug` rendering is
/// a lossless textual fingerprint of every field, so equal strings means
/// bitwise-equal results.
fn fingerprint(r: &SimResult) -> String {
    format!("{r:?}")
}

fn snapshot_digest(sys: &System) -> u64 {
    let snap = sys.snapshot().expect("snapshot serializes");
    autorfm::snapshot::open(&snap)
        .expect("snapshot reopens")
        .digest()
}

/// Completed runs must be bitwise identical across the smoke matrix, and the
/// final machine states must hash to the same sealed-snapshot digest.
///
/// The tracker axis iterates the plugin registry (`trackers::names()`), so
/// registering a tracker automatically enrolls it in the kernel differential
/// — including cross-bank-scope trackers like ABACuS, whose shared state
/// must behave identically under stepped ticking and event-kernel leaps.
#[test]
fn kernels_agree_on_workload_tracker_matrix() {
    for workload in ["mcf", "wrf"] {
        for name in trackers::names() {
            let tracker: TrackerKind = name.parse().expect("registry name parses");
            let mut stepped = System::new(smoke_config(workload, tracker)).unwrap();
            let mut event = System::new(smoke_config(workload, tracker)).unwrap();
            let r_stepped = stepped.run_with(KernelKind::Stepped);
            let r_event = event.run_with(KernelKind::Event);
            assert_eq!(
                fingerprint(&r_stepped),
                fingerprint(&r_event),
                "SimResult diverged on {workload} × {name}"
            );
            assert_eq!(
                snapshot_digest(&stepped),
                snapshot_digest(&event),
                "final snapshot digest diverged on {workload} × {name}"
            );
            let (executed, skipped) = event.kernel_stats();
            assert!(
                skipped > 0,
                "event kernel never skipped on {workload} × {name} \
                 ({executed} steps executed)"
            );
        }
    }
}

/// Every controller policy that changes which banks the event kernel's tick
/// finds due, one at a time against the default `McConfig`: per-request
/// retry holds, open-page precharge, per-bank REF rotation, buffered writes
/// (their write queues are part of each bank's cached candidates) and the
/// half RAA credit (under RFM, the only scenario that keeps RAA counters). Each must stay bitwise identical
/// to the stepped oracle, result and final snapshot digest alike.
///
/// The runs are longer than the smoke matrix's so that every policy acts:
/// each crosses several tREFI (REFs and RAA credits), and mcf's warmed LLC
/// evicts dirty lines (writes reach the controller), while wrf's cold one
/// keeps it activating.
#[test]
fn kernels_agree_across_controller_policies() {
    let autorfm = Scenario::AutoRfmWith {
        th: 4,
        tracker: TrackerKind::Mint,
    };
    type Variant = (&'static str, Scenario, fn(&mut SimConfig));
    let variants: [Variant; 5] = [
        ("per-request retry", autorfm, |c| {
            c.mc.retry = RetryPolicy::PerRequest
        }),
        ("open page", autorfm, |c| {
            c.mc.page_policy = PagePolicy::Open
        }),
        ("per-bank refresh", autorfm, |c| {
            c.refresh = RefreshPolicy::PerBank
        }),
        ("buffered writes", autorfm, |c| {
            c.mc.write_policy = WritePolicy::Buffered {
                capacity: 32,
                high: 24,
                low: 8,
            }
        }),
        ("half RAA credit", Scenario::Rfm { th: 4 }, |c| {
            c.mc.raa_ref_credit = RaaRefCredit::Half
        }),
    ];
    for (workload, warmup) in [("mcf", 100_000), ("wrf", 2_000)] {
        for (name, scenario, set) in variants {
            let spec = WorkloadSpec::by_name(workload).expect("known workload");
            let mut cfg = SimConfig::builder(spec)
                .scenario(scenario)
                .cores(2)
                .instructions(100_000)
                .seed(42)
                .warmup_mem_ops(warmup)
                .build()
                .expect("valid policy config");
            set(&mut cfg);
            let mut stepped = System::new(cfg.clone()).unwrap();
            let mut event = System::new(cfg).unwrap();
            let r_stepped = stepped.run_with(KernelKind::Stepped);
            let r_event = event.run_with(KernelKind::Event);
            assert_eq!(
                fingerprint(&r_stepped),
                fingerprint(&r_event),
                "SimResult diverged on {workload} × {name}"
            );
            assert_eq!(
                snapshot_digest(&stepped),
                snapshot_digest(&event),
                "final snapshot digest diverged on {workload} × {name}"
            );
            let dram = &r_event.dram;
            assert!(dram.refs.get() > 0, "{workload} × {name} crossed no REF");
            assert!(
                workload != "mcf" || dram.writes.get() > 0,
                "{workload} × {name} wrote nothing back"
            );
        }
    }
}

/// Compute-heavy 8-core runs, where nearly every op is non-memory and the
/// cores dispatch and retire them as runs, with a telemetry epoch short
/// enough that many epochs close mid-run: both kernels must produce the same
/// result and the same epoch series.
#[test]
fn kernels_agree_on_compute_heavy_eight_core_runs_with_telemetry() {
    for workload in ["xz", "cam4"] {
        let spec = WorkloadSpec::by_name(workload).expect("known workload");
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(8)
            .instructions(200_000)
            .seed(42)
            .warmup_mem_ops(2_000)
            .telemetry(TelemetryConfig {
                epoch: Some(Cycle::from_ns(1_000)),
                max_samples: None,
            })
            .build()
            .expect("valid compute config");
        let mut stepped = System::new(cfg.clone()).unwrap();
        let mut event = System::new(cfg).unwrap();
        let r_stepped = stepped.run_with(KernelKind::Stepped);
        let r_event = event.run_with(KernelKind::Event);
        let epochs = r_event.series.as_ref().map_or(0, |s| s.samples.len());
        assert!(epochs > 8, "{workload}: only {epochs} epochs");
        assert_eq!(
            fingerprint(&r_stepped),
            fingerprint(&r_event),
            "SimResult diverged on {workload}"
        );
    }
}

/// `run_steps(max_steps)` must stop at exactly the same step boundary on both
/// kernels: a leap that would overshoot the budget has to be truncated so
/// mid-run checkpoints (and their golden digests) stay kernel-independent.
#[test]
fn run_steps_stops_on_identical_boundary() {
    let budget = 500;
    let mut stepped = System::new(smoke_config("mcf", TrackerKind::Mint)).unwrap();
    let mut event = System::new(smoke_config("mcf", TrackerKind::Mint)).unwrap();
    assert!(stepped
        .run_steps_with(budget, KernelKind::Stepped)
        .is_none());
    assert!(event.run_steps_with(budget, KernelKind::Event).is_none());
    assert_eq!(
        stepped.now(),
        event.now(),
        "kernels paused at different cycles"
    );
    assert_eq!(
        snapshot_digest(&stepped),
        snapshot_digest(&event),
        "mid-run snapshot digest diverged at the step boundary"
    );

    // Resuming each paused system to completion must also converge.
    let r_stepped = stepped.run_with(KernelKind::Stepped);
    let r_event = event.run_with(KernelKind::Event);
    assert_eq!(fingerprint(&r_stepped), fingerprint(&r_event));
}

/// Wake caches are redundant state: a snapshot never serializes them, and a
/// restored machine rebuilds them from the restored queues/device before its
/// first query. The restored event kernel therefore leaps off *rebuilt*
/// caches immediately — and must still finish bitwise identical to an
/// uninterrupted event run (and, transitively, to the stepped oracle).
#[test]
fn restored_caches_rebuild_and_leap_identically() {
    let cfg = smoke_config("mcf", TrackerKind::Mint);
    let mut uninterrupted = System::new(cfg.clone()).unwrap();
    let r_full = uninterrupted.run_with(KernelKind::Event);

    let mut victim = System::new(cfg.clone()).unwrap();
    assert!(
        victim.run_steps_with(500, KernelKind::Event).is_none(),
        "checkpoint must land mid-run"
    );
    let snap = victim.snapshot().expect("snapshot serializes");
    drop(victim); // the "killed" run: its live caches die with it
    let mut restored = System::restore(cfg, &snap).expect("snapshot restores");
    let r_resumed = restored.run_with(KernelKind::Event);

    assert_eq!(
        fingerprint(&r_full),
        fingerprint(&r_resumed),
        "restored run diverged from the uninterrupted one"
    );
    assert_eq!(
        snapshot_digest(&uninterrupted),
        snapshot_digest(&restored),
        "final machine state diverged after restore-then-leap"
    );
}

/// `campaignd --kernel` selects a kernel by name; the parser behind it must
/// accept both spellings and reject everything else.
#[test]
fn kernel_names_round_trip() {
    for kernel in [KernelKind::Event, KernelKind::Stepped] {
        assert_eq!(KernelKind::parse(kernel.name()), Some(kernel));
    }
    assert_eq!(KernelKind::parse("warp-speed"), None);
}

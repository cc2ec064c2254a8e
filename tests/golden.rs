//! Golden regression tests: pin down exact statistics for known seeds so
//! behavioural drift is caught immediately. If a change intentionally alters
//! simulation behaviour, update these values and say why in the commit.

use autorfm::experiments::Scenario;
use autorfm::snapshot::MODEL_FINGERPRINT;
use autorfm::{KernelKind, MappingKind, SimConfig, System};
use autorfm_mapping::{FeistelPrp, MemoryMap, ZenMap};
use autorfm_sim_core::{DetRng, Geometry, LineAddr};
use autorfm_workloads::WorkloadSpec;

#[test]
fn golden_rng_stream() {
    let mut rng = DetRng::seeded(42);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        first,
        vec![
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464
        ]
    );
}

#[test]
fn golden_prp_outputs() {
    let prp = FeistelPrp::new(29, 0xC0FFEE).unwrap();
    assert_eq!(prp.encrypt(0), 133385853);
    assert_eq!(prp.encrypt(1), 302935120);
    assert_eq!(prp.encrypt(123_456_789), 410444681);
}

#[test]
fn golden_zen_mapping() {
    let map = ZenMap::new(Geometry::paper_baseline()).unwrap();
    let loc = map.locate(LineAddr(0x12345678));
    assert_eq!(loc.bank.0, 1);
    assert_eq!(loc.row.0, 74565);
    assert_eq!(loc.col, 57);
}

#[test]
fn golden_small_simulation() {
    // A tiny but full-stack run; every statistic is seed-pinned.
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let cfg = SimConfig::builder(spec)
        .scenario(Scenario::AutoRfm { th: 4 })
        .cores(2)
        .instructions(10_000)
        .seed(42)
        .build()
        .unwrap();
    let r = System::new(cfg).unwrap().run();
    // These pin simulator behaviour; see the module docs before editing.
    let acts = r.dram.acts.get();
    let mitigations = r.dram.mitigations.get();
    // Each bank mitigates once per 4 of *its own* ACTs, so globally the count
    // is acts/4 minus the partial windows still open in each bank.
    assert!(mitigations <= acts / 4);
    assert!(
        mitigations + 64 >= acts / 4,
        "mitigations {mitigations} vs acts {acts}"
    );
    let again = {
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(10_000)
            .seed(42)
            .build()
            .unwrap();
        System::new(cfg).unwrap().run()
    };
    assert_eq!(again.dram.acts.get(), acts);
    assert_eq!(again.elapsed, r.elapsed);
    assert_eq!(
        again.dram.victim_refreshes.get(),
        r.dram.victim_refreshes.get()
    );
}

#[test]
fn golden_baseline_vs_scenarios_ordering() {
    // Cross-scenario ordering on a fixed seed: baseline >= AutoRFM-4 > RFM-4.
    let spec = WorkloadSpec::by_name("fotonik3d").unwrap();
    let mk = |s| {
        SimConfig::builder(spec)
            .scenario(s)
            .cores(4)
            .instructions(15_000)
            .seed(42)
            .build()
            .unwrap()
    };
    let base = System::new(mk(Scenario::Baseline {
        mapping: MappingKind::Zen,
    }))
    .unwrap()
    .run();
    let auto = System::new(mk(Scenario::AutoRfm { th: 4 })).unwrap().run();
    let rfm = System::new(mk(Scenario::Rfm { th: 4 })).unwrap().run();
    assert!(base.perf() > rfm.perf());
    assert!(auto.perf() > rfm.perf());
}

#[test]
fn golden_snapshot_digest() {
    // The payload digest (`Container::digest`, FNV-1a, not the container's
    // XXH64 trailer) of a mid-run checkpoint under a pinned seed
    // fingerprints the *entire* machine state — clocks, RNG streams,
    // tracker tables, queues, caches. Any behavioural drift anywhere in the
    // simulator shows up here. If a change is intentional, re-run with
    // `snapshot_tool digest` and update `MODEL_FINGERPRINT`, saying why:
    // every cell and fuzz key is salted with it, so stored results of the
    // old model become misses.
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let cfg = SimConfig::builder(spec)
        .scenario(Scenario::AutoRfm { th: 4 })
        .cores(2)
        .instructions(10_000)
        .seed(42)
        .build()
        .unwrap();
    // Both kernels stop at the same step boundary with identical state.
    for kernel in [KernelKind::Event, KernelKind::Stepped] {
        let mut sys = System::new(cfg.clone()).unwrap();
        assert!(
            sys.run_steps_with(1_000, kernel).is_none(),
            "digest must be of a mid-run state"
        );
        let snap = sys.snapshot().unwrap();
        let container = autorfm::snapshot::open(&snap).unwrap();
        assert_eq!(
            container.digest(),
            MODEL_FINGERPRINT,
            "snapshot digest drifted under {kernel:?}"
        );
    }
}

//! Cross-crate integration tests: full-system runs exercising every layer
//! (workload generator → cores → LLC → memory controller → DRAM device →
//! trackers → mitigation) together.

use autorfm::experiments::Scenario;
use autorfm::{MappingKind, SimConfig, SimResult, System};
use autorfm_workloads::WorkloadSpec;

fn quick(name: &str, scenario: Scenario) -> SimResult {
    let spec = WorkloadSpec::by_name(name).expect("known workload");
    let cfg = SimConfig::builder(spec)
        .scenario(scenario)
        .cores(4)
        .instructions(20_000)
        .build()
        .unwrap();
    System::new(cfg).expect("valid config").run()
}

const ZEN: Scenario = Scenario::Baseline {
    mapping: MappingKind::Zen,
};
const RUBIX: Scenario = Scenario::Baseline {
    mapping: MappingKind::Rubix { key: 0xAB1E },
};

#[test]
fn every_suite_representative_completes() {
    for name in ["bwaves", "mcf", "ConnComp", "triad", "wrf"] {
        let r = quick(name, ZEN);
        assert_eq!(r.per_core_ipc.len(), 4, "{name}");
        assert!(r.perf() > 0.05, "{name}: perf {}", r.perf());
        assert!(r.total_instructions == 4 * 20_000);
    }
}

#[test]
fn memory_intensity_ordering_follows_table5() {
    // ConnComp is the most memory-intensive workload; wrf the least. The
    // simulated ACT rates must respect that ordering.
    let heavy = quick("ConnComp", ZEN);
    let light = quick("wrf", ZEN);
    assert!(
        heavy.act_pki > 5.0 * light.act_pki,
        "ConnComp {:.1} vs wrf {:.1} ACT-PKI",
        heavy.act_pki,
        light.act_pki
    );
}

#[test]
fn zen_has_row_hits_rubix_does_not() {
    let zen = quick("lbm", ZEN);
    let rubix = quick("lbm", RUBIX);
    assert!(
        zen.row_hit_rate > 0.05,
        "Zen should keep row hits: {}",
        zen.row_hit_rate
    );
    assert!(
        rubix.row_hit_rate < 0.01,
        "Rubix kills spatial locality: {}",
        rubix.row_hit_rate
    );
    // Rubix pays for the lost hits with extra activations.
    assert!(rubix.dram.acts.get() > zen.dram.acts.get());
}

#[test]
fn rfm_blocks_autorfm_does_not() {
    let base = quick("fotonik3d", ZEN);
    let rfm = quick("fotonik3d", Scenario::Rfm { th: 4 });
    let auto = quick("fotonik3d", Scenario::AutoRfm { th: 4 });
    let s_rfm = rfm.slowdown_vs(&base);
    let s_auto = auto.slowdown_vs(&base);
    assert!(s_rfm > 0.10, "RFM-4 should cost >10%: {s_rfm:.3}");
    assert!(s_auto < 0.08, "AutoRFM-4 should stay cheap: {s_auto:.3}");
    assert!(s_auto < s_rfm);
}

#[test]
fn rfm_slowdown_decreases_with_threshold() {
    let base = quick("bwaves", ZEN);
    let s4 = quick("bwaves", Scenario::Rfm { th: 4 }).slowdown_vs(&base);
    let s16 = quick("bwaves", Scenario::Rfm { th: 16 }).slowdown_vs(&base);
    let s32 = quick("bwaves", Scenario::Rfm { th: 32 }).slowdown_vs(&base);
    assert!(
        s4 > s16,
        "RFM-4 ({s4:.3}) must cost more than RFM-16 ({s16:.3})"
    );
    assert!(
        s16 > s32 - 0.02,
        "RFM-16 ({s16:.3}) should cost at least ~RFM-32 ({s32:.3})"
    );
    // At this test's tiny scale a handful of RFM-32s still show up in the
    // quantized finish times; the full harness reproduces the paper's ~0.2%.
    assert!(s32 < 0.10, "RFM-32 should be nearly free: {s32:.3}");
    assert!(
        s4 > 2.0 * s32,
        "RFM-4 must dominate RFM-32: {s4:.3} vs {s32:.3}"
    );
}

#[test]
fn autorfm_zen_suffers_more_conflicts_than_rubix() {
    let zen = quick("lbm", Scenario::AutoRfmZen { th: 4 });
    let rubix = quick("lbm", Scenario::AutoRfm { th: 4 });
    assert!(
        zen.alerts_per_act > 3.0 * rubix.alerts_per_act,
        "Zen {:.4} vs Rubix {:.4} ALERT/ACT",
        zen.alerts_per_act,
        rubix.alerts_per_act
    );
}

#[test]
fn autorfm_mitigation_rate_matches_window() {
    for th in [4u32, 8] {
        let r = quick("mcf", Scenario::AutoRfm { th });
        let ratio = r.dram.acts.get() as f64 / r.dram.mitigations.get().max(1) as f64;
        assert!(
            (th as f64 * 0.9..th as f64 * 1.6).contains(&ratio),
            "AutoRFM-{th}: {ratio:.1} acts per mitigation"
        );
        // Fractal issues exactly 4 victim refreshes per mitigation (mid-bank).
        let vr = r.dram.victim_refreshes.get() as f64 / r.dram.mitigations.get().max(1) as f64;
        assert!((3.5..=4.0).contains(&vr), "victims per mitigation: {vr:.2}");
    }
}

#[test]
fn prac_runs_with_increased_timings() {
    let base = quick("fotonik3d", ZEN);
    let prac = quick("fotonik3d", Scenario::Prac { abo_th: 128 });
    let s = prac.slowdown_vs(&base);
    assert!(s > 0.0, "PRAC's longer tRP/tRC must cost something: {s:.3}");
    assert!(s < 0.25, "PRAC slowdown should be moderate: {s:.3}");
}

#[test]
fn per_request_retry_is_no_worse_than_whole_bank() {
    let spec = WorkloadSpec::by_name("lbm").unwrap();
    let mk = |retry| {
        let mut cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfmZen { th: 4 })
            .cores(4)
            .instructions(20_000)
            .build()
            .unwrap();
        cfg.mc.retry = retry;
        System::new(cfg).unwrap().run()
    };
    let whole = mk(autorfm::memctrl::RetryPolicy::WholeBank);
    let per_req = mk(autorfm::memctrl::RetryPolicy::PerRequest);
    // The complex design can only help (Section IV-C's argument is that the
    // simple design is good enough, not better).
    assert!(
        per_req.perf() >= whole.perf() * 0.98,
        "per-request {} vs whole-bank {}",
        per_req.perf(),
        whole.perf()
    );
}

#[test]
fn results_are_deterministic() {
    let a = quick("PageRank", Scenario::AutoRfm { th: 4 });
    let b = quick("PageRank", Scenario::AutoRfm { th: 4 });
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.dram.acts.get(), b.dram.acts.get());
    assert_eq!(a.dram.mitigations.get(), b.dram.mitigations.get());
    assert_eq!(a.dram.alerts.get(), b.dram.alerts.get());
}

#[test]
fn different_seeds_still_converge_on_slowdown() {
    let spec = WorkloadSpec::by_name("fotonik3d").unwrap();
    let run_seed = |seed| {
        let base = System::new(
            SimConfig::builder(spec)
                .scenario(ZEN)
                .cores(4)
                .instructions(20_000)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .unwrap()
        .run();
        let auto = System::new(
            SimConfig::builder(spec)
                .scenario(Scenario::AutoRfm { th: 4 })
                .cores(4)
                .instructions(20_000)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .unwrap()
        .run();
        auto.slowdown_vs(&base)
    };
    let s1 = run_seed(42);
    let s2 = run_seed(1337);
    assert!(
        (s1 - s2).abs() < 0.05,
        "seed sensitivity too high: {s1:.3} vs {s2:.3}"
    );
}

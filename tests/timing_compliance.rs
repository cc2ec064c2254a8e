//! JEDEC timing-compliance tests: run the full machine with command tracing
//! enabled and verify every recorded command against the DDR5 rules with
//! [`autorfm::dram::TimingChecker`]. This turns the simulator's timing
//! contracts (tRC/tRAS/tRP/tRCD, REF/RFM blocking, SAUM exclusion) into
//! executable end-to-end assertions.

use autorfm::dram::TimingChecker;
use autorfm::experiments::Scenario;
use autorfm::{MappingKind, SimConfig, System};
use autorfm_workloads::WorkloadSpec;

fn check_scenario(workload: &str, scenario: Scenario) {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    let cfg = SimConfig::builder(spec)
        .scenario(scenario)
        .cores(4)
        .instructions(10_000)
        .trace_capacity(2_000_000)
        .build()
        .unwrap();
    let mut sys = System::new(cfg.clone()).expect("valid config");
    sys.run();
    let device = sys.mc().device();
    let trace = device.trace().expect("tracing enabled");
    assert!(trace.dropped() == 0, "trace overflowed; raise capacity");
    assert!(!trace.records().is_empty(), "no commands recorded");
    let checker = TimingChecker::new(cfg.timings.clone(), cfg.geometry);
    if let Err(violations) = checker.check(trace) {
        let shown: Vec<String> = violations.iter().take(10).map(|v| v.to_string()).collect();
        panic!(
            "{workload}/{scenario}: {} timing violations, first 10:\n{}",
            violations.len(),
            shown.join("\n")
        );
    }
}

#[test]
fn baseline_zen_is_jedec_compliant() {
    check_scenario(
        "bwaves",
        Scenario::Baseline {
            mapping: MappingKind::Zen,
        },
    );
}

#[test]
fn baseline_rubix_is_jedec_compliant() {
    check_scenario(
        "mcf",
        Scenario::Baseline {
            mapping: MappingKind::Rubix { key: 0xAB1E },
        },
    );
}

#[test]
fn rfm_mode_is_jedec_compliant() {
    check_scenario("fotonik3d", Scenario::Rfm { th: 4 });
}

#[test]
fn autorfm_rubix_is_jedec_compliant() {
    check_scenario("lbm", Scenario::AutoRfm { th: 4 });
}

#[test]
fn autorfm_zen_heavy_conflicts_still_compliant() {
    // The Zen mapping maximizes SAUM conflicts; the SAUM-exclusion rule (no
    // accepted ACT into the subarray under mitigation) must still hold.
    check_scenario("lbm", Scenario::AutoRfmZen { th: 4 });
}

#[test]
fn prac_mode_is_jedec_compliant() {
    check_scenario("omnetpp", Scenario::Prac { abo_th: 64 });
}

#[test]
fn minimal_pair_mode_is_jedec_compliant() {
    check_scenario("copy", Scenario::AutoRfmMinimal { th: 2 });
}

//! Robustness: random (but valid) configurations must simulate to completion
//! without panics, across scenarios, mappings, knobs, and workloads.

use autorfm::experiments::Scenario;
use autorfm::memctrl::{PagePolicy, RaaRefCredit, RetryPolicy, WritePolicy};
use autorfm::trackers::TrackerKind;
use autorfm::{MappingKind, SimConfig, System};
use autorfm_dram::RefreshPolicy;
use autorfm_workloads::ALL_WORKLOADS;
use proptest::prelude::*;

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        Just(Scenario::Baseline {
            mapping: MappingKind::Zen
        }),
        Just(Scenario::Baseline {
            mapping: MappingKind::Rubix { key: 7 }
        }),
        Just(Scenario::Baseline {
            mapping: MappingKind::Linear
        }),
        (2u32..16).prop_map(|th| Scenario::Rfm { th }),
        (2u32..16).prop_map(|th| Scenario::AutoRfm { th }),
        (2u32..16).prop_map(|th| Scenario::AutoRfmZen { th }),
        (2u32..16).prop_map(|th| Scenario::AutoRfmRecursive { th }),
        (2u32..8).prop_map(|th| Scenario::AutoRfmMinimal { th }),
        (8u32..256).prop_map(|abo_th| Scenario::Prac { abo_th }),
        prop_oneof![
            Just(TrackerKind::Pride),
            Just(TrackerKind::Mithril),
            Just(TrackerKind::Parfm),
            Just(TrackerKind::Dsac),
        ]
        .prop_flat_map(
            |tracker| (2u32..12).prop_map(move |th| Scenario::AutoRfmWith { th, tracker })
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_valid_config_completes(
        scenario in scenario_strategy(),
        workload_idx in 0usize..21,
        cores in 1u8..5,
        seed in any::<u64>(),
        retry_per_request in any::<bool>(),
        refresh_per_bank in any::<bool>(),
        open_page in any::<bool>(),
        buffered_writes in any::<bool>(),
        half_credit in any::<bool>(),
    ) {
        let spec = &ALL_WORKLOADS[workload_idx];
        let mut cfg = SimConfig::builder(spec)
            .scenario(scenario)
            .cores(cores)
            .instructions(4_000)
            .seed(seed)
            .build()
            .unwrap();
        cfg.warmup_mem_ops_per_core = 1_000;
        if retry_per_request {
            cfg.mc.retry = RetryPolicy::PerRequest;
        }
        if refresh_per_bank {
            cfg.refresh = RefreshPolicy::PerBank;
        }
        if open_page {
            cfg.mc.page_policy = PagePolicy::Open;
        }
        if buffered_writes {
            cfg.mc.write_policy = WritePolicy::Buffered { capacity: 32, high: 24, low: 8 };
        }
        if half_credit {
            cfg.mc.raa_ref_credit = RaaRefCredit::Half;
        }
        let result = System::new(cfg).expect("valid config").run();
        prop_assert!(result.perf() > 0.0, "simulation produced no progress");
        prop_assert_eq!(
            result.total_instructions,
            4_000 * cores as u64,
            "instruction accounting broken"
        );
    }
}

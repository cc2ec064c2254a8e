//! Section VI-C: storage overheads of AutoRFM across tracker choices.

use autorfm::experiments::Scenario;
use autorfm::storage::storage_report;
use autorfm::trackers::TrackerKind;
use autorfm::SimConfig;
use autorfm_workloads::WorkloadSpec;

use super::Ctx;
use crate::render_table;

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Section VI-C: SRAM storage overheads ===\n");
    let spec = WorkloadSpec::by_name("bwaves").unwrap();
    let mut rows = Vec::new();
    for (name, scenario) in [
        ("AutoRFM + MINT (paper)", Scenario::AutoRfm { th: 4 }),
        (
            "AutoRFM + PrIDE",
            Scenario::AutoRfmWith {
                th: 4,
                tracker: TrackerKind::Pride,
            },
        ),
        (
            "AutoRFM + Mithril",
            Scenario::AutoRfmWith {
                th: 4,
                tracker: TrackerKind::Mithril,
            },
        ),
        ("RFM + MINT", Scenario::Rfm { th: 4 }),
    ] {
        let cfg = SimConfig::builder(spec)
            .scenario(scenario)
            .build()
            .expect("valid scenario config");
        let r = storage_report(&cfg).expect("valid tracker");
        rows.push(vec![
            name.to_string(),
            format!("{}", r.mc_bytes),
            format!("{}", r.saum_bits_per_bank),
            format!("{}", r.tracker_bits_per_bank),
            format!("{}", r.dram_bytes_per_bank()),
            format!("{}", r.dram_total_bytes),
        ]);
    }
    ctx.print(render_table(
        &[
            "configuration",
            "MC bytes",
            "SAUM bits/bank",
            "tracker bits/bank",
            "DRAM B/bank",
            "DRAM total B",
        ],
        &rows,
    ));
    ctx.println("\npaper: 128 bytes at the MC; ~5 bytes per DRAM bank (MINT + SAUM) + a PRNG.");
}

//! Table V: workload characteristics (ACT-PKI and ACT-per-tREFI per bank)
//! measured on the baseline system, against the paper's reported values.

use super::Ctx;
use crate::{render_table, BASELINE_ZEN};

pub fn run(ctx: &mut Ctx) {
    ctx.banner("Table V: workload characteristics (baseline Zen system)");

    let mut rows = Vec::new();
    for (spec, r) in ctx.sweep(&[BASELINE_ZEN]) {
        let r = &r[0];
        rows.push(vec![
            spec.suite.to_string(),
            spec.name.to_string(),
            format!("{:.1}", r.act_pki),
            format!("{:.1}", spec.paper_act_pki),
            format!("{:.1}", r.act_per_trefi_per_bank),
            format!("{:.1}", spec.paper_act_per_trefi),
            format!("{:.3}", r.row_hit_rate),
        ]);
    }
    ctx.print(render_table(
        &[
            "suite",
            "workload",
            "ACT-PKI",
            "(paper)",
            "ACT/tREFI",
            "(paper)",
            "row-hit",
        ],
        &rows,
    ));
    ctx.println("\nNote: measured ACT-PKI includes writeback activations and reflects the");
    ctx.println("ROB-model IPC; the paper's trend across workloads is what should match.");
}

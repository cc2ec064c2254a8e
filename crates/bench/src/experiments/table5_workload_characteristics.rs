//! Table V: workload characteristics (ACT-PKI and ACT-per-tREFI per bank)
//! measured on the baseline system, against the paper's reported values.

use super::Ctx;
use crate::{render_table, SimJob, BASELINE_ZEN};

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.banner("Table V: workload characteristics (baseline Zen system)");

    let matrix: Vec<SimJob> = opts
        .workloads
        .iter()
        .map(|&spec| SimJob::new(spec, BASELINE_ZEN, &opts))
        .collect();
    ctx.prefetch(&matrix);
    let mut rows = Vec::new();
    for (spec, job) in opts.workloads.iter().zip(&matrix) {
        let r = ctx.get(job);
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

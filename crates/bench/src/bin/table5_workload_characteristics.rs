//! Table V: workload characteristics (ACT-PKI and ACT-per-tREFI per bank)
//! measured on the baseline system, against the paper's reported values.

use autorfm_bench::{banner, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN};

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Table V: workload characteristics (baseline Zen system)",
        &opts,
    );

    let matrix: Vec<SimJob> = opts
        .workloads
        .iter()
        .map(|&spec| SimJob::new(spec, BASELINE_ZEN, &opts))
        .collect();
    let cache = ResultCache::new(&opts);
    cache.prefetch(&matrix, &opts);
    let mut rows = Vec::new();
    for (spec, job) in opts.workloads.iter().zip(&matrix) {
        let r = cache.get(job);
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
    print_table(
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
    );
    println!("\nNote: measured ACT-PKI includes writeback activations and reflects the");
    println!("ROB-model IPC; the paper's trend across workloads is what should match.");

    harness.record_cache(&cache);
    harness.finish();
}

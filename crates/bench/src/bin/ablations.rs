//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Retry policy** (Section IV-C): the paper's simple whole-bank busy-bit
//!    vs the complex per-request alternative.
//! 2. **RFM latency** (Section II-E): tRFM = tRFC/2 (205 ns) vs tRFC (410 ns).
//! 3. **RAA REF credit** (Section II-E): REF reduces RAA by RFMTH vs RFMTH/2.
//! 4. **Minimal-pair mitigation** (Section IV-B): 2 victim refreshes shrink
//!    the SAUM window to 2·tRC and allow AutoRFMTH = 2 (at a lower tolerated
//!    threshold and with no transitive defense).
//!
//! Every variant is a cell: a scenario with at most one field tweaked
//! ([`SimJob::variant`]). A variant restating a default *is* the scenario's
//! cell, simulated once or reloaded from the store another figure filled.

use autorfm::analysis::MintModel;
use autorfm::dram::RefreshPolicy;
use autorfm::experiments::Scenario;
use autorfm::memctrl::{PagePolicy, RaaRefCredit, RetryPolicy, WritePolicy};
use autorfm::sim_core::{Cycle, TimingOverride};
use autorfm::SimConfig;
use autorfm_bench::{
    banner, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};
use autorfm_workloads::WorkloadSpec;

type Tweak = Box<dyn Fn(&mut SimConfig) + Sync>;

/// One row of the table: a scenario, optionally with one configuration
/// tweak (named by a tag in the cell's label).
struct Variant {
    ablation: &'static str,
    name: String,
    scenario: Scenario,
    tweak: Option<(&'static str, Tweak)>,
}

impl Variant {
    fn job(&self, spec: &'static WorkloadSpec, opts: &RunOpts) -> SimJob {
        let job = SimJob::new(spec, self.scenario, opts);
        match &self.tweak {
            Some((tag, tweak)) => job.variant(tag, tweak),
            None => job,
        }
    }
}

fn tweaked(
    ablation: &'static str,
    name: &str,
    scenario: Scenario,
    tag: &'static str,
    tweak: impl Fn(&mut SimConfig) + Sync + 'static,
) -> Variant {
    Variant {
        ablation,
        name: name.to_string(),
        scenario,
        tweak: Some((tag, Box::new(tweak))),
    }
}

fn t_rfm_ns(cfg: &mut SimConfig, ns: u64) {
    cfg.timings = cfg.timings.clone().with_override(TimingOverride {
        t_rfm: Some(Cycle::from_ns(ns)),
        ..TimingOverride::default()
    });
}

/// The table's rows, in print order.
fn variants() -> Vec<Variant> {
    let zen4 = Scenario::AutoRfmZen { th: 4 };
    let rfm8 = Scenario::Rfm { th: 8 };
    let rfm16 = Scenario::Rfm { th: 16 };
    let auto4 = Scenario::AutoRfm { th: 4 };
    let mut rows = vec![
        // 1. Retry policy under the conflict-heavy Zen mapping.
        tweaked(
            "retry policy",
            "whole-bank (paper)",
            zen4,
            "retry-whole-bank",
            |c| {
                c.mc.retry = RetryPolicy::WholeBank;
            },
        ),
        tweaked(
            "retry policy",
            "per-request",
            zen4,
            "retry-per-request",
            |c| {
                c.mc.retry = RetryPolicy::PerRequest;
            },
        ),
        // 2. RFM latency: 205 ns vs 410 ns.
        tweaked(
            "RFM-8 latency",
            "tRFM = 205ns (tRFC/2)",
            rfm8,
            "trfm-205ns",
            |c| {
                t_rfm_ns(c, 205);
            },
        ),
        tweaked(
            "RFM-8 latency",
            "tRFM = 410ns (tRFC)",
            rfm8,
            "trfm-410ns",
            |c| {
                t_rfm_ns(c, 410);
            },
        ),
        // 3. RAA REF credit.
        tweaked(
            "RFM-16 RAA credit",
            "REF credits RFMTH",
            rfm16,
            "raa-credit-full",
            |c| {
                c.mc.raa_ref_credit = RaaRefCredit::Full;
            },
        ),
        tweaked(
            "RFM-16 RAA credit",
            "REF credits RFMTH/2",
            rfm16,
            "raa-credit-half",
            |c| {
                c.mc.raa_ref_credit = RaaRefCredit::Half;
            },
        ),
    ];
    // 4. Minimal-pair mitigation: AutoRFMTH down to 2.
    for th in [4u32, 2] {
        let trhd = MintModel::auto_rfm(th, false).tolerated_trh_d();
        rows.push(Variant {
            ablation: "minimal-pair",
            name: format!("AutoRFMTH={th} (model TRH-D {trhd:.0})"),
            scenario: Scenario::AutoRfmMinimal { th },
            tweak: None,
        });
    }
    rows.extend([
        // 5. Refresh scheduling: all-bank REFab vs staggered per-bank REFsb.
        tweaked(
            "refresh policy",
            "all-bank REFab (paper)",
            auto4,
            "refab",
            |c| {
                c.refresh = RefreshPolicy::AllBank;
            },
        ),
        tweaked("refresh policy", "per-bank REFsb", auto4, "refsb", |c| {
            c.refresh = RefreshPolicy::PerBank;
        }),
        // 6. Next-line prefetcher (extension; not in the paper's baseline).
        tweaked(
            "prefetcher",
            "no prefetch (paper)",
            auto4,
            "no-prefetch",
            |c| {
                c.uncore.next_line_prefetch = false;
            },
        ),
        tweaked(
            "prefetcher",
            "next-line prefetch",
            auto4,
            "next-line-prefetch",
            |c| {
                c.uncore.next_line_prefetch = true;
            },
        ),
        // 7. Page policy on the plain baseline (Section III: "closed-page
        // policy performs better than an open-page policy" under the Zen
        // mapping). Reported as slowdown vs the closed-page baseline.
        tweaked(
            "page policy",
            "closed w/ tRAS window (paper)",
            BASELINE_ZEN,
            "closed-page",
            |c| c.mc.page_policy = PagePolicy::ClosedWithinTras,
        ),
        tweaked("page policy", "open-page", BASELINE_ZEN, "open-page", |c| {
            c.mc.page_policy = PagePolicy::Open;
        }),
        // 8. Write scheduling: inline FCFS vs watermark-buffered draining.
        tweaked(
            "write policy",
            "inline FCFS (paper model)",
            auto4,
            "inline-writes",
            |c| {
                c.mc.write_policy = WritePolicy::Inline;
            },
        ),
        tweaked(
            "write policy",
            "buffered, drain 48/16",
            auto4,
            "buffered-writes",
            |c| {
                c.mc.write_policy = WritePolicy::Buffered {
                    capacity: 64,
                    high: 48,
                    low: 16,
                };
            },
        ),
    ]);
    rows
}

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Ablations: retry policy, tRFM, RAA credit, minimal-pair mitigation",
        &opts,
    );
    let table = variants();
    let n = opts.workloads.len();
    // The baselines first, then one workload-ordered run of cells per row.
    let mut matrix: Vec<SimJob> = opts
        .workloads
        .iter()
        .map(|&spec| SimJob::new(spec, BASELINE_ZEN, &opts))
        .collect();
    for variant in &table {
        matrix.extend(opts.workloads.iter().map(|&spec| variant.job(spec, &opts)));
    }
    let cache = ResultCache::new(&opts);
    cache.prefetch(&matrix, &opts);

    let (baselines, cells) = matrix.split_at(n);
    let rows: Vec<Vec<String>> = table
        .iter()
        .zip(cells.chunks(n))
        .map(|(variant, jobs)| {
            let slowdowns: Vec<f64> = jobs
                .iter()
                .zip(baselines)
                .map(|(job, base)| cache.get(job).slowdown_vs(&cache.get(base)))
                .collect();
            let avg = slowdowns.iter().sum::<f64>() / n as f64;
            vec![variant.ablation.into(), variant.name.clone(), pct(avg)]
        })
        .collect();
    print_table(&["ablation", "variant", "avg slowdown"], &rows);

    harness.record_cache(&cache);
    harness.finish();
}

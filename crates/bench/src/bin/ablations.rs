//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Retry policy** (Section IV-C): the paper's simple whole-bank busy-bit
//!    vs the complex per-request alternative.
//! 2. **RFM latency** (Section II-E): tRFM = tRFC/2 (205 ns) vs tRFC (410 ns).
//! 3. **RAA REF credit** (Section II-E): REF reduces RAA by RFMTH vs RFMTH/2.
//! 4. **Minimal-pair mitigation** (Section IV-B): 2 victim refreshes shrink
//!    the SAUM window to 2·tRC and allow AutoRFMTH = 2 (at a lower tolerated
//!    threshold and with no transitive defense).

use autorfm::analysis::MintModel;
use autorfm::dram::RefreshPolicy;
use autorfm::experiments::Scenario;
use autorfm::memctrl::{PagePolicy, RaaRefCredit, RetryPolicy, WritePolicy};
use autorfm::sim_core::{Cycle, TimingOverride};
use autorfm::{SimConfig, System};
use autorfm_bench::{
    banner, par_map, pct, print_table, Harness, ResultCache, RunOpts, SimJob, BASELINE_ZEN,
};

/// Average slowdown of the custom-configured system vs the cached baseline,
/// with the per-workload simulations fanned out on `opts.jobs` threads.
fn avg<F: Fn(&'static autorfm_workloads::WorkloadSpec) -> SimConfig + Sync>(
    make: F,
    cache: &ResultCache,
    opts: &RunOpts,
) -> f64 {
    let slowdowns = par_map(&opts.workloads, opts.jobs, |spec| {
        let base = cache.get(spec, BASELINE_ZEN, opts);
        let r = System::new(make(spec)).expect("valid config").run();
        r.slowdown_vs(&base)
    });
    slowdowns.iter().sum::<f64>() / opts.workloads.len() as f64
}

fn main() {
    let opts = RunOpts::from_args();
    let mut harness = Harness::new(&opts);
    banner(
        "Ablations: retry policy, tRFM, RAA credit, minimal-pair mitigation",
        &opts,
    );
    let cache = ResultCache::new(&opts);
    let baselines: Vec<SimJob> = opts.workloads.iter().map(|&s| (s, BASELINE_ZEN)).collect();
    cache.prefetch(&baselines, &opts);
    let instr = opts.instructions;
    let cores = opts.cores;
    let mut rows = Vec::new();

    // 1. Retry policy under the conflict-heavy Zen mapping.
    for (name, retry) in [
        ("whole-bank (paper)", RetryPolicy::WholeBank),
        ("per-request", RetryPolicy::PerRequest),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::AutoRfmZen { th: 4 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.mc.retry = retry;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["retry policy".into(), name.into(), pct(s)]);
    }

    // 2. RFM latency: 205 ns vs 410 ns.
    for (name, ns) in [
        ("tRFM = 205ns (tRFC/2)", 205u64),
        ("tRFM = 410ns (tRFC)", 410),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::Rfm { th: 8 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.timings = cfg.timings.with_override(TimingOverride {
                    t_rfm: Some(Cycle::from_ns(ns)),
                    ..TimingOverride::default()
                });
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["RFM-8 latency".into(), name.into(), pct(s)]);
    }

    // 3. RAA REF credit.
    for (name, credit) in [
        ("REF credits RFMTH", RaaRefCredit::Full),
        ("REF credits RFMTH/2", RaaRefCredit::Half),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::Rfm { th: 16 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.mc.raa_ref_credit = credit;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["RFM-16 RAA credit".into(), name.into(), pct(s)]);
    }

    // 4. Minimal-pair mitigation: AutoRFMTH down to 2.
    for th in [4u32, 2] {
        let s = avg(
            |spec| {
                SimConfig::builder(spec)
                    .scenario(Scenario::AutoRfmMinimal { th })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config")
            },
            &cache,
            &opts,
        );
        let trhd = MintModel::auto_rfm(th, false).tolerated_trh_d();
        rows.push(vec![
            "minimal-pair".into(),
            format!("AutoRFMTH={th} (model TRH-D {trhd:.0})"),
            pct(s),
        ]);
    }

    // 5. Refresh scheduling: all-bank REFab vs staggered per-bank REFsb.
    for (name, policy) in [
        ("all-bank REFab (paper)", RefreshPolicy::AllBank),
        ("per-bank REFsb", RefreshPolicy::PerBank),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::AutoRfm { th: 4 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.refresh = policy;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["refresh policy".into(), name.into(), pct(s)]);
    }

    // 6. Next-line prefetcher (extension; not in the paper's baseline).
    for (name, pf) in [("no prefetch (paper)", false), ("next-line prefetch", true)] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::AutoRfm { th: 4 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.uncore.next_line_prefetch = pf;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["prefetcher".into(), name.into(), pct(s)]);
    }

    // 7. Page policy on the plain baseline (Section III: "closed-page policy
    // performs better than an open-page policy" under the Zen mapping).
    // Reported as slowdown vs the closed-page baseline.
    for (name, policy) in [
        (
            "closed w/ tRAS window (paper)",
            PagePolicy::ClosedWithinTras,
        ),
        ("open-page", PagePolicy::Open),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::Baseline {
                        mapping: autorfm::MappingKind::Zen,
                    })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.mc.page_policy = policy;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["page policy".into(), name.into(), pct(s)]);
    }

    // 8. Write scheduling: inline FCFS vs watermark-buffered draining.
    for (name, policy) in [
        ("inline FCFS (paper model)", WritePolicy::Inline),
        (
            "buffered, drain 48/16",
            WritePolicy::Buffered {
                capacity: 64,
                high: 48,
                low: 16,
            },
        ),
    ] {
        let s = avg(
            |spec| {
                let mut cfg = SimConfig::builder(spec)
                    .scenario(Scenario::AutoRfm { th: 4 })
                    .cores(cores)
                    .instructions(instr)
                    .build()
                    .expect("valid config");
                cfg.mc.write_policy = policy;
                cfg
            },
            &cache,
            &opts,
        );
        rows.push(vec!["write policy".into(), name.into(), pct(s)]);
    }

    print_table(&["ablation", "variant", "avg slowdown"], &rows);

    harness.record_cache(&cache);
    harness.finish();
}

//! Harness smoke benchmark: times the parallel fan-out and the warm-fork
//! machinery on a fixed quick (workload × scenario) matrix, then emits a
//! single JSON line:
//!
//! ```text
//! {"serial_s":12.34,"parallel_s":3.21,"jobs":8,"host_parallelism":16,
//!  "sim_cycles":123456789,"cycles_per_sec":38460000.0,
//!  "warm_prefetch_s":0.42,"cold_s":2.10,"forked_s":0.95,
//!  "warm_fork_saved_s":1.15}
//! ```
//!
//! Five measurements:
//!
//! * **serial vs parallel** — the same matrix through `run_matrix` with one
//!   worker and with `--jobs` workers. Warm snapshots for every workload are
//!   prefetched first (`warm_prefetch_s`), so both passes pay identical
//!   (zero) warmup cost and the comparison isolates the fan-out.
//! * **cold vs forked** — a sub-matrix simulated with per-run warmup
//!   (`run_cold`) and again by forking from the shared warm snapshots
//!   (`run`). `warm_fork_saved_s = cold_s - forked_s` is the measured
//!   wall-clock win of warmup forking.
//! * **stepped vs event kernel** — every workload once per kernel
//!   (`stepped_s`/`event_s`/`kernel_skip_ratio`, plus a per-workload
//!   breakdown under `"kernels"`). Results must be bitwise identical; any
//!   mismatch or panic exits nonzero before any JSON is emitted.
//! * **batched vs sequential** — eight same-shape scenario lanes per
//!   workload as one `SimBatch` and as eight standalone runs, timed end to
//!   end (`batch_s`/`batch_seq_s`/`batch_speedup`, per-workload rows under
//!   `"batches"`). Every lane must match its standalone run bitwise.
//!
//! All comparisons assert bitwise-identical results before reporting, so
//! this binary is also an end-to-end determinism check for the parallel
//! harness, the snapshot subsystem, the time-skip kernel, and the batched
//! lockstep engine. Used by `scripts/verify.sh`.

use autorfm::experiments::Scenario;
use autorfm::{KernelKind, SimBatch, SimConfig, SimResult, System};
use autorfm_bench::{
    run, run_cold, run_matrix_cached, warm_cache, ResultCache, RunOpts, SimJob, BASELINE_RUBIX,
    BASELINE_ZEN,
};
use std::time::Instant;

/// Runs `cfg` (forked from the shared warm cache) under `kernel`, timing the
/// measured phase. Returns `(result, seconds, (steps_executed, steps_skipped))`.
/// A panic inside the simulation aborts the whole benchmark with a nonzero
/// exit instead of emitting partial JSON.
fn timed_kernel_run(cfg: SimConfig, kernel: KernelKind) -> (SimResult, f64, (u64, u64)) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sys = warm_cache().system(cfg);
        let t = Instant::now();
        let r = sys.run_with(kernel);
        (r, t.elapsed().as_secs_f64(), sys.kernel_stats())
    }));
    match outcome {
        Ok(v) => v,
        Err(_) => {
            eprintln!("perf_smoke: {} kernel run panicked", kernel.name());
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = RunOpts::from_args();

    // Fixed quick matrix: enough independent cells to keep every worker busy,
    // small enough to finish in seconds.
    let mut quick = opts.clone();
    quick.cores = 2;
    quick.instructions = 5_000;
    let matrix: Vec<SimJob> = quick
        .workloads
        .iter()
        .flat_map(|&spec| {
            [
                (spec, BASELINE_ZEN),
                (spec, Scenario::Rfm { th: 4 }),
                (spec, Scenario::AutoRfm { th: 4 }),
            ]
        })
        .collect();

    // Prefetch warm snapshots for every workload so the serial and parallel
    // passes below pay the same (zero) warmup cost.
    let t_warm = Instant::now();
    for &spec in &quick.workloads {
        let cfg = SimConfig::builder(spec)
            .scenario(BASELINE_ZEN)
            .cores(quick.cores)
            .instructions(quick.instructions)
            .build()
            .expect("valid quick config");
        drop(warm_cache().system(cfg));
    }
    let warm_prefetch_s = t_warm.elapsed().as_secs_f64();

    // Isolated caches: a cell-store reload would collapse the timings.
    let mut serial = quick.clone();
    serial.jobs = 1;
    let t0 = Instant::now();
    let serial_results = run_matrix_cached(&matrix, &serial, &ResultCache::isolated());
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel_results = run_matrix_cached(&matrix, &quick, &ResultCache::isolated());
    let parallel_s = t1.elapsed().as_secs_f64();

    assert_eq!(
        serial_results.len(),
        parallel_results.len(),
        "result count must not depend on --jobs"
    );
    for (i, (s, p)) in serial_results.iter().zip(&parallel_results).enumerate() {
        assert!(
            s.elapsed == p.elapsed
                && s.dram.acts.get() == p.dram.acts.get()
                && s.dram.alerts.get() == p.dram.alerts.get()
                && s.per_core_ipc == p.per_core_ipc,
            "parallel result {i} diverged from serial"
        );
    }

    // Warm-fork A/B: the same sub-matrix with per-run warmup vs forking from
    // the (already prefetched) shared warm snapshots. Serial on both sides so
    // the delta is pure warmup cost.
    let sub: Vec<SimJob> = matrix.iter().copied().take(18).collect();
    let t2 = Instant::now();
    let cold_results: Vec<_> = sub
        .iter()
        .map(|&(spec, sc)| run_cold(spec, sc, &quick))
        .collect();
    let cold_s = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let forked_results: Vec<_> = sub
        .iter()
        .map(|&(spec, sc)| run(spec, sc, &quick))
        .collect();
    let forked_s = t3.elapsed().as_secs_f64();
    for (i, (c, f)) in cold_results.iter().zip(&forked_results).enumerate() {
        assert!(
            c.elapsed == f.elapsed
                && c.dram.acts.get() == f.dram.acts.get()
                && c.per_core_ipc == f.per_core_ipc,
            "warm-forked result {i} diverged from cold"
        );
    }

    // Kernel A/B: every workload under AutoRFM-4, once per kernel. The event
    // kernel must reproduce the stepped kernel's results bitwise; wall-clock
    // and the skip ratio quantify the time-skip win. Single-core runs give
    // the cleanest skip windows (every memory stall idles the whole machine),
    // and a larger instruction budget keeps each timing above clock noise.
    // Timings are min-of-3 with the kernels interleaved (stepped, event,
    // stepped, event, ...) so a frequency ramp or scheduler hiccup hits both
    // sides alike instead of biasing whichever ran second.
    const KERNEL_REPS: usize = 3;
    let mut kernel_rows = Vec::new();
    let (mut stepped_s, mut event_s) = (0.0f64, 0.0f64);
    let (mut total_executed, mut total_skipped) = (0u64, 0u64);
    let mut geomean_log = 0.0f64;
    for &spec in &quick.workloads {
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(1)
            .instructions(quick.instructions * 48)
            .build()
            .expect("valid quick config");
        let (mut t_stepped, mut t_event) = (f64::MAX, f64::MAX);
        let (mut executed, mut skipped) = (0u64, 0u64);
        for _ in 0..KERNEL_REPS {
            let (r_stepped, ts, _) = timed_kernel_run(cfg.clone(), KernelKind::Stepped);
            let (r_event, te, stats) = timed_kernel_run(cfg.clone(), KernelKind::Event);
            t_stepped = t_stepped.min(ts);
            t_event = t_event.min(te);
            (executed, skipped) = stats;
            if r_stepped.elapsed != r_event.elapsed
                || r_stepped.dram.acts.get() != r_event.dram.acts.get()
                || r_stepped.dram.alerts.get() != r_event.dram.alerts.get()
                || r_stepped.per_core_ipc != r_event.per_core_ipc
            {
                eprintln!(
                    "perf_smoke: event kernel diverged from stepped on {}",
                    spec.name
                );
                std::process::exit(1);
            }
        }
        stepped_s += t_stepped;
        event_s += t_event;
        total_executed += executed;
        total_skipped += skipped;
        let skip_ratio = skipped as f64 / (executed + skipped).max(1) as f64;
        let speedup = if t_event > 0.0 {
            t_stepped / t_event
        } else {
            0.0
        };
        geomean_log += speedup.max(f64::MIN_POSITIVE).ln();
        kernel_rows.push(format!(
            "{{\"workload\":\"{}\",\"stepped_s\":{t_stepped:.3},\"event_s\":{t_event:.3},\
             \"speedup\":{speedup:.2},\"skip_ratio\":{skip_ratio:.3}}}",
            spec.name,
        ));
    }
    let kernel_skip_ratio = total_skipped as f64 / (total_executed + total_skipped).max(1) as f64;
    let geomean_speedup = (geomean_log / quick.workloads.len().max(1) as f64).exp();

    // Batched A/B: eight same-shape scenario lanes per workload, once as a
    // SimBatch and once as eight standalone systems. Both sides are timed
    // end to end — construction, warmup, and run — because amortizing warmup
    // and trace generation across lanes is exactly what batching buys; the
    // standalone side deliberately pays the cold path a sweep without the
    // harness caches would pay. The per-lane budget keeps the total
    // instruction count equal to one kernel-A/B cell, and the same
    // interleaved min-of-N discipline applies. Lanes must reproduce their
    // standalone results bitwise or the benchmark exits nonzero.
    const BATCH_LANES: [Scenario; 8] = [
        BASELINE_ZEN,
        BASELINE_RUBIX,
        Scenario::Rfm { th: 4 },
        Scenario::Rfm { th: 8 },
        Scenario::RfmOnRubix { th: 4 },
        Scenario::AutoRfm { th: 2 },
        Scenario::AutoRfm { th: 4 },
        Scenario::AutoRfm { th: 8 },
    ];
    let lane_instr = quick.instructions * 48 / BATCH_LANES.len() as u64;
    let mut batch_rows = Vec::new();
    let (mut batch_seq_s, mut batch_s) = (0.0f64, 0.0f64);
    for &spec in &quick.workloads {
        let cfgs: Vec<SimConfig> = BATCH_LANES
            .iter()
            .map(|&sc| {
                SimConfig::builder(spec)
                    .scenario(sc)
                    .cores(1)
                    .instructions(lane_instr)
                    .build()
                    .expect("valid batch lane config")
            })
            .collect();
        let (mut t_seq, mut t_batch) = (f64::MAX, f64::MAX);
        for _ in 0..KERNEL_REPS {
            let t = Instant::now();
            let seq: Vec<SimResult> = cfgs
                .iter()
                .map(|cfg| {
                    System::new(cfg.clone())
                        .expect("valid batch lane config")
                        .run_with(KernelKind::Event)
                })
                .collect();
            t_seq = t_seq.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let batched = SimBatch::new(cfgs.clone())
                .expect("lanes share one warm shape")
                .run_with(KernelKind::Event);
            t_batch = t_batch.min(t.elapsed().as_secs_f64());
            for (i, (s, b)) in seq.iter().zip(&batched).enumerate() {
                if format!("{s:?}") != format!("{b:?}") {
                    eprintln!(
                        "perf_smoke: batch lane {i} diverged from standalone on {}",
                        spec.name
                    );
                    std::process::exit(1);
                }
            }
        }
        batch_seq_s += t_seq;
        batch_s += t_batch;
        let speedup = if t_batch > 0.0 { t_seq / t_batch } else { 0.0 };
        batch_rows.push(format!(
            "{{\"workload\":\"{}\",\"seq_s\":{t_seq:.3},\"batch_s\":{t_batch:.3},\
             \"speedup\":{speedup:.2}}}",
            spec.name,
        ));
    }
    let batch_speedup = if batch_s > 0.0 {
        batch_seq_s / batch_s
    } else {
        0.0
    };
    let batch_instr = quick.workloads.len() as u64 * BATCH_LANES.len() as u64 * lane_instr;
    let batch_instr_per_sec = if batch_s > 0.0 {
        batch_instr as f64 / batch_s
    } else {
        0.0
    };
    let seq_instr_per_sec = if batch_seq_s > 0.0 {
        batch_instr as f64 / batch_seq_s
    } else {
        0.0
    };

    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let sim_cycles: u64 = parallel_results.iter().map(|r| r.elapsed.raw()).sum();
    let cycles_per_sec = if parallel_s > 0.0 {
        sim_cycles as f64 / parallel_s
    } else {
        0.0
    };
    println!(
        "{{\"serial_s\":{serial_s:.3},\"parallel_s\":{parallel_s:.3},\"jobs\":{},\
         \"host_parallelism\":{host},\"sim_cycles\":{sim_cycles},\
         \"cycles_per_sec\":{cycles_per_sec:.0},\
         \"warm_prefetch_s\":{warm_prefetch_s:.3},\"cold_s\":{cold_s:.3},\
         \"forked_s\":{forked_s:.3},\"warm_fork_saved_s\":{:.3},\
         \"stepped_s\":{stepped_s:.3},\"event_s\":{event_s:.3},\
         \"kernel_skip_ratio\":{kernel_skip_ratio:.3},\
         \"geomean_speedup\":{geomean_speedup:.3},\
         \"kernels\":[{}],\
         \"batch_seq_s\":{batch_seq_s:.3},\"batch_s\":{batch_s:.3},\
         \"batch_speedup\":{batch_speedup:.3},\
         \"batch_instr_per_sec\":{batch_instr_per_sec:.0},\
         \"seq_instr_per_sec\":{seq_instr_per_sec:.0},\
         \"batches\":[{}]}}",
        quick.jobs,
        cold_s - forked_s,
        kernel_rows.join(","),
        batch_rows.join(","),
    );

    // Regression gate (off by default, enabled by verify.sh): an event kernel
    // slower than the stepped oracle is a perf bug, not a data point.
    if let Some(min) = opts.gate_speedup {
        if geomean_speedup < min {
            eprintln!(
                "perf_smoke: geomean event-kernel speedup {geomean_speedup:.3} \
                 below the --gate-speedup floor {min:.3}"
            );
            std::process::exit(1);
        }
    }
    // A batch slower than running its lanes one by one means the lockstep
    // engine regressed (or stopped amortizing warmup) — fail loudly.
    if let Some(min) = opts.gate_batch_speedup {
        if batch_speedup < min {
            eprintln!(
                "perf_smoke: batched speedup {batch_speedup:.3} below the \
                 --gate-batch-speedup floor {min:.3}"
            );
            std::process::exit(1);
        }
    }
}

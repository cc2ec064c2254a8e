//! Host-speed calibration. The machines the benchmark runs on are shared, and
//! their speed drifts by up to half, in bursts and in phases of seconds to
//! minutes, because neighbours contend for the cores' private caches. A
//! fixed reference kernel with a 2 MiB working set follows that drift (see
//! README.md), so the benchmark runs it on `THREADS` threads at moments when
//! none of the workload's threads run: before every round, after the last,
//! and between the fuzzer's generations. The lower quartile of those
//! reference times over [`REFERENCE_NOMINAL_MS`] is the run's host
//! slowness, by which the report scales every time and rate. Not the
//! median: on a contended host the reference times split into a fast and a
//! slow mode, the workloads slow down less than the kernel does in the slow
//! mode, and the median jumps between the modes from run to run (README.md
//! has the measured spreads). The kernel is part of the benchmark, not of
//! the code under test, so a change to the simulator moves the scaled
//! values exactly as it moves the raw ones.

use crate::THREADS;
use std::time::Instant;

/// The reference kernel's time on the host where the bounds were set (a
/// 2-vCPU Xeon VM), and so its time at nominal speed.
pub const REFERENCE_NOMINAL_MS: f64 = 0.8;

/// Table size (u64 words, 2 MiB) and random steps of one reference run.
const WORDS: usize = 1 << 18;
const STEPS: u64 = 50_000;

/// One reference run: a sequential pass that brings the table back into the
/// caches (so what ran before does not matter), then, timed, a xorshift
/// stream driving data-dependent loads, stores and branches over it.
/// Returns the timed part in milliseconds.
fn reference_ms(table: &mut [u64], seed: u64) -> f64 {
    for word in table.iter_mut() {
        *word = word.wrapping_add(1);
    }
    let start = Instant::now();
    let mut x = seed | 1;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        table[i] = table[i].wrapping_add(x);
        if table[i] & 1 == 0 {
            x = x.wrapping_add(1);
        }
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reference runs per thread in a sample between rounds; samples between
/// the fuzzer's generations take one.
pub const ROUND_REPS: usize = 20;

/// The host-speed samples of one run. Shared by reference: workloads take
/// samples from inside their round loops.
#[derive(Default)]
pub struct HostSpeed {
    inner: std::sync::Mutex<Samples>,
}

#[derive(Default)]
struct Samples {
    /// Every reference time of the run over the nominal time.
    times: Vec<f64>,
    count: usize,
    /// One table per thread, allocated by the first sample and kept, so the
    /// run's peak memory grows by a constant instead of by whether a sample
    /// or the workload peaked last.
    tables: Vec<Vec<u64>>,
}

impl HostSpeed {
    /// Takes one sample: `reps` reference runs on each of `THREADS`
    /// concurrent threads. Call it when none of the workload's threads run.
    pub fn sample(&self, reps: usize) {
        let mut inner = self.inner.lock().expect("host samples lock poisoned");
        let Samples {
            times,
            count,
            tables,
        } = &mut *inner;
        if tables.is_empty() {
            *tables = vec![vec![0u64; WORDS]; THREADS];
        }
        let seed = times.len() as u64;
        let new: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = tables
                .iter_mut()
                .enumerate()
                .map(|(t, table)| {
                    let seed = seed ^ ((t as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
                    scope.spawn(move || {
                        (0..reps)
                            .map(|r| reference_ms(table, seed + r as u64))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        times.extend(new.iter().map(|ms| ms / REFERENCE_NOMINAL_MS));
        *count += 1;
    }

    /// The run's host slowness (1 without samples; above 1 the host ran
    /// slower than nominal): the lower quartile of the run's reference times
    /// over the nominal time.
    pub fn slowness(&self) -> f64 {
        let inner = self.inner.lock().expect("host samples lock poisoned");
        match inner.times.len() {
            0 => 1.0,
            _ => crate::stats::percentile(&inner.times, 25.0),
        }
    }

    /// Summary of the samples for the run's `info:` line.
    pub fn describe(&self) -> String {
        let inner = self.inner.lock().expect("host samples lock poisoned");
        let p = |q| crate::stats::percentile(&inner.times, q);
        format!(
            "{} reference runs in {} samples; p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4}",
            inner.times.len(),
            inner.count,
            p(10.0),
            p(25.0),
            p(50.0),
            p(75.0)
        )
    }
}

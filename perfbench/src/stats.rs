//! Sample statistics shared by every workload: nearest-rank percentiles with
//! the ten-beyond rule for the reported tail, the quartiles `--repeat`
//! prints, metric-name validation, and the seed → round partition.

use autorfm::sim_core::DetRng;

/// The tail percentile every timing reports beside its median.
pub const TAIL: f64 = 90.0;

/// A reported percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples:
/// the smallest rank whose share of samples at or below it reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Nearest-rank percentile `p` of `values` (NaN for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The median, averaging the two middle values of an even-sized sample
/// (NaN for no samples). Used for per-round throughputs.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three quartile cut points by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let k = i * (n + 1);
        let j = (k / 4).clamp(1, n - 1);
        // Extrapolates past the ends for tiny samples, exactly as Python does.
        let delta = (k - 4 * j) as f64;
        let j = j as usize;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Generator seed `k` of round `round`, when every round owns `per_round`
/// consecutive seeds of the stream derived from the run's `--seed`. Seeds
/// stay below 2^32 so they survive the campaign service's JSON numbers.
pub fn round_seed(seed: u64, round: usize, per_round: usize, k: usize) -> u64 {
    let index = (round * per_round + k) as u64;
    DetRng::seeded(seed).fork(index).next_u64() & 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Order of the input does not matter.
        let shuffled = [3.0, 9.0, 1.0, 10.0, 5.0, 2.0, 8.0, 4.0, 7.0, 6.0];
        assert_eq!(percentile(&shuffled, 90.0), 9.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond, the minimum.
        assert_eq!(beyond(100, TAIL), 10);
        assert_eq!(beyond(99, TAIL), 9);
        assert_eq!(beyond(192, TAIL), 19);
        assert_eq!(beyond(0, TAIL), 0);
        assert!(beyond(100, TAIL) >= MIN_BEYOND);
        assert!(beyond(99, TAIL) < MIN_BEYOND);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some([1.25, 3.0, 7.0]));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), Some([4.0, 7.0, 10.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn metric_names() {
        for good in [
            "setup_s",
            "core.fork_ms_p50",
            "analysis.eval_ms.mint-recursive",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "-x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn rounds_partition_the_seed_stream() {
        // Same --seed, same partition.
        assert_eq!(round_seed(7, 2, 3, 1), round_seed(7, 2, 3, 1));
        // Round r with k seeds per round owns indices r*k .. r*k+k.
        assert_eq!(round_seed(7, 1, 3, 0), round_seed(7, 0, 1, 3));
        // Distinct slots and distinct --seed values give distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for round in 0..8 {
            for k in 0..3 {
                assert!(seen.insert(round_seed(7, round, 3, k)));
            }
        }
        assert_ne!(round_seed(7, 0, 1, 0), round_seed(8, 0, 1, 0));
        assert!(round_seed(u64::MAX, 5, 1, 0) <= u64::from(u32::MAX));
    }
}

//! Lightweight statistics primitives used across the simulator for reporting:
//! event counters, running averages, and fixed-bin histograms.

use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use core::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use autorfm_sim_core::Counter;
///
/// let mut acts = Counter::new();
/// acts.inc();
/// acts.add(3);
/// assert_eq!(acts.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub const fn get(&self) -> u64 {
        self.0
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        core::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A running average over `f64` samples.
///
/// # Examples
///
/// ```
/// use autorfm_sim_core::Average;
///
/// let mut avg = Average::new();
/// avg.push(1.0);
/// avg.push(3.0);
/// assert_eq!(avg.mean(), 2.0);
/// assert_eq!(avg.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Average {
    sum: f64,
    count: u64,
}

impl Average {
    /// Creates an empty average.
    pub const fn new() -> Self {
        Average { sum: 0.0, count: 0 }
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
    }

    /// Arithmetic mean of the samples so far; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub const fn sum(&self) -> f64 {
        self.sum
    }
}

impl FromIterator<f64> for Average {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut avg = Average::new();
        for x in iter {
            avg.push(x);
        }
        avg
    }
}

/// A histogram over `u64` values with fixed-width bins and an overflow bin.
///
/// # Examples
///
/// ```
/// use autorfm_sim_core::Histogram;
///
/// let mut h = Histogram::new(10, 8); // 8 bins of width 10
/// h.record(0);
/// h.record(15);
/// h.record(1_000); // overflow
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(1), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0` or `nbins == 0`.
    pub fn new(bin_width: u64, nbins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(nbins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; nbins],
            overflow: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuilds a histogram from its recorded state (a decoded snapshot or
    /// a metrics document); `None` for a shape [`Histogram::new`] rejects:
    /// a zero bin width or no bins.
    pub fn from_parts(
        bin_width: u64,
        bins: Vec<u64>,
        overflow: u64,
        total: u64,
        sum: u128,
        max: u64,
    ) -> Option<Self> {
        (bin_width > 0 && !bins.is_empty()).then_some(Histogram {
            bin_width,
            bins,
            overflow,
            total,
            sum,
            max,
        })
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Count in bin `idx` (values in `[idx*w, (idx+1)*w)`).
    pub fn bin_count(&self, idx: usize) -> u64 {
        self.bins.get(idx).copied().unwrap_or(0)
    }

    /// Width of each bin.
    pub const fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// All bin counts, including empty bins (telemetry export).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Sum of all recorded samples.
    pub const fn sum(&self) -> u128 {
        self.sum
    }

    /// Count of samples that exceeded the last bin.
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded samples.
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the binned counts,
    /// as Prometheus' `histogram_quantile` does: locate the bin holding rank
    /// `q · total` and interpolate linearly inside it.
    ///
    /// Returns `0.0` for an empty histogram. `q <= 0` yields the lower edge of
    /// the first non-empty bin; `q >= 1` (or any rank landing in the overflow
    /// bin) yields the recorded maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let rank = (q.max(0.0) * self.total as f64).max(f64::MIN_POSITIVE);
        let mut cum = 0u64;
        for (i, &count) in self.bins.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = cum;
            cum += count;
            if cum as f64 >= rank {
                let lo = (i as u64 * self.bin_width) as f64;
                let frac = (rank - before as f64) / count as f64;
                return lo + self.bin_width as f64 * frac;
            }
        }
        // Rank lands in the overflow bin (or floating-point slop ate it).
        self.max as f64
    }

    /// Iterates over `(bin_start, count)` pairs for non-empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.bin_width, c))
    }
}

impl Snapshot for Counter {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Counter(r.take_u64()?))
    }
}

impl Snapshot for Average {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.sum);
        w.put_u64(self.count);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Average {
            sum: r.take_f64()?,
            count: r.take_u64()?,
        })
    }
}

impl Snapshot for Histogram {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.bin_width);
        self.bins.encode(w);
        w.put_u64(self.overflow);
        w.put_u64(self.total);
        w.put_u128(self.sum);
        w.put_u64(self.max);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Histogram::from_parts(
            r.take_u64()?,
            Vec::decode(r)?,
            r.take_u64()?,
            r.take_u64()?,
            r.take_u128()?,
            r.take_u64()?,
        )
        .ok_or_else(|| SnapError::corrupt("degenerate histogram shape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn average_from_iterator() {
        let avg: Average = [2.0, 4.0, 6.0].into_iter().collect();
        assert_eq!(avg.mean(), 4.0);
        assert_eq!(avg.count(), 3);
        assert_eq!(avg.sum(), 12.0);
    }

    #[test]
    fn average_empty_is_zero() {
        assert_eq!(Average::new().mean(), 0.0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(5, 4);
        for v in [0, 4, 5, 19, 20, 100] {
            h.record(v);
        }
        assert_eq!(h.bin_count(0), 2); // 0, 4
        assert_eq!(h.bin_count(1), 1); // 5
        assert_eq!(h.bin_count(3), 1); // 19
        assert_eq!(h.overflow(), 2); // 20, 100
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 148.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_iter_skips_empty() {
        let mut h = Histogram::new(10, 10);
        h.record(35);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins, vec![(30, 1)]);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn histogram_zero_width_panics() {
        Histogram::new(0, 4);
    }
}

//! Deterministic pseudo-random number generation.
//!
//! The simulator needs randomness in three places: the in-DRAM trackers (MINT's
//! slot selection), Fractal Mitigation's distance selection, and the workload
//! generators. For bit-reproducible simulations across runs and library versions
//! we use our own xoshiro256++ implementation seeded with SplitMix64; no crate
//! in the workspace depends on `rand`.

/// A deterministic xoshiro256++ PRNG.
///
/// Not cryptographically secure — the paper's threat model assumes the attacker
/// cannot observe the DRAM chip's internal RNG outcomes (Section II-A), and for a
/// simulator statistical quality plus reproducibility is what matters.
///
/// # Examples
///
/// ```
/// use autorfm_sim_core::DetRng;
///
/// let mut a = DetRng::seeded(42);
/// let mut b = DetRng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let r = a.gen_range(10);
/// assert!(r < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start in the all-zero state.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s }
    }

    /// Derives an independent child generator (e.g. one per bank) from this
    /// generator's seed space. Deterministic in `(self, stream)`.
    pub fn fork(&self, stream: u64) -> Self {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a 16-bit random number, as used by Fractal Mitigation (Fig 10).
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// Returns a uniformly distributed integer in `[0, bound)` using Lemire's
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against a 53-bit uniform in [0,1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Returns a uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl autorfm_snapshot::Snapshot for DetRng {
    fn encode(&self, w: &mut autorfm_snapshot::Writer) {
        for word in self.s {
            w.put_u64(word);
        }
    }
    fn decode(r: &mut autorfm_snapshot::Reader<'_>) -> Result<Self, autorfm_snapshot::SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.take_u64()?;
        }
        if s == [0; 4] {
            return Err(autorfm_snapshot::SnapError::corrupt(
                "all-zero xoshiro state",
            ));
        }
        Ok(DetRng { s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seeded(7);
        let mut b = DetRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let root = DetRng::seeded(99);
        let mut c0 = root.fork(0);
        let mut c1 = root.fork(1);
        assert_ne!(c0.next_u64(), c1.next_u64());
        // fork is deterministic
        let mut c0b = root.fork(0);
        let mut c0a = root.fork(0);
        assert_eq!(c0a.next_u64(), c0b.next_u64());
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut rng = DetRng::seeded(3);
        for bound in [1u64, 2, 3, 4, 10, 255, 256, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = DetRng::seeded(5);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        DetRng::seeded(0).gen_range(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = DetRng::seeded(11);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_roughly_matches_p() {
        let mut rng = DetRng::seeded(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn u16_leading_zero_distribution_is_exponential() {
        // The Fractal Mitigation implementation relies on P(lz(rand16) = k) ≈ 2^-(k+1).
        let mut rng = DetRng::seeded(17);
        let n = 200_000;
        let mut counts = [0u32; 17];
        for _ in 0..n {
            let lz = rng.next_u16().leading_zeros().min(16) as usize;
            counts[lz] += 1;
        }
        for (k, &count) in counts.iter().enumerate().take(6) {
            let expect = n as f64 * 0.5f64.powi(k as i32 + 1);
            let got = count as f64;
            assert!(
                (got - expect).abs() < expect * 0.1,
                "lz={k}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seeded(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = DetRng::seeded(29);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}

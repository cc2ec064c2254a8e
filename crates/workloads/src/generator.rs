//! The synthetic instruction-stream generator.

use crate::spec::{Pattern, WorkloadSpec};
use autorfm_cpu::{InstructionStream, Op};
use autorfm_sim_core::{DetRng, LineAddr};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};

/// Generates an infinite instruction stream matching a [`WorkloadSpec`].
///
/// Each core runs its own generator over a disjoint address region (rate mode:
/// 8 copies of the same benchmark, Section III). Memory operations are spaced
/// `1000 / mem_pki` instructions apart on average, with ±50% uniform jitter so
/// banks don't receive lock-step bursts.
///
/// # Examples
///
/// ```
/// use autorfm_workloads::{WorkloadGen, WorkloadSpec};
/// use autorfm_cpu::{InstructionStream, Op};
///
/// let spec = WorkloadSpec::by_name("mcf").unwrap();
/// let mut gen = WorkloadGen::new(spec, 0, 1);
/// let mem_ops = (0..10_000)
///     .filter(|_| !matches!(gen.next_op(), Op::NonMem))
///     .count();
/// // mcf: ~23 memory ops per kilo-instruction.
/// assert!((150..=320).contains(&mem_ops), "{mem_ops}");
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: &'static WorkloadSpec,
    rng: DetRng,
    /// First line of this core's region.
    region_base: u64,
    /// Sequential stream cursors (offsets within the region).
    cursors: Vec<u64>,
    next_stream: usize,
    /// Instructions remaining until the next memory operation.
    gap_left: u32,
    /// Average instruction gap between memory operations (x2 for jitter).
    mean_gap: u32,
    /// A queued row-sibling access (see [`Self::sibling_probability`]).
    pending_sibling: Option<u64>,
}

impl WorkloadGen {
    /// Creates a generator for `core` with the given RNG seed.
    pub fn new(spec: &'static WorkloadSpec, core: u8, seed: u64) -> Self {
        let mut rng = DetRng::seeded(seed ^ ((core as u64) << 32));
        let region_base = core as u64 * spec.footprint_lines;
        let streams = match spec.pattern {
            Pattern::Streaming { streams } => streams,
            Pattern::GraphMixed { streams, .. } => streams,
            Pattern::Random { .. } => 1,
        }
        .max(1);
        // Stagger stream cursors across the footprint.
        let cursors = (0..streams as u64)
            .map(|s| {
                (s * spec.footprint_lines / streams as u64
                    + rng.gen_range(spec.footprint_lines / 8 + 1))
                    % spec.footprint_lines
            })
            .collect();
        let mean_gap = (1000.0 / spec.mem_pki).round().max(1.0) as u32;
        let gap_left = rng.gen_range(mean_gap as u64 * 2 + 1) as u32;
        WorkloadGen {
            spec,
            rng,
            region_base,
            cursors,
            next_stream: 0,
            gap_left,
            mean_gap,
            pending_sibling: None,
        }
    }

    /// Probability that a sequential access is followed shortly by its 4 KB
    /// page *row sibling* (the line 32 lines away, which the Zen mapping
    /// places in the same DRAM row). Real programs exhibit this page-level
    /// temporal adjacency; it is what gives Zen its row-buffer hits and makes
    /// Rubix pay extra activations (Sections III, IV-F).
    pub fn sibling_probability(&self) -> f64 {
        match self.spec.pattern {
            Pattern::Streaming { .. } => 0.40,
            Pattern::GraphMixed { .. } => 0.20,
            Pattern::Random { .. } => 0.10,
        }
    }

    /// The workload this generator follows.
    pub fn spec(&self) -> &'static WorkloadSpec {
        self.spec
    }

    /// Serializes the generator's mutable state (RNG, cursors, gap, queued
    /// sibling). The spec and per-core region are configuration and are
    /// rebuilt at restore via [`WorkloadGen::new`].
    pub fn save_state(&self, w: &mut Writer) {
        self.rng.encode(w);
        self.cursors.encode(w);
        w.put_usize(self.next_stream);
        w.put_u32(self.gap_left);
        self.pending_sibling.encode(w);
    }

    /// Restores the state saved by [`WorkloadGen::save_state`] into a
    /// generator constructed with the same spec, core, and seed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the cursor count differs from this
    /// generator's configuration or the input is malformed.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.rng = DetRng::decode(r)?;
        let cursors: Vec<u64> = Vec::decode(r)?;
        if cursors.len() != self.cursors.len() {
            return Err(SnapError::corrupt("stream cursor count mismatch"));
        }
        self.cursors = cursors;
        self.next_stream = r.take_usize()?;
        if self.next_stream >= self.cursors.len() {
            return Err(SnapError::corrupt("stream cursor index out of range"));
        }
        self.gap_left = r.take_u32()?;
        self.pending_sibling = Option::decode(r)?;
        Ok(())
    }

    fn sequential_line(&mut self) -> LineAddr {
        let s = self.next_stream;
        self.next_stream = (self.next_stream + 1) % self.cursors.len();
        let off = self.cursors[s];
        self.cursors[s] = (off + 1) % self.spec.footprint_lines;
        LineAddr(self.region_base + off)
    }

    fn random_line(&mut self) -> LineAddr {
        LineAddr(self.region_base + self.rng.gen_range(self.spec.footprint_lines))
    }

    /// Skips directly to the next memory operation, consuming the same RNG
    /// draws as stepping through the intervening [`Op::NonMem`] instructions.
    /// Used for cache warm-up fast-forwarding.
    pub fn next_mem(&mut self) -> Op {
        // Consume the gap draw exactly as next_op() would.
        self.gap_left = self.rng.gen_range(self.mean_gap as u64 * 2 + 1) as u32;
        self.mem_op()
    }

    fn mem_op(&mut self) -> Op {
        let is_write = self.rng.gen_bool(self.spec.write_fraction);
        // A queued row-sibling access takes precedence: it lands within a few
        // nanoseconds of its partner, inside the tRAS row-hit window.
        if let Some(off) = self.pending_sibling.take() {
            let line = LineAddr(self.region_base + off);
            return if is_write {
                Op::Store { line }
            } else {
                Op::Load {
                    line,
                    dependent: false,
                }
            };
        }
        let (line, dependent, sequential) = match self.spec.pattern {
            Pattern::Streaming { .. } => (self.sequential_line(), false, true),
            Pattern::Random { dependent_fraction } => (
                self.random_line(),
                self.rng.gen_bool(dependent_fraction),
                false,
            ),
            Pattern::GraphMixed {
                random_fraction, ..
            } => {
                if self.rng.gen_bool(random_fraction) {
                    (self.random_line(), false, false)
                } else {
                    (self.sequential_line(), false, true)
                }
            }
        };
        // Queue the same-row sibling: the line 32 lines ahead within the page.
        let sibling_p = self.sibling_probability();
        if sequential && self.rng.gen_bool(sibling_p) {
            let off = line.0 - self.region_base;
            if off % 64 < 32 && off + 32 < self.spec.footprint_lines {
                self.pending_sibling = Some(off + 32);
            }
        }
        if is_write {
            Op::Store { line }
        } else {
            Op::Load { line, dependent }
        }
    }
}

impl InstructionStream for WorkloadGen {
    fn next_op(&mut self) -> Op {
        if self.gap_left > 0 {
            self.gap_left -= 1;
            return Op::NonMem;
        }
        // Uniform jitter in [0, 2*mean_gap]: mean = mean_gap.
        self.gap_left = self.rng.gen_range(self.mean_gap as u64 * 2 + 1) as u32;
        self.mem_op()
    }

    fn take_nonmem(&mut self, max: u32) -> u32 {
        let n = self.gap_left.min(max);
        self.gap_left -= n;
        n
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::ALL_WORKLOADS;
    use std::collections::HashSet;

    fn count_ops(gen: &mut WorkloadGen, n: u64) -> (u64, u64, u64) {
        let (mut loads, mut stores, mut deps) = (0, 0, 0);
        for _ in 0..n {
            match gen.next_op() {
                Op::Load { dependent, .. } => {
                    loads += 1;
                    if dependent {
                        deps += 1;
                    }
                }
                Op::Store { .. } => stores += 1,
                _ => {}
            }
        }
        (loads, stores, deps)
    }

    #[test]
    fn mem_pki_approximately_matches_spec() {
        for spec in ALL_WORKLOADS {
            let mut gen = WorkloadGen::new(spec, 0, 7);
            let n = 2_000_000;
            let (loads, stores, _) = count_ops(&mut gen, n);
            let pki = (loads + stores) as f64 * 1000.0 / n as f64;
            assert!(
                (pki - spec.mem_pki).abs() < spec.mem_pki * 0.15,
                "{}: generated {pki:.1} mem-PKI, spec {:.1}",
                spec.name,
                spec.mem_pki
            );
        }
    }

    #[test]
    fn write_fraction_approximately_matches_spec() {
        for spec in ALL_WORKLOADS.iter().filter(|w| w.mem_pki > 5.0) {
            let mut gen = WorkloadGen::new(spec, 0, 13);
            let (loads, stores, _) = count_ops(&mut gen, 1_000_000);
            let frac = stores as f64 / (loads + stores) as f64;
            assert!(
                (frac - spec.write_fraction).abs() < 0.05,
                "{}: write fraction {frac:.2} vs {:.2}",
                spec.name,
                spec.write_fraction
            );
        }
    }

    #[test]
    fn streaming_lines_are_sequential_with_row_siblings() {
        let spec = WorkloadSpec::by_name("copy").unwrap();
        let mut gen = WorkloadGen::new(spec, 0, 3);
        let mut lines = Vec::new();
        for _ in 0..200_000 {
            if let Op::Load { line, .. } | Op::Store { line } = gen.next_op() {
                lines.push(line.0);
            }
        }
        // Each access should be either the successor of a recent access (a
        // stream advancing) or a +32 row sibling of a recent access.
        let window = 8usize;
        let (mut seq, mut sib, mut other) = (0u64, 0u64, 0u64);
        for i in window..lines.len() {
            let recent = &lines[i - window..i];
            let l = lines[i];
            if recent.iter().any(|&r| l == r + 1) {
                seq += 1;
            } else if recent.iter().any(|&r| l == r + 32) {
                sib += 1;
            } else {
                other += 1;
            }
        }
        let total = (seq + sib + other) as f64;
        assert!(
            seq as f64 > total * 0.5,
            "sequential fraction too low: {seq}/{total}"
        );
        // Consecutive siblings classify as "seq" (L+33 follows L+32), so the
        // residual sibling fraction is modest.
        assert!(
            sib as f64 > total * 0.05,
            "row siblings missing: {sib}/{total}"
        );
        assert!(
            (other as f64) < total * 0.1,
            "unexplained accesses: {other}/{total}"
        );
    }

    #[test]
    fn random_pattern_covers_footprint() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let mut gen = WorkloadGen::new(spec, 0, 5);
        let mut lines = HashSet::new();
        for _ in 0..500_000 {
            if let Op::Load { line, .. } | Op::Store { line } = gen.next_op() {
                lines.insert(line.0);
            }
        }
        assert!(
            lines.len() > 5_000,
            "random workload touched only {} lines",
            lines.len()
        );
    }

    #[test]
    fn cores_use_disjoint_regions() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let mut g0 = WorkloadGen::new(spec, 0, 7);
        let mut g1 = WorkloadGen::new(spec, 1, 7);
        let collect = |g: &mut WorkloadGen| {
            let mut v = HashSet::new();
            for _ in 0..100_000 {
                if let Op::Load { line, .. } | Op::Store { line } = g.next_op() {
                    v.insert(line.0);
                }
            }
            v
        };
        let a = collect(&mut g0);
        let b = collect(&mut g1);
        assert!(a.is_disjoint(&b), "core regions overlap");
    }

    #[test]
    fn dependent_loads_only_for_random_patterns() {
        let mcf = WorkloadSpec::by_name("mcf").unwrap();
        let mut gen = WorkloadGen::new(mcf, 0, 9);
        let (loads, _, deps) = count_ops(&mut gen, 1_000_000);
        let frac = deps as f64 / loads as f64;
        assert!((frac - 0.25).abs() < 0.05, "dependent fraction {frac}");

        let copy = WorkloadSpec::by_name("copy").unwrap();
        let mut gen = WorkloadGen::new(copy, 0, 9);
        let (_, _, deps) = count_ops(&mut gen, 200_000);
        assert_eq!(deps, 0);
    }

    /// Drains `stream` as a core does: a run of non-memory ops through
    /// `take_nonmem` when it offers one (at most `max` at a time), else one
    /// op through `next_op`. Returns the first `n` ops in order.
    pub(crate) fn ops_through_runs(
        stream: &mut impl InstructionStream,
        n: usize,
        max: u32,
    ) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            let k = stream.take_nonmem(max.min((n - ops.len()) as u32));
            if k > 0 {
                ops.extend(std::iter::repeat_n(Op::NonMem, k as usize));
            } else {
                ops.push(stream.next_op());
            }
        }
        ops
    }

    #[test]
    fn take_nonmem_yields_the_next_op_sequence() {
        for name in ["wrf", "xz", "mcf"] {
            let spec = WorkloadSpec::by_name(name).unwrap();
            for max in [1, 7, 16, 256] {
                let mut per_op = WorkloadGen::new(spec, 1, 11);
                let mut runs = per_op.clone();
                let expected: Vec<Op> = (0..20_000).map(|_| per_op.next_op()).collect();
                assert_eq!(ops_through_runs(&mut runs, 20_000, max), expected, "{name}");
                // No RNG draw went missing or extra: the streams continue alike.
                for _ in 0..2_000 {
                    assert_eq!(runs.next_op(), per_op.next_op(), "{name}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = WorkloadSpec::by_name("PageRank").unwrap();
        let mut a = WorkloadGen::new(spec, 2, 42);
        let mut b = WorkloadGen::new(spec, 2, 42);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}

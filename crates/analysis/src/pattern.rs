//! First-class attack patterns: the serializable [`AttackPattern`] genome —
//! the one representation of an adversarial activation sequence, shared by
//! replay, search, and storage.
//!
//! A genome is an aggressor-row layout (`base` + signed `offsets`), an
//! interleaving `schedule` over that layout, a `phase` rotation against the
//! mitigation-window boundary, and a decoy mix (`decoy_every`/`decoys`). It
//! is encoded with the snapshot crate's [`Writer`]/[`Reader`] codec;
//! [`AttackPattern::digest`] (the snapshot crate's `digest64` over the
//! canonical encoding) keys the fuzzer's survivor archive the same way
//! `SimConfig::key` keys campaign cells. [`PatternCursor`] replays a genome as the
//! activation stream [`crate::AttackSim::run_pattern`] drives.
//!
//! The paper's classic shapes are named constructors —
//! [`single`](AttackPattern::single),
//! [`double_sided`](AttackPattern::double_sided),
//! [`circular`](AttackPattern::circular) (MINT's `(A B C D)^K` of
//! Appendix A), [`half_double`](AttackPattern::half_double), and
//! [`decoy`](AttackPattern::decoy) — pinned against their closed-form row
//! sequences by the unit tests below.

use autorfm_sim_core::RowAddr;
use autorfm_snapshot::{digest64, Reader, SnapError, Snapshot, Writer};

/// Decoy rows live this far above `base` — the [`AttackPattern::decoy`]
/// convention of `aggressor + 1000 + k` — far enough that decoy activations
/// never disturb the pattern's own victims.
pub const DECOY_REGION_OFFSET: u32 = 1000;

/// Hard cap on aggressor-set size (offsets). Keeps genomes small and the
/// mutation space bounded; real worst-case patterns are narrow.
pub const MAX_OFFSETS: usize = 16;

/// Hard cap on interleaving-schedule length.
pub const MAX_SCHEDULE: usize = 64;

/// A serializable, mutable attack-pattern genome.
///
/// The emitted activation sequence is a pure function of the genome and the
/// step index (see [`AttackPattern::row_at`]), so replay is exact, digests
/// are stable, and two genomes with equal encodings are the same attack.
///
/// Field semantics:
///
/// * `base` — anchor row; the aggressor layout is relative to it.
/// * `offsets` — the aggressor-row layout as signed row offsets from `base`
///   (the *aggressor-set size* is `offsets.len()`).
/// * `schedule` — the interleaving order: indices into `offsets` (reduced
///   modulo `offsets.len()` at emission), repeated forever.
/// * `phase` — rotation of the schedule start, aligning the pattern against
///   the mitigation-window boundary (the attacker's only timing lever: the
///   defender mitigates every `window` activations regardless).
/// * `decoy_every` — if nonzero, every `decoy_every + 1`-th activation is a
///   decoy instead of a schedule step (the TRR-bypass mix).
/// * `decoys` — how many distinct decoy rows the decoy slots cycle through.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttackPattern {
    /// Anchor row.
    pub base: RowAddr,
    /// Aggressor layout: signed offsets from `base`.
    pub offsets: Vec<i16>,
    /// Interleaving schedule: indices into `offsets` (mod `offsets.len()`).
    pub schedule: Vec<u16>,
    /// Schedule rotation against the window boundary.
    pub phase: u16,
    /// Inject one decoy activation every `decoy_every + 1` steps (0 = never).
    pub decoy_every: u16,
    /// Distinct decoy rows cycled through by decoy slots.
    pub decoys: u8,
}

impl AttackPattern {
    /// Classic single-sided hammering of one aggressor row — also the
    /// minimal valid genome.
    pub fn single(base: RowAddr) -> Self {
        Self::scheduled(base, vec![0], vec![0])
    }

    /// A genome with no phase and no decoy mix: `schedule` indexes into
    /// `offsets` from `base`.
    fn scheduled(base: RowAddr, offsets: Vec<i16>, schedule: Vec<u16>) -> Self {
        AttackPattern {
            base,
            offsets,
            schedule,
            phase: 0,
            decoy_every: 0,
            decoys: 0,
        }
    }

    /// Double-sided hammering: alternate the two rows sandwiching `victim`
    /// (`victim - 1`, then `victim + 1`).
    pub fn double_sided(victim: RowAddr) -> Self {
        Self::scheduled(victim, vec![-1, 1], vec![0, 1])
    }

    /// The MINT-adversarial pattern of Appendix A: `window` unique rows from
    /// `base` activated in a circular fashion, `(A B C D)^K`. `window` is
    /// clamped to `1..=MAX_OFFSETS`.
    pub fn circular(base: RowAddr, window: u32) -> Self {
        let n = window.clamp(1, MAX_OFFSETS as u32) as u16;
        Self::scheduled(base, (0..n as i16).collect(), (0..n).collect())
    }

    /// Half-Double \[23\]: hammer the far aggressors `victim ± 2` plus a few
    /// near `victim ± 1` activations, flipping bits in the middle row via
    /// transitive disturbance from the victim refreshes. Each burst of
    /// `max(near_ratio + 2, 3)` steps (capped at `MAX_SCHEDULE`) is far low,
    /// far high, then near rows alternating from the low side.
    pub fn half_double(victim: RowAddr, near_ratio: u32) -> Self {
        let burst = (near_ratio as usize + 2).clamp(3, MAX_SCHEDULE);
        // Offsets: 0 = -2, 1 = +2, 2 = -1, 3 = +1.
        let schedule = (0..burst)
            .map(|k| match k {
                0 | 1 => k as u16,
                _ if k % 2 == 0 => 2,
                _ => 3,
            })
            .collect();
        Self::scheduled(victim, vec![-2, 2, -1, 1], schedule)
    }

    /// A decoy pattern that defeats deterministic single-entry trackers: one
    /// `aggressor` activation followed by `decoys` distinct decoy rows at
    /// `aggressor + 1000 + 1..=decoys`. `decoys` is clamped to
    /// `1..MAX_OFFSETS`.
    pub fn decoy(aggressor: RowAddr, decoys: u32) -> Self {
        let d = decoys.clamp(1, (MAX_OFFSETS - 1) as u32) as u16;
        let offsets = std::iter::once(0)
            .chain((1..=d).map(|k| (DECOY_REGION_OFFSET as i16).saturating_add(k as i16)))
            .collect();
        Self::scheduled(aggressor, offsets, (0..=d).collect())
    }

    /// The row activated at step `step` (0-based). The sequence is a pure
    /// function of the genome, so replay and digest-keyed dedup are exact.
    pub fn row_at(&self, step: u64) -> RowAddr {
        debug_assert!(!self.offsets.is_empty() && !self.schedule.is_empty());
        let sched_step = if self.decoy_every > 0 {
            let period = self.decoy_every as u64 + 1;
            if step % period == self.decoy_every as u64 {
                // Decoy slot: cycle through the decoy region above base.
                let idx = (step / period) % self.decoys.max(1) as u64;
                return RowAddr(
                    self.base
                        .0
                        .wrapping_add(DECOY_REGION_OFFSET)
                        .wrapping_add(idx as u32),
                );
            }
            step - step / period
        } else {
            step
        };
        let slot = (self.phase as u64 + sched_step) % self.schedule.len() as u64;
        let off = self.offsets[self.schedule[slot as usize] as usize % self.offsets.len()];
        RowAddr(self.base.0.wrapping_add_signed(off as i32))
    }

    /// The distinct rows this genome can activate, in emission-index order
    /// (aggressor layout first, then decoy rows). Reporting helper.
    pub fn touched_rows(&self) -> Vec<RowAddr> {
        let mut rows: Vec<RowAddr> = self
            .offsets
            .iter()
            .map(|&o| RowAddr(self.base.0.wrapping_add_signed(o as i32)))
            .collect();
        if self.decoy_every > 0 {
            rows.extend((0..self.decoys.max(1) as u32).map(|k| {
                RowAddr(
                    self.base
                        .0
                        .wrapping_add(DECOY_REGION_OFFSET)
                        .wrapping_add(k),
                )
            }));
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Clamps the genome onto its invariants (non-empty layout and schedule,
    /// capped sizes, rows inside the bank). Mutation operators call this so
    /// every candidate the fuzzer evaluates is well-formed.
    pub fn sanitize(&mut self, rows_per_bank: u32) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.truncate(MAX_OFFSETS);
        if self.schedule.is_empty() {
            self.schedule.push(0);
        }
        self.schedule.truncate(MAX_SCHEDULE);
        // Keep the whole layout (including the decoy region) inside the
        // bank: clamp the anchor away from both edges.
        let margin = DECOY_REGION_OFFSET + 256;
        let hi = rows_per_bank.saturating_sub(margin).max(margin);
        self.base = RowAddr(self.base.0.clamp(margin, hi));
        if self.decoy_every > 0 {
            self.decoys = self.decoys.max(1);
        }
    }

    /// Canonical encoding of the genome (the digest input).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a genome previously produced by [`AttackPattern::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated/corrupt input or a genome that
    /// violates the invariants (empty layout or schedule, oversize fields).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::new(bytes);
        let p = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(SnapError::corrupt("trailing bytes after AttackPattern"));
        }
        Ok(p)
    }

    /// Content digest of the canonical encoding (the snapshot crate's
    /// FNV-1a `digest64`). Keys the fuzzer's survivor archive: two genomes
    /// with equal digests are the same attack and are evaluated exactly
    /// once, like campaign cells.
    pub fn digest(&self) -> u64 {
        digest64(&self.to_bytes())
    }
}

impl Snapshot for AttackPattern {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.base.0);
        w.put_usize(self.offsets.len());
        for &o in &self.offsets {
            w.put_u16(o as u16);
        }
        w.put_usize(self.schedule.len());
        for &s in &self.schedule {
            w.put_u16(s);
        }
        w.put_u16(self.phase);
        w.put_u16(self.decoy_every);
        w.put_u8(self.decoys);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let base = RowAddr(r.take_u32()?);
        let n_off = r.take_usize()?;
        if n_off == 0 || n_off > MAX_OFFSETS {
            return Err(SnapError::corrupt(format!(
                "AttackPattern offsets length {n_off} out of 1..={MAX_OFFSETS}"
            )));
        }
        let mut offsets = Vec::with_capacity(n_off);
        for _ in 0..n_off {
            offsets.push(r.take_u16()? as i16);
        }
        let n_sched = r.take_usize()?;
        if n_sched == 0 || n_sched > MAX_SCHEDULE {
            return Err(SnapError::corrupt(format!(
                "AttackPattern schedule length {n_sched} out of 1..={MAX_SCHEDULE}"
            )));
        }
        let mut schedule = Vec::with_capacity(n_sched);
        for _ in 0..n_sched {
            schedule.push(r.take_u16()?);
        }
        Ok(AttackPattern {
            base,
            offsets,
            schedule,
            phase: r.take_u16()?,
            decoy_every: r.take_u16()?,
            decoys: r.take_u8()?,
        })
    }
}

/// Replays an [`AttackPattern`] genome as an infinite activation stream.
#[derive(Debug, Clone)]
pub struct PatternCursor {
    pattern: AttackPattern,
    step: u64,
}

impl PatternCursor {
    /// Starts replay at step 0.
    pub fn new(pattern: AttackPattern) -> Self {
        PatternCursor { pattern, step: 0 }
    }

    /// The genome being replayed.
    pub fn pattern(&self) -> &AttackPattern {
        &self.pattern
    }

    /// The next row to activate.
    pub fn next_row(&mut self) -> RowAddr {
        let row = self.pattern.row_at(self.step);
        self.step += 1;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emitted(p: &AttackPattern, n: usize) -> Vec<u32> {
        let mut cur = PatternCursor::new(p.clone());
        (0..n).map(|_| cur.next_row().0).collect()
    }

    /// Every named constructor emits its shape's closed-form row sequence
    /// exactly (the sequences the security experiments were calibrated on).
    #[test]
    fn constructors_emit_closed_form_shapes() {
        let v = 7000u32;
        let seq = |row: &dyn Fn(u64) -> u32| (0..200).map(row).collect::<Vec<u32>>();
        let half_double = |near_ratio: u64| {
            seq(&|i| match i % (near_ratio + 2).max(3) {
                0 => v - 2,
                1 => v + 2,
                k if k % 2 == 0 => v - 1,
                _ => v + 1,
            })
        };
        let cases = [
            (AttackPattern::single(RowAddr(v)), seq(&|_| v)),
            (
                AttackPattern::double_sided(RowAddr(v)),
                seq(&|i| if i % 2 == 0 { v - 1 } else { v + 1 }),
            ),
            (
                AttackPattern::circular(RowAddr(v), 4),
                seq(&|i| v + (i % 4) as u32),
            ),
            (
                AttackPattern::circular(RowAddr(v), 16),
                seq(&|i| v + (i % 16) as u32),
            ),
            (AttackPattern::half_double(RowAddr(v), 2), half_double(2)),
            (AttackPattern::half_double(RowAddr(v), 7), half_double(7)),
            (
                AttackPattern::decoy(RowAddr(v), 3),
                seq(&|i| match i % 4 {
                    0 => v,
                    k => v + DECOY_REGION_OFFSET + k as u32,
                }),
            ),
        ];
        for (pattern, want) in &cases {
            assert_eq!(
                &emitted(pattern, 200),
                want,
                "sequence drifted for {pattern:?}"
            );
        }
    }

    #[test]
    fn codec_round_trips() {
        let p = AttackPattern {
            base: RowAddr(40_000),
            offsets: vec![-2, 2, -1, 1, 30],
            schedule: vec![0, 1, 4, 2, 3, 0],
            phase: 3,
            decoy_every: 5,
            decoys: 2,
        };
        let bytes = p.to_bytes();
        let q = AttackPattern::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.digest(), q.digest());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(AttackPattern::from_bytes(&[]).is_err());
        let mut w = Writer::new();
        w.put_u32(5);
        w.put_usize(0); // empty offsets
        assert!(AttackPattern::from_bytes(w.bytes()).is_err());
        // Trailing garbage is rejected.
        let mut bytes = AttackPattern::single(RowAddr(9)).to_bytes();
        bytes.push(0);
        assert!(AttackPattern::from_bytes(&bytes).is_err());
    }

    #[test]
    fn digests_distinguish_genomes() {
        let a = AttackPattern::single(RowAddr(100));
        let mut b = a.clone();
        b.phase = 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.offsets = vec![0, 1];
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn decoy_mix_injects_decoy_rows() {
        let mut p = AttackPattern::single(RowAddr(5000));
        p.decoy_every = 2;
        p.decoys = 2;
        let rows = emitted(&p, 9);
        // Steps 2, 5, 8 are decoy slots, alternating between two decoy rows.
        assert_eq!(rows[2], 5000 + DECOY_REGION_OFFSET);
        assert_eq!(rows[5], 5000 + DECOY_REGION_OFFSET + 1);
        assert_eq!(rows[8], 5000 + DECOY_REGION_OFFSET);
        assert!(rows.iter().filter(|&&r| r == 5000).count() == 6);
        assert_eq!(p.touched_rows().len(), 3);
    }

    #[test]
    fn phase_rotates_schedule() {
        let mut p = AttackPattern::circular(RowAddr(1000), 4);
        p.phase = 2;
        assert_eq!(emitted(&p, 6), vec![1002, 1003, 1000, 1001, 1002, 1003]);
    }

    #[test]
    fn sanitize_restores_invariants() {
        let mut p = AttackPattern {
            base: RowAddr(3),
            offsets: vec![],
            schedule: vec![],
            phase: 9,
            decoy_every: 4,
            decoys: 0,
        };
        p.sanitize(131_072);
        assert!(!p.offsets.is_empty() && !p.schedule.is_empty());
        assert!(p.decoys >= 1);
        assert!(p.base.0 >= DECOY_REGION_OFFSET);
        // A sanitized genome always encodes and decodes.
        assert_eq!(AttackPattern::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}

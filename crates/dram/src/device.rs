//! The DRAM device: banks + rank timing + REF scheduling + mitigation modes.

use crate::audit::RowhammerAudit;
use crate::bank::BankArray;
use crate::config::{DeviceMitigation, DramConfig, RefreshPolicy};
use crate::prac::PracState;
use crate::stats::DramStats;
use crate::trace::{CommandKind, CommandTrace};
use autorfm_mitigation::{ExecutedMitigation, MitigationEngine, MitigationKind};
use autorfm_sim_core::{BankId, ConfigError, Cycle, DetRng, RowAddr, SubarrayId};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use autorfm_trackers::{build_bank_trackers, TrackerKind};

/// Result of attempting an ACT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActOutcome {
    /// The ACT was accepted; the row is now open.
    Accepted,
    /// The ACT was declined with an ALERT: the target row maps to the Subarray
    /// Under Mitigation. The controller may retry at `retry_at` (the paper's
    /// `t_M`-bounded retry, Section IV-A).
    Alerted {
        /// Cycle at which the SAUM is guaranteed free again.
        retry_at: Cycle,
    },
}

/// Number of ACT timestamps tracked for the tFAW window.
const FAW_DEPTH: usize = 4;

/// Per-rank (per sub-channel) ACT spacing state: tRRD and tFAW.
#[derive(Debug, Clone)]
struct RankTiming {
    last_act: Cycle,
    faw: [Cycle; FAW_DEPTH],
    faw_idx: usize,
}

impl RankTiming {
    fn new() -> Self {
        RankTiming {
            last_act: Cycle::ZERO,
            faw: [Cycle::ZERO; FAW_DEPTH],
            faw_idx: 0,
        }
    }

    #[inline]
    fn earliest_act(&self, t_rrd: Cycle, t_faw: Cycle) -> Cycle {
        let rrd_ready = if self.last_act == Cycle::ZERO {
            Cycle::ZERO
        } else {
            self.last_act + t_rrd
        };
        let faw_anchor = self.faw[self.faw_idx];
        let faw_ready = if faw_anchor == Cycle::ZERO {
            Cycle::ZERO
        } else {
            faw_anchor + t_faw
        };
        rrd_ready.max(faw_ready)
    }

    fn record_act(&mut self, now: Cycle) {
        self.last_act = now;
        self.faw[self.faw_idx] = now;
        self.faw_idx = (self.faw_idx + 1) % FAW_DEPTH;
    }
}

impl Snapshot for RankTiming {
    fn encode(&self, w: &mut Writer) {
        self.last_act.encode(w);
        for t in &self.faw {
            t.encode(w);
        }
        w.put_usize(self.faw_idx);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let last_act = Cycle::decode(r)?;
        let mut faw = [Cycle::ZERO; FAW_DEPTH];
        for t in &mut faw {
            *t = Cycle::decode(r)?;
        }
        let faw_idx = r.take_usize()?;
        if faw_idx >= FAW_DEPTH {
            return Err(SnapError::corrupt("tFAW cursor out of range"));
        }
        Ok(RankTiming {
            last_act,
            faw,
            faw_idx,
        })
    }
}

/// The DRAM device model.
///
/// See the crate-level documentation for the command protocol. All methods
/// take the current cycle `now`; the caller (memory controller) is responsible
/// for respecting the `earliest_*` timings — violations trip debug assertions.
pub struct DramDevice {
    cfg: DramConfig,
    banks: BankArray,
    engines: Vec<MitigationEngine>,
    prac: Vec<PracState>,
    stats: DramStats,
    audit: Option<RowhammerAudit>,
    trace: Option<CommandTrace>,
    next_ref_at: Cycle,
    next_refw_at: Cycle,
    /// Round-robin cursor for per-bank refresh.
    ref_rr: u32,
    /// Completed tREFI periods (used by the controller's RAA credit).
    ref_epoch: u64,
    ranks: Vec<RankTiming>,
    banks_per_rank: u16,
}

impl core::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DramDevice")
            .field("banks", &self.banks.len())
            .field("mitigation", &self.cfg.mitigation)
            .field("next_ref_at", &self.next_ref_at)
            .finish()
    }
}

impl DramDevice {
    /// Creates a device from the configuration, with deterministic per-bank
    /// RNG streams derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: DramConfig, seed: u64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.geometry.num_banks as usize;
        let root = DetRng::seeded(seed);
        let (tracker, policy, window) = match cfg.mitigation {
            DeviceMitigation::AutoRfm {
                tracker,
                policy,
                window,
            }
            | DeviceMitigation::Rfm {
                tracker,
                policy,
                window,
            } => (tracker, policy, window),
            DeviceMitigation::Prac { policy, .. } => (TrackerKind::Mint, policy, u32::MAX),
            DeviceMitigation::None => (TrackerKind::Mint, MitigationKind::Fractal, u32::MAX),
        };
        // Built once for the whole device so all-bank trackers (ABACuS) can
        // hand every engine a view of one shared state. Construction consumes
        // no RNG; each bank's engine stream keeps its `root.fork(b)` seed.
        let bank_trackers = build_bank_trackers(tracker, window, n)?;
        let mut engines = Vec::with_capacity(n);
        let mut prac = Vec::with_capacity(n);
        for (b, t) in bank_trackers.into_iter().enumerate() {
            let rng = root.fork(b as u64);
            engines.push(MitigationEngine::with_tracker(t, policy, window, rng)?);
            if let DeviceMitigation::Prac { abo_threshold, .. } = cfg.mitigation {
                prac.push(PracState::new(abo_threshold));
            }
        }
        let audit = cfg
            .audit
            .then(|| RowhammerAudit::new(cfg.geometry.num_banks, cfg.geometry.rows_per_bank));
        let trace = (cfg.trace_capacity > 0).then(|| CommandTrace::new(cfg.trace_capacity));
        // Two sub-channels in the baseline: banks [0,32) and [32,64).
        let banks_per_rank = (cfg.geometry.num_banks / 2).max(1);
        let num_ranks = cfg.geometry.num_banks.div_ceil(banks_per_rank) as usize;
        let first_ref = match cfg.refresh {
            RefreshPolicy::AllBank => cfg.timings.t_refi,
            RefreshPolicy::PerBank => cfg.timings.t_refi / cfg.geometry.num_banks as u64,
        };
        Ok(DramDevice {
            next_ref_at: first_ref,
            ref_rr: 0,
            ref_epoch: 0,
            next_refw_at: cfg.timings.t_refw,
            banks: BankArray::new(n),
            trace,
            engines,
            prac,
            stats: DramStats::new(),
            audit,
            ranks: vec![RankTiming::new(); num_ranks],
            banks_per_rank,
            cfg,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated event statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The Rowhammer damage oracle, if enabled.
    pub fn audit(&self) -> Option<&RowhammerAudit> {
        self.audit.as_ref()
    }

    /// The command trace, if enabled.
    pub fn trace(&self) -> Option<&CommandTrace> {
        self.trace.as_ref()
    }

    #[inline]
    fn trace_cmd(&mut self, at: Cycle, bank: BankId, kind: CommandKind) {
        if let Some(t) = self.trace.as_mut() {
            t.record(at, bank, kind);
        }
    }

    /// The cycle of the next self-scheduled REF event (controllers must not
    /// start service on an affected bank that would cross this boundary).
    #[inline]
    pub fn next_ref_at(&self) -> Cycle {
        self.next_ref_at
    }

    /// The next cycle at which *this bank* will be blocked by REF. Equal to
    /// [`Self::next_ref_at`] under all-bank refresh; under per-bank refresh it
    /// accounts for the round-robin rotation.
    #[inline]
    pub fn bank_next_ref(&self, bank: BankId) -> Cycle {
        match self.cfg.refresh {
            RefreshPolicy::AllBank => self.next_ref_at,
            RefreshPolicy::PerBank => {
                let n = self.banks.len() as u64;
                let slice = self.cfg.timings.t_refi / n;
                let ahead = (bank.0 as u64 + n - (self.ref_rr as u64 % n)) % n;
                self.next_ref_at + slice * ahead
            }
        }
    }

    /// Number of completed tREFI periods (each credits the RAA counters).
    #[inline]
    pub fn ref_epoch(&self) -> u64 {
        self.ref_epoch
    }

    /// The per-bank refresh rotation cursor: advances by one for every REFsb
    /// processed (unchanged under all-bank refresh). The bank refreshed by
    /// cursor value `c` is `c % num_banks`, so a caller that records the
    /// cursor across [`DramDevice::tick`] knows exactly which banks had their
    /// blocking window and open row disturbed.
    #[inline]
    pub fn ref_cursor(&self) -> u32 {
        self.ref_rr
    }

    /// The cycle of the next refresh-window rollover (audit bookkeeping).
    #[inline]
    pub fn next_refw_at(&self) -> Cycle {
        self.next_refw_at
    }

    /// Clocking contract: the next cycle at which [`DramDevice::tick`] would
    /// do work on its own (REF issue or refresh-window rollover), assuming no
    /// commands arrive in between. The device always has a self-scheduled
    /// event, so this never returns `None`. A caller that skips time must
    /// still tick the device at (or before) this cycle so REF processing,
    /// `ref_epoch`, and audit windows advance exactly as under per-step
    /// ticking.
    #[inline]
    pub fn next_event_at(&self, _now: Cycle) -> Option<Cycle> {
        Some(self.next_ref_at.min(self.next_refw_at))
    }

    fn rank_of(&self, bank: BankId) -> usize {
        (bank.0 / self.banks_per_rank) as usize
    }

    /// Advances device-internal schedules (REF every tREFI, audit refresh
    /// window). Call once per simulation step, before issuing commands.
    pub fn tick(&mut self, now: Cycle) {
        while now >= self.next_ref_at {
            let ref_start = self.next_ref_at;
            match self.cfg.refresh {
                RefreshPolicy::AllBank => {
                    let blocked = self.cfg.timings.t_rfc;
                    let until = ref_start + blocked;
                    self.banks.block_all_until(until);
                    if let Some(t) = self.trace.as_mut() {
                        for b in 0..self.banks.len() {
                            t.record(ref_start, BankId(b as u16), CommandKind::Ref { blocked });
                        }
                    }
                    self.stats.refs.add(self.banks.len() as u64);
                    self.ref_epoch += 1;
                    self.next_ref_at = ref_start + self.cfg.timings.t_refi;
                }
                RefreshPolicy::PerBank => {
                    // One bank per slice; a full rotation covers every bank
                    // once per tREFI. Per-bank refresh (REFsb) takes roughly
                    // half the all-bank tRFC in DDR5.
                    let bank = self.ref_rr as usize % self.banks.len();
                    self.ref_rr = self.ref_rr.wrapping_add(1);
                    let blocked = self.cfg.timings.t_rfc / 2;
                    let until = ref_start + blocked;
                    self.banks.block_until(bank, until);
                    if let Some(t) = self.trace.as_mut() {
                        t.record(ref_start, BankId(bank as u16), CommandKind::Ref { blocked });
                    }
                    self.stats.refs.inc();
                    if (self.ref_rr as usize).is_multiple_of(self.banks.len()) {
                        self.ref_epoch += 1;
                    }
                    self.next_ref_at =
                        ref_start + self.cfg.timings.t_refi / self.banks.len() as u64;
                }
            }
        }
        while now >= self.next_refw_at {
            if let Some(a) = self.audit.as_mut() {
                a.on_refresh_window_end();
            }
            self.next_refw_at += self.cfg.timings.t_refw;
        }
    }

    /// Earliest cycle an ACT may be issued to `bank` (bank + rank timing).
    #[inline]
    pub fn earliest_act(&self, bank: BankId) -> Cycle {
        self.earliest_act_bank(bank)
            .max(self.earliest_act_rank(bank))
    }

    /// The bank-local component of [`DramDevice::earliest_act`] (tRC/tRP
    /// recovery from the bank's own previous ACT/PRE). Changes only on
    /// commands issued to `bank` itself, which is what lets a controller
    /// cache it per bank and fold in the rank component at query time.
    #[inline]
    pub fn earliest_act_bank(&self, bank: BankId) -> Cycle {
        self.banks.earliest_act(bank.0 as usize)
    }

    /// The rank-shared component of [`DramDevice::earliest_act`] (tRRD/tFAW
    /// ACT spacing). Changes whenever *any* bank of the rank activates, so it
    /// must be read live rather than cached per bank.
    #[inline]
    pub fn earliest_act_rank(&self, bank: BankId) -> Cycle {
        self.ranks[self.rank_of(bank)].earliest_act(self.cfg.timings.t_rrd, self.cfg.timings.t_faw)
    }

    /// Earliest cycle a column command may be issued to `bank`'s open row.
    #[inline]
    pub fn earliest_col(&self, bank: BankId) -> Cycle {
        self.banks.earliest_col(bank.0 as usize)
    }

    /// Earliest cycle a PRE may be issued to `bank`.
    #[inline]
    pub fn earliest_pre(&self, bank: BankId) -> Cycle {
        self.banks.earliest_pre(bank.0 as usize)
    }

    /// The row currently open in `bank`.
    #[inline]
    pub fn open_row(&self, bank: BankId) -> Option<RowAddr> {
        self.banks.open_row(bank.0 as usize)
    }

    /// When the currently open row was activated.
    #[inline]
    pub fn act_time(&self, bank: BankId) -> Cycle {
        self.banks.act_time(bank.0 as usize)
    }

    /// The bank's full-blocking window end (REF/RFM/ABO).
    #[inline]
    pub fn blocked_until(&self, bank: BankId) -> Cycle {
        self.banks.blocked_until(bank.0 as usize)
    }

    /// The subarray of `row` under this device's geometry.
    pub fn subarray_of(&self, row: RowAddr) -> SubarrayId {
        self.cfg.geometry.subarray_of(row)
    }

    /// Attempts to activate `row` in `bank` at cycle `now`.
    ///
    /// Under AutoRFM, if `row` maps to the Subarray Under Mitigation the ACT is
    /// declined with [`ActOutcome::Alerted`] and no state changes; the paper's
    /// footnote 1 precharge-for-correctness is reflected in the controller's
    /// retry path.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the bank is precharged and timing-ready.
    pub fn try_act(&mut self, bank: BankId, row: RowAddr, now: Cycle) -> ActOutcome {
        let subarray = self.cfg.geometry.subarray_of(row);
        let i = bank.0 as usize;
        if self.banks.saum_conflict(i, subarray, now) {
            self.stats.alerts.inc();
            self.stats.conflicts_by_subarray.record(subarray.0 as u64);
            let retry_at = self.banks.saum_until(i);
            self.trace_cmd(now, bank, CommandKind::Alert { row });
            return ActOutcome::Alerted { retry_at };
        }
        self.banks.apply_act(i, row, now, &self.cfg.timings);
        let rank = self.rank_of(bank);
        self.ranks[rank].record_act(now);
        self.stats.acts.inc();
        self.trace_cmd(now, bank, CommandKind::Act { row });

        match self.cfg.mitigation {
            DeviceMitigation::AutoRfm { .. } | DeviceMitigation::Rfm { .. } => {
                self.engines[bank.0 as usize].on_act(row);
            }
            DeviceMitigation::Prac { .. } => {
                self.prac[bank.0 as usize].on_act(row);
            }
            DeviceMitigation::None => {}
        }
        if let Some(a) = self.audit.as_mut() {
            a.on_act(bank, row);
        }
        ActOutcome::Accepted
    }

    /// Issues a column access (RD/WR) to the open row of `bank` at `now`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that a row is open and tRCD has elapsed.
    pub fn column_access(&mut self, bank: BankId, is_write: bool, now: Cycle) {
        self.banks
            .apply_col(bank.0 as usize, is_write, now, &self.cfg.timings);
        if is_write {
            self.stats.writes.inc();
            self.trace_cmd(now, bank, CommandKind::Wr);
        } else {
            self.stats.reads.inc();
            self.trace_cmd(now, bank, CommandKind::Rd);
        }
    }

    /// Issues a precharge to `bank` at `now`. Under AutoRFM, a pending
    /// mitigation starts *on this precharge* (Section IV-B: "mitigation is
    /// started only on a precharge operation to the bank").
    pub fn precharge(&mut self, bank: BankId, now: Cycle) {
        self.banks
            .apply_pre(bank.0 as usize, now, &self.cfg.timings);
        self.stats.precharges.inc();
        self.trace_cmd(now, bank, CommandKind::Pre);
        if matches!(self.cfg.mitigation, DeviceMitigation::AutoRfm { .. }) {
            self.maybe_start_auto_mitigation(bank, now);
        }
    }

    fn maybe_start_auto_mitigation(&mut self, bank: BankId, now: Cycle) {
        let idx = bank.0 as usize;
        if !self.engines[idx].has_pending() {
            return;
        }
        let rows = self.cfg.geometry.rows_per_bank;
        match self.engines[idx].execute_pending(rows) {
            Some(m) => {
                let subarray = self.cfg.geometry.subarray_of(m.target.row);
                let duration = self.mitigation_duration();
                self.banks.start_mitigation(idx, subarray, now, duration);
                self.stats.mitigations_by_subarray.record(subarray.0 as u64);
                self.trace_cmd(now, bank, CommandKind::Mitigation { subarray, duration });
                self.record_mitigation(bank, &m);
            }
            None => {
                // The tracker had no candidate (possible with PrIDE); the
                // window's slot is simply unused — no SAUM, no stall.
                self.stats.empty_mitigations.inc();
            }
        }
    }

    fn record_mitigation(&mut self, bank: BankId, m: &ExecutedMitigation) {
        self.stats.mitigations.inc();
        self.stats.mitigation_levels.record(m.target.level as u64);
        self.stats.victim_refreshes.add(m.victims.len() as u64);
        for v in &m.victims {
            self.stats.victim_distances.record(v.distance as u64);
            if let Some(a) = self.audit.as_mut() {
                a.on_victim_refresh(bank, v.row);
            }
        }
    }

    /// Issues an explicit RFM command (RFM mode): blocks the bank for tRFM and
    /// performs the pending mitigation, if any.
    ///
    /// # Panics
    ///
    /// Debug-asserts the device is configured in RFM mode.
    pub fn issue_rfm(&mut self, bank: BankId, now: Cycle) {
        debug_assert!(
            matches!(self.cfg.mitigation, DeviceMitigation::Rfm { .. }),
            "issue_rfm requires RFM mode"
        );
        let idx = bank.0 as usize;
        self.banks.block_until(idx, now + self.cfg.timings.t_rfm);
        self.stats.rfms.inc();
        self.trace_cmd(now, bank, CommandKind::Rfm);
        if self.engines[idx].has_pending() {
            let rows = self.cfg.geometry.rows_per_bank;
            match self.engines[idx].execute_pending(rows) {
                Some(m) => self.record_mitigation(bank, &m),
                None => self.stats.empty_mitigations.inc(),
            }
        }
    }

    /// Whether an RFM-mode mitigation window has completed for `bank` and is
    /// waiting for the controller to grant time via [`DramDevice::issue_rfm`].
    #[inline]
    pub fn rfm_pending(&self, bank: BankId) -> bool {
        matches!(self.cfg.mitigation, DeviceMitigation::Rfm { .. })
            && self.engines[bank.0 as usize].has_pending()
    }

    /// Whether the PRAC per-row counters are requesting an ABO mitigation.
    #[inline]
    pub fn abo_pending(&self, bank: BankId) -> bool {
        matches!(self.cfg.mitigation, DeviceMitigation::Prac { .. })
            && self.prac[bank.0 as usize].abo_pending()
    }

    /// Services a pending ABO request (PRAC mode): blocks the bank for tRFM
    /// and refreshes the victims of the row that crossed the threshold.
    pub fn service_abo(&mut self, bank: BankId, now: Cycle) {
        debug_assert!(
            matches!(self.cfg.mitigation, DeviceMitigation::Prac { .. }),
            "service_abo requires PRAC mode"
        );
        let idx = bank.0 as usize;
        let Some(row) = self.prac[idx].take_abo() else {
            return;
        };
        self.banks.block_until(idx, now + self.cfg.timings.t_rfm);
        self.stats.abo_events.inc();
        self.trace_cmd(now, bank, CommandKind::Abo);
        let rows = self.cfg.geometry.rows_per_bank;
        let m = self.engines[idx].mitigate_row(row, rows);
        self.record_mitigation(bank, &m);
    }

    /// The tracker's per-bank storage in bits (Section VI-C reporting).
    pub fn tracker_storage_bits(&self) -> u32 {
        self.engines.first().map_or(0, |e| e.tracker_storage_bits())
    }

    /// The SAUM busy window per mitigation: one tRC per victim-refresh slot
    /// (`t_M` ≈ 4·tRC ≈ 192 ns for the paper's 4-refresh policies; 2·tRC for
    /// the minimal-pair ablation). The controller's retry timestamp must use
    /// the same value.
    pub fn mitigation_duration(&self) -> Cycle {
        let slots = self.engines.first().map_or(4, |e| e.refreshes_per_round());
        self.cfg.timings.t_rc * slots as u64
    }

    /// The currently active SAUM of `bank`, if a mitigation is in flight.
    pub fn active_saum(&self, bank: BankId, now: Cycle) -> Option<SubarrayId> {
        self.banks.active_saum(bank.0 as usize, now)
    }
}

impl DramDevice {
    /// Serializes the device's entire mutable state: bank timing machines,
    /// per-bank mitigation engines, PRAC counters, statistics, the damage
    /// audit and command trace (when enabled), and the REF scheduler.
    ///
    /// The configuration (geometry, timings, mitigation mode) is *not*
    /// serialized; [`DramDevice::restore_state`] must be called on a device
    /// constructed with the same [`DramConfig`].
    pub fn snapshot_state(&self, w: &mut Writer) {
        w.put_usize(self.banks.len());
        for i in 0..self.banks.len() {
            self.banks.encode_bank(i, w);
        }
        w.put_usize(self.engines.len());
        for e in &self.engines {
            e.save_state(w);
        }
        w.put_usize(self.prac.len());
        for p in &self.prac {
            p.save_state(w);
        }
        self.stats.encode(w);
        match &self.audit {
            None => w.put_u8(0),
            Some(a) => {
                w.put_u8(1);
                a.save_state(w);
            }
        }
        match &self.trace {
            None => w.put_u8(0),
            Some(t) => {
                w.put_u8(1);
                t.save_state(w);
            }
        }
        self.next_ref_at.encode(w);
        self.next_refw_at.encode(w);
        w.put_u32(self.ref_rr);
        w.put_u64(self.ref_epoch);
        w.put_usize(self.ranks.len());
        for rk in &self.ranks {
            rk.encode(w);
        }
    }

    /// Restores the state saved by [`DramDevice::snapshot_state`] into a
    /// device constructed with the same configuration and seed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the snapshot's structure does not match this
    /// device's configuration (bank/engine counts, audit/trace presence) or
    /// the input is malformed.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let nb = r.take_usize()?;
        if nb != self.banks.len() {
            return Err(SnapError::corrupt("bank count mismatch"));
        }
        for i in 0..nb {
            self.banks.decode_bank_into(i, r)?;
        }
        let ne = r.take_usize()?;
        if ne != self.engines.len() {
            return Err(SnapError::corrupt("engine count mismatch"));
        }
        for e in &mut self.engines {
            e.load_state(r)?;
        }
        let np = r.take_usize()?;
        if np != self.prac.len() {
            return Err(SnapError::corrupt("PRAC bank count mismatch"));
        }
        for p in &mut self.prac {
            p.load_state(r)?;
        }
        self.stats = DramStats::decode(r)?;
        match (r.take_u8()?, self.audit.as_mut()) {
            (0, None) => {}
            (1, Some(a)) => a.load_state(r)?,
            _ => return Err(SnapError::corrupt("audit presence mismatch")),
        }
        match (r.take_u8()?, self.trace.as_mut()) {
            (0, None) => {}
            (1, Some(t)) => t.load_state(r)?,
            _ => return Err(SnapError::corrupt("trace presence mismatch")),
        }
        self.next_ref_at = Cycle::decode(r)?;
        self.next_refw_at = Cycle::decode(r)?;
        self.ref_rr = r.take_u32()?;
        self.ref_epoch = r.take_u64()?;
        let nr = r.take_usize()?;
        if nr != self.ranks.len() {
            return Err(SnapError::corrupt("rank count mismatch"));
        }
        for rk in &mut self.ranks {
            *rk = RankTiming::decode(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autorfm_sim_core::{DramTimings, Geometry};

    fn small_cfg(mitigation: DeviceMitigation) -> DramConfig {
        DramConfig {
            geometry: Geometry::small(),
            mitigation,
            audit: true,
            ..DramConfig::default()
        }
    }

    fn t() -> DramTimings {
        DramTimings::ddr5()
    }

    #[test]
    fn basic_act_col_pre_flow() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::None), 1).unwrap();
        let now = Cycle::from_ns(10);
        assert_eq!(
            dev.try_act(BankId(0), RowAddr(7), now),
            ActOutcome::Accepted
        );
        assert_eq!(dev.open_row(BankId(0)), Some(RowAddr(7)));
        let col_at = dev.earliest_col(BankId(0));
        assert_eq!(col_at, now + t().t_rcd);
        dev.column_access(BankId(0), false, col_at);
        let pre_at = dev.earliest_pre(BankId(0));
        dev.precharge(BankId(0), pre_at);
        assert_eq!(dev.open_row(BankId(0)), None);
        assert_eq!(dev.stats().acts.get(), 1);
        assert_eq!(dev.stats().reads.get(), 1);
        assert_eq!(dev.stats().precharges.get(), 1);
    }

    #[test]
    fn ref_blocks_all_banks_every_trefi() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::None), 1).unwrap();
        let refi = t().t_refi;
        dev.tick(refi);
        for b in 0..8 {
            assert_eq!(dev.blocked_until(BankId(b)), refi + t().t_rfc);
        }
        assert_eq!(dev.stats().refs.get(), 8);
        assert_eq!(dev.next_ref_at(), refi * 2);
    }

    #[test]
    fn rank_timing_enforces_trrd() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::None), 1).unwrap();
        let now = Cycle::from_ns(10);
        dev.try_act(BankId(0), RowAddr(1), now);
        // Bank 1 is in the same rank (banks_per_rank = 4 for the 8-bank small
        // geometry): its earliest ACT respects tRRD.
        assert_eq!(dev.earliest_act(BankId(1)), now + t().t_rrd);
    }

    #[test]
    fn tfaw_limits_burst_of_activations() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::None), 1).unwrap();
        let mut at = Cycle::from_ns(10);
        for b in 0..4u16 {
            at = at.max(dev.earliest_act(BankId(b)));
            assert_eq!(dev.try_act(BankId(b), RowAddr(1), at), ActOutcome::Accepted);
        }
        // The 5th ACT in the rank must wait for the FAW window from the 1st.
        let first_act = Cycle::from_ns(10);
        assert!(dev.earliest_act(BankId(0)).max(first_act + t().t_faw) >= first_act + t().t_faw);
    }

    #[test]
    fn abacus_shares_counters_across_banks() {
        let cfg = small_cfg(DeviceMitigation::AutoRfm {
            tracker: TrackerKind::Abacus,
            policy: MitigationKind::Fractal,
            window: 4,
        });
        let mut dev = DramDevice::new(cfg, 1).unwrap();
        let mut at = Cycle::from_ns(10);
        // Bank 0 hammers row 7 three times — not enough to finish its window.
        for _ in 0..3 {
            at = at.max(dev.earliest_act(BankId(0)));
            assert_eq!(dev.try_act(BankId(0), RowAddr(7), at), ActOutcome::Accepted);
            let pre = dev.earliest_pre(BankId(0));
            dev.precharge(BankId(0), pre);
            at = pre;
        }
        assert_eq!(dev.stats().mitigations.get(), 0);
        // Bank 1 finishes a window on cold rows; its engine selects from the
        // shared ABACuS table, which names bank 0's row 7 the hottest.
        for r in 100..104u32 {
            at = at.max(dev.earliest_act(BankId(1)));
            assert_eq!(dev.try_act(BankId(1), RowAddr(r), at), ActOutcome::Accepted);
            let pre = dev.earliest_pre(BankId(1));
            dev.precharge(BankId(1), pre);
            at = pre;
        }
        assert_eq!(dev.stats().mitigations.get(), 1);
    }

    #[test]
    fn autorfm_mitigation_starts_on_pre_after_window() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::auto_rfm(4)), 1).unwrap();
        let bank = BankId(0);
        let mut at = Cycle::from_ns(10);
        // Window of 4 ACTs to rows of subarray 0.
        for r in 0..4u32 {
            at = at.max(dev.earliest_act(bank));
            assert_eq!(dev.try_act(bank, RowAddr(r), at), ActOutcome::Accepted);
            let pre = dev.earliest_pre(bank);
            dev.precharge(bank, pre);
            at = pre;
        }
        // The 4th PRE started a mitigation: some subarray is now busy.
        assert_eq!(dev.stats().mitigations.get(), 1);
        assert!(dev.active_saum(bank, at).is_some());
        // The SAUM frees after t_M = 4*tRC.
        let after = at + t().t_mitigation();
        assert!(dev.active_saum(bank, after).is_none());
    }

    #[test]
    fn act_to_saum_is_alerted_and_retry_succeeds() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::auto_rfm(4)), 1).unwrap();
        let bank = BankId(0);
        let mut at = Cycle::from_ns(10);
        // All four window ACTs to subarray 0 (rows < 512) so the SAUM is SA0.
        for r in 0..4u32 {
            at = at.max(dev.earliest_act(bank));
            dev.try_act(bank, RowAddr(r), at);
            let pre = dev.earliest_pre(bank);
            dev.precharge(bank, pre);
            at = pre;
        }
        let saum = dev.active_saum(bank, at).expect("mitigation in flight");
        assert_eq!(saum, SubarrayId(0), "aggressor from rows 0..4 lives in SA0");
        // An ACT to the SAUM is declined...
        let act_at = dev.earliest_act(bank).max(at);
        match dev.try_act(bank, RowAddr(5), act_at) {
            ActOutcome::Alerted { retry_at } => {
                assert_eq!(dev.stats().alerts.get(), 1);
                // ...and the retry at retry_at succeeds.
                let retry = retry_at.max(dev.earliest_act(bank));
                assert_eq!(dev.try_act(bank, RowAddr(5), retry), ActOutcome::Accepted);
            }
            ActOutcome::Accepted => panic!("expected ALERT for SAUM conflict"),
        }
        // An ACT to a different subarray proceeds uninterrupted.
        let pre = dev.earliest_pre(bank);
        dev.precharge(bank, pre);
        let act2 = dev.earliest_act(bank);
        assert_eq!(dev.try_act(bank, RowAddr(600), act2), ActOutcome::Accepted);
    }

    #[test]
    fn rfm_mode_blocks_bank_for_trfm() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::rfm(4)), 1).unwrap();
        let bank = BankId(0);
        let mut at = Cycle::from_ns(10);
        for r in 0..4u32 {
            at = at.max(dev.earliest_act(bank));
            dev.try_act(bank, RowAddr(r), at);
            let pre = dev.earliest_pre(bank);
            dev.precharge(bank, pre);
            at = pre;
        }
        assert!(dev.rfm_pending(bank));
        dev.issue_rfm(bank, at);
        assert_eq!(dev.blocked_until(bank), at + t().t_rfm);
        assert_eq!(dev.stats().rfms.get(), 1);
        assert_eq!(dev.stats().mitigations.get(), 1);
        assert!(!dev.rfm_pending(bank));
    }

    #[test]
    fn prac_abo_triggers_and_services() {
        let cfg = small_cfg(DeviceMitigation::Prac {
            abo_threshold: 3,
            policy: MitigationKind::Fractal,
        });
        let mut dev = DramDevice::new(cfg, 1).unwrap();
        let bank = BankId(0);
        let mut at = Cycle::from_ns(10);
        for _ in 0..3 {
            at = at.max(dev.earliest_act(bank));
            dev.try_act(bank, RowAddr(7), at);
            let pre = dev.earliest_pre(bank);
            dev.precharge(bank, pre);
            at = pre;
        }
        assert!(dev.abo_pending(bank));
        dev.service_abo(bank, at);
        assert!(!dev.abo_pending(bank));
        assert_eq!(dev.stats().abo_events.get(), 1);
        assert_eq!(dev.blocked_until(bank), at + t().t_rfm);
    }

    #[test]
    fn audit_sees_mitigation_refreshes() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::auto_rfm(4)), 3).unwrap();
        let bank = BankId(0);
        let mut at = Cycle::from_ns(10);
        // Hammer one row for many windows; the audit damage on its neighbors
        // must be bounded (MINT keeps selecting the only activated row).
        for _ in 0..200u32 {
            at = at.max(dev.earliest_act(bank));
            match dev.try_act(bank, RowAddr(100), at) {
                ActOutcome::Accepted => {
                    let pre = dev.earliest_pre(bank);
                    dev.precharge(bank, pre);
                    at = pre;
                }
                ActOutcome::Alerted { retry_at } => {
                    at = retry_at;
                }
            }
        }
        let audit = dev.audit().unwrap();
        // Single-row hammering with MINT window 4: every 4th ACT mitigates row
        // 100 and refreshes its d=1 victims, so damage stays around the window
        // size — far below the unmitigated count of ~200.
        assert!(
            audit.max_damage() <= 16,
            "max damage {}",
            audit.max_damage()
        );
        assert!(dev.stats().mitigations.get() >= 40);
    }

    #[test]
    fn mitigations_counted_per_window() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::auto_rfm(4)), 1).unwrap();
        let bank = BankId(3);
        let mut at = Cycle::from_ns(10);
        let mut accepted = 0u32;
        let mut row = 0u32;
        while accepted < 40 {
            at = at.max(dev.earliest_act(bank));
            match dev.try_act(bank, RowAddr(row % 8192), at) {
                ActOutcome::Accepted => {
                    accepted += 1;
                    row += 997;
                    let pre = dev.earliest_pre(bank);
                    dev.precharge(bank, pre);
                    at = pre;
                }
                ActOutcome::Alerted { retry_at } => at = retry_at,
            }
        }
        assert_eq!(dev.stats().mitigations.get(), 10); // 40 ACTs / window 4
        assert_eq!(dev.stats().victim_refreshes.get(), 40); // 4 per mitigation
    }

    #[test]
    fn per_bank_refresh_staggers_blocking() {
        let cfg = DramConfig {
            geometry: Geometry::small(),
            refresh: crate::config::RefreshPolicy::PerBank,
            ..DramConfig::default()
        };
        let mut dev = DramDevice::new(cfg, 1).unwrap();
        let slice = t().t_refi / 8;
        // After the first slice, exactly one bank is blocked.
        dev.tick(slice);
        let blocked: Vec<u16> = (0..8u16)
            .filter(|&b| dev.blocked_until(BankId(b)) > Cycle::ZERO)
            .collect();
        assert_eq!(
            blocked.len(),
            1,
            "exactly one bank refreshed per slice: {blocked:?}"
        );
        // A full rotation refreshes all banks and completes one epoch.
        dev.tick(t().t_refi + slice);
        assert!(dev.ref_epoch() >= 1);
        assert_eq!(dev.stats().refs.get() as usize, 9);
        // bank_next_ref is monotone within a rotation.
        let a = dev.bank_next_ref(BankId(0));
        let b = dev.bank_next_ref(BankId(1));
        assert_ne!(a, b, "per-bank refresh times must differ");
    }

    #[test]
    fn minimal_pair_halves_the_saum_window() {
        let cfg = DramConfig {
            geometry: Geometry::small(),
            mitigation: DeviceMitigation::AutoRfm {
                tracker: TrackerKind::Mint,
                policy: MitigationKind::MinimalPair,
                window: 2,
            },
            ..DramConfig::default()
        };
        let dev = DramDevice::new(cfg, 1).unwrap();
        assert_eq!(
            dev.mitigation_duration(),
            t().t_rc * 2,
            "2 refreshes -> 2 tRC"
        );
        let four = DramDevice::new(
            DramConfig {
                geometry: Geometry::small(),
                mitigation: DeviceMitigation::auto_rfm(4),
                ..DramConfig::default()
            },
            1,
        )
        .unwrap();
        assert_eq!(four.mitigation_duration(), t().t_rc * 4);
    }

    #[test]
    fn next_ref_boundary_advances() {
        let mut dev = DramDevice::new(small_cfg(DeviceMitigation::None), 1).unwrap();
        let refi = t().t_refi;
        assert_eq!(dev.next_ref_at(), refi);
        dev.tick(refi * 3 + Cycle::new(1));
        assert_eq!(dev.next_ref_at(), refi * 4);
        assert_eq!(dev.stats().refs.get(), 8 * 3);
    }
}

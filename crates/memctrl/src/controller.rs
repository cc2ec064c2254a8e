//! The memory controller: scheduling, page policy, RFM/AutoRFM/PRAC support.

use crate::request::{MemRequest, MemResponse};
use crate::stats::McStats;
use autorfm_dram::{ActOutcome, DeviceMitigation, DramDevice};
use autorfm_mapping::MemoryMap;
use autorfm_sim_core::{BankId, Cycle, DramTimings, RowAddr};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use std::collections::VecDeque;

/// How the controller handles an ALERTed (failed) ACT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// The paper's simple design (Fig 7): one busy bit + timestamp per bank;
    /// the whole bank is held for `t_M` and then retried.
    #[default]
    WholeBank,
    /// The complex alternative the paper describes but does not build: only
    /// the conflicting request is held; other requests to the bank (mapping to
    /// other subarrays) keep being serviced. Implemented as an ablation.
    PerRequest,
}

/// How writes are scheduled relative to reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Writes share the per-bank queues with reads in FCFS order (the simple
    /// model used for the paper's experiments).
    #[default]
    Inline,
    /// Writes are buffered separately and drained in bursts: reads always win
    /// until the buffer crosses `high`, then writes drain until `low`
    /// (standard watermark-based write draining). Extension/ablation.
    Buffered {
        /// Total write-buffer capacity (admission blocks when full).
        capacity: usize,
        /// Occupancy that starts a drain burst.
        high: usize,
        /// Occupancy that ends a drain burst.
        low: usize,
    },
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// The paper's policy (Section III): closed-page with a tRAS hit window —
    /// rows are auto-precharged once tRAS elapses, but requests serviced
    /// within tRAS of the ACT still hit the open row.
    #[default]
    ClosedWithinTras,
    /// Conventional open-page: the row stays open until a conflicting request
    /// arrives. The paper notes this performs *worse* under the Zen mapping;
    /// the `ablations` harness quantifies that claim.
    Open,
}

/// How much a REF command reduces the RAA counter (Section II-E: "a refresh
/// operation also reduces RAA by 50% or 100% of RFMTH").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaaRefCredit {
    /// REF reduces RAA by the full RFMTH (the paper's Section II-F setting).
    #[default]
    Full,
    /// REF reduces RAA by RFMTH/2 (the conservative JEDEC option).
    Half,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Retry policy for ALERTed ACTs.
    pub retry: RetryPolicy,
    /// Per-bank request-queue capacity.
    pub queue_capacity: usize,
    /// RAA reduction granted per REF (RFM mode only).
    pub raa_ref_credit: RaaRefCredit,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// How writes are scheduled relative to reads.
    pub write_policy: WritePolicy,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            retry: RetryPolicy::WholeBank,
            queue_capacity: 16,
            raa_ref_credit: RaaRefCredit::Full,
            page_policy: PagePolicy::ClosedWithinTras,
            write_policy: WritePolicy::Inline,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    id: u64,
    core: u8,
    is_write: bool,
    row: RowAddr,
    enqueued_at: Cycle,
    /// Per-request hold (RetryPolicy::PerRequest only).
    blocked_until: Cycle,
}

impl Snapshot for QueuedReq {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        w.put_u8(self.core);
        w.put_bool(self.is_write);
        self.row.encode(w);
        self.enqueued_at.encode(w);
        self.blocked_until.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(QueuedReq {
            id: r.take_u64()?,
            core: r.take_u8()?,
            is_write: r.take_bool()?,
            row: RowAddr::decode(r)?,
            enqueued_at: Cycle::decode(r)?,
            blocked_until: Cycle::decode(r)?,
        })
    }
}

/// A bank's wake, decomposed into cached bank-local candidate bases plus
/// eligibility bounds. The candidates depend only on the bank's own state
/// (its queues, holds, open row, mitigation counters, and own-command
/// timings), so they stay valid until an event touches *that bank*; the
/// shared, cross-bank terms — data-bus availability, rank tRRD/tFAW spacing,
/// and the (rotating) next-REF bound — are folded in with O(1) arithmetic
/// by [`MemController::live_wake`]. Every field is a timestamp or
/// `Cycle::MAX` ("no such candidate"), so the mere passage of time never
/// invalidates a cached entry.
#[derive(Debug, Clone, Copy)]
struct WakeCand {
    /// Min over candidates with no shared-state dependence at all:
    /// mitigation service points (ABO / RFM due) and precharge.
    fixed: Cycle,
    /// Row-buffer-hit base `max(gate, earliest_col)`; the live wake is
    /// `max(hit_local, bus_free)`, kept only if it lands inside the tRAS hit
    /// window and its data phase clears the bank's next REF.
    hit_local: Cycle,
    /// End of the tRAS hit window (`Cycle::MAX` under open-page: no bound).
    hit_window_end: Cycle,
    /// ACT base `max(gate, earliest_act_bank)`; the live wake is
    /// `max(act_local, rank ACT spacing)`, kept only if the service's data
    /// phase clears the bank's next REF.
    act_local: Cycle,
}

impl WakeCand {
    /// No candidates: an idle bank with nothing queued and nothing due.
    const NONE: WakeCand = WakeCand {
        fixed: Cycle::MAX,
        hit_local: Cycle::MAX,
        hit_window_end: Cycle::MAX,
        act_local: Cycle::MAX,
    };
}

/// The memory controller. Generic over the address mapping policy.
pub struct MemController<M: MemoryMap> {
    map: M,
    device: DramDevice,
    cfg: McConfig,
    timings: DramTimings,
    queues: Vec<VecDeque<QueuedReq>>,
    /// Fig 7: per-bank busy timestamp for the AutoRFM retry.
    bank_hold_until: Vec<Cycle>,
    /// Rolling Activation counters (RFM mode).
    raa: Vec<u32>,
    /// Per-sub-channel data-bus free time.
    bus_free: Vec<Cycle>,
    /// Whether the open row has serviced its activating (miss) access yet.
    miss_serviced: Vec<bool>,
    /// Per-bank write queues: empty unless writes are buffered.
    wqueues: Vec<VecDeque<QueuedReq>>,
    /// Total buffered writes across banks.
    write_count: usize,
    /// Currently in a drain burst.
    draining: bool,
    responses: Vec<MemResponse>,
    stats: McStats,
    rr_start: usize,
    prev_ref_epoch: u64,
    banks_per_subch: u16,
    rfm_th: Option<u32>,
    t_m: Cycle,
    /// Cached bank-local wake candidates (see [`WakeCand`]), stored as four
    /// parallel per-field arrays indexed by bank rather than an array of
    /// structs, next to the combined `wake_at` column: the wake query and
    /// the tick's due filter sweep `wake_at` across many banks and read the
    /// candidate columns only for the few banks they re-combine, so the SoA
    /// split keeps the hot sweep on contiguous memory. Redundant state:
    /// rebuilt on restore, never serialized — as are the bank bitmasks below
    /// (one bit per bank, 64 banks per word).
    wake_fixed: Vec<Cycle>,
    /// SoA column of [`WakeCand::hit_local`].
    wake_hit_local: Vec<Cycle>,
    /// SoA column of [`WakeCand::hit_window_end`].
    wake_hit_window_end: Vec<Cycle>,
    /// SoA column of [`WakeCand::act_local`].
    wake_act_local: Vec<Cycle>,
    /// Each bank's combined wake: its candidates folded with the shared
    /// terms as they stood when it was last combined ([`Cycle::MAX`] for a
    /// bank with no candidate). The shared terms only ever move later while
    /// the bank stays clean — the bus and rank ACT spacing are monotone, and
    /// a bank's next-REF bound moves only when a REF dirties that bank — so
    /// for a clean bank this is a lower bound on its live wake, and the bank
    /// provably cannot act before it.
    wake_at: Vec<Cycle>,
    /// Banks whose cached candidates must be recomputed before being
    /// trusted. Set only by events that change the *bank's own* state —
    /// shared couplings (data bus, rank ACT spacing, the next-REF bound) only
    /// leave `wake_at` early, never late, so they never dirty anything.
    dirty_mask: Vec<u64>,
    /// Banks whose cached candidates contain at least one entry: a clear bit
    /// (a clean idle bank, whose `wake_at` is `Cycle::MAX`) contributes
    /// nothing to the wake and is skipped without a load of its columns.
    active_mask: Vec<u64>,
    /// Lower bound on `wake_at` over the clean active banks: no such bank can
    /// act before it. Set exactly by every `tick_event` pass, lowered by
    /// every `refresh_wake`; a dirty bank is not covered, which is why
    /// `tick_or_skip` also requires `dirty_mask` to be clear.
    due_floor: Cycle,
    /// Valid bit positions in the final mask word (banks beyond `num_banks`
    /// must never be set).
    tail_mask: u64,
    /// Whether the device refreshes per bank (rotating REF cursor) — cached
    /// from the immutable device config so the query avoids re-deriving it.
    per_bank_ref: bool,
    /// `t_refi / num_banks`: spacing between consecutive per-bank REFs,
    /// hoisted out of the query (one division per construction, not per
    /// call). `Cycle::ZERO` under all-bank refresh.
    ref_slice: Cycle,
    /// `t_cl + t_burst`: a row-hit's data phase, for REF-collision checks.
    t_data: Cycle,
    /// `t_rcd + t_cl + t_burst`: a full ACT-to-data service, likewise.
    t_act_data: Cycle,
    /// Per-bank count of queued reads with a per-request hold set
    /// (`RetryPolicy::PerRequest` only); zero on the default path, which
    /// makes every eligibility scan over `queues` O(1).
    deferred: Vec<u32>,
    /// Per-bank count of queued reads targeting the currently open row.
    /// Meaningful only while a row is open: recounted on ACT, adjusted on
    /// enqueue/dequeue, ignored once the row closes.
    open_hits: Vec<u32>,
}

impl<M: MemoryMap> core::fmt::Debug for MemController<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemController")
            .field("map", &self.map.name())
            .field("banks", &self.queues.len())
            .field("pending", &self.pending_requests())
            .finish()
    }
}

impl<M: MemoryMap> MemController<M> {
    /// Creates a controller owning `device`, decoding addresses with `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` and `device` disagree on the geometry.
    pub fn new(map: M, device: DramDevice, cfg: McConfig) -> Self {
        assert_eq!(
            map.geometry(),
            &device.config().geometry,
            "mapping and device geometry must match"
        );
        let n = device.config().geometry.num_banks as usize;
        let timings = device.config().timings.clone();
        let rfm_th = match device.config().mitigation {
            DeviceMitigation::Rfm { window, .. } => Some(window),
            _ => None,
        };
        let t_m = device.mitigation_duration();
        let banks_per_subch = (device.config().geometry.num_banks / 2).max(1);
        let prev_ref_epoch = device.ref_epoch();
        let per_bank_ref = matches!(
            device.config().refresh,
            autorfm_dram::RefreshPolicy::PerBank
        );
        let ref_slice = if per_bank_ref {
            timings.t_refi / n as u64
        } else {
            Cycle::ZERO
        };
        let t_data = timings.t_cl + timings.t_burst;
        let t_act_data = timings.t_rcd + t_data;
        let mut mc = MemController {
            map,
            cfg,
            queues: vec![VecDeque::new(); n],
            bank_hold_until: vec![Cycle::ZERO; n],
            raa: vec![0; n],
            bus_free: vec![Cycle::ZERO; 2],
            miss_serviced: vec![true; n],
            wqueues: vec![VecDeque::new(); n],
            write_count: 0,
            draining: false,
            responses: Vec::new(),
            stats: McStats::new(),
            rr_start: 0,
            prev_ref_epoch,
            banks_per_subch,
            rfm_th,
            t_m,
            timings,
            device,
            wake_fixed: vec![Cycle::MAX; n],
            wake_hit_local: vec![Cycle::MAX; n],
            wake_hit_window_end: vec![Cycle::MAX; n],
            wake_act_local: vec![Cycle::MAX; n],
            wake_at: vec![Cycle::MAX; n],
            dirty_mask: vec![0; n.div_ceil(64)],
            active_mask: vec![0; n.div_ceil(64)],
            due_floor: Cycle::MAX,
            tail_mask: if n.is_multiple_of(64) {
                !0
            } else {
                (1u64 << (n % 64)) - 1
            },
            per_bank_ref,
            ref_slice,
            t_data,
            t_act_data,
            deferred: vec![0; n],
            open_hits: vec![0; n],
        };
        mc.mark_all_dirty();
        mc
    }

    #[inline]
    fn mark_dirty(&mut self, bi: usize) {
        self.dirty_mask[bi >> 6] |= 1 << (bi & 63);
    }

    fn mark_all_dirty(&mut self) {
        for w in &mut self.dirty_mask {
            *w = !0;
        }
        if let Some(last) = self.dirty_mask.last_mut() {
            *last &= self.tail_mask;
        }
    }

    /// The owned DRAM device (for statistics inspection).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The address mapping in use.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// Total requests sitting in the bank queues (reads + buffered writes).
    pub fn pending_requests(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.write_count
    }

    /// Whether every queue is empty (no work left).
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty) && self.write_count == 0
    }

    /// Attempts to accept a request; returns `false` if the target bank's
    /// queue is full (the caller should retry next cycle).
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let loc = self.map.locate(req.line);
        let queued = QueuedReq {
            id: req.id,
            core: req.core,
            is_write: req.is_write,
            row: loc.row,
            enqueued_at: now,
            blocked_until: Cycle::ZERO,
        };
        let bi = loc.bank.0 as usize;
        if req.is_write {
            if let WritePolicy::Buffered { capacity, high, .. } = self.cfg.write_policy {
                if self.write_count >= capacity {
                    return false;
                }
                self.wqueues[bi].push_back(queued);
                self.write_count += 1;
                self.mark_dirty(bi);
                if self.write_count >= high {
                    self.set_draining(true);
                }
                self.stats.enqueued.inc();
                return true;
            }
        }
        if self.queues[bi].len() >= self.cfg.queue_capacity {
            return false;
        }
        if self.device.open_row(loc.bank) == Some(queued.row) {
            self.open_hits[bi] += 1;
        }
        self.queues[bi].push_back(queued);
        self.mark_dirty(bi);
        self.stats.enqueued.inc();
        true
    }

    /// Flips the write-drain watermark state. Draining changes which queue
    /// `service_closed`/`bank_wake_cand` read for *every* bank, so a toggle
    /// invalidates all cached wakes.
    fn set_draining(&mut self, draining: bool) {
        if self.draining != draining {
            self.draining = draining;
            self.mark_all_dirty();
        }
    }

    /// Takes all responses produced since the last call.
    pub fn take_responses(&mut self) -> Vec<MemResponse> {
        core::mem::take(&mut self.responses)
    }

    /// Whether any responses await [`MemController::take_responses`] — the
    /// cheap probe behind the uncore's in-step wake bypass.
    pub fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Advances the controller (and device) to cycle `now`, issuing at most
    /// one command per bank. Call once per simulation step with monotonically
    /// non-decreasing `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_refresh(now);
        let n = self.queues.len();
        for i in 0..n {
            let b = (self.rr_start + i) % n;
            // Service is unconditional (the stepped oracle's per-step
            // semantics and cost must not change); the cache is only
            // *marked* when the bank's state actually mutated —
            // recomputation is deferred to the next `next_event_at` query,
            // which the stepped kernel never issues.
            if self.service_bank(BankId(b as u16), now) {
                self.mark_dirty(b);
            }
        }
        self.rr_start = (self.rr_start + 1) % n;
    }

    /// [`MemController::tick`] for time-skipping callers: identical
    /// refresh processing, but the service loop visits only the banks that
    /// could act at `now`. It walks the set bits of `active_mask |
    /// dirty_mask` in round-robin order from `rr_start` (a clean inactive
    /// bank has no candidate of any kind), refreshes each dirty bank's
    /// cached wake on the spot, and skips every bank whose combined
    /// `wake_at` lies beyond `now`: that is a lower bound on the bank's live
    /// wake, so `service_bank` would provably return `false` there without
    /// touching state. A serviced bank is refreshed straight away; a bank
    /// whose service fails kept its state, so only its shared terms are
    /// re-read (the bus or rank ACT spacing another bank just took). The
    /// pass leaves every bank clean and recomputes `due_floor` — the
    /// earliest `wake_at` left — for [`MemController::tick_or_skip`].
    pub fn tick_event(&mut self, now: Cycle) {
        self.tick_refresh(now);
        let n = self.queues.len();
        let start = self.rr_start;
        let tail = self.tick_due_banks(start, n, now);
        let head = self.tick_due_banks(0, start, now);
        self.due_floor = tail.min(head);
        self.rr_start = (self.rr_start + 1) % n;
    }

    /// The [`MemController::tick_event`] pass over banks `lo..hi`, in order:
    /// refreshes dirty banks and services the due ones. Returns the earliest
    /// `wake_at` the walked banks hold afterwards.
    fn tick_due_banks(&mut self, lo: usize, hi: usize, now: Cycle) -> Cycle {
        let mut floor = Cycle::MAX;
        for w in lo >> 6..hi.div_ceil(64) {
            let base = w << 6;
            let from = lo.saturating_sub(base);
            let to = (hi - base).min(64);
            let range = (!0u64 >> (64 - to)) & (!0u64 << from);
            // Servicing a bank sets only that bank's own bits, except that
            // ending a write-drain burst dirties every bank. Dirty bits are
            // reread live below, and the drain state gives no work to a bank
            // with none queued, so a snapshot of the word covers every later
            // bank in it.
            let mut m = (self.active_mask[w] | self.dirty_mask[w]) & range;
            while m != 0 {
                let bi = base + m.trailing_zeros() as usize;
                m &= m - 1;
                if (self.dirty_mask[w] >> (bi & 63)) & 1 != 0 {
                    self.refresh_wake(bi);
                }
                if self.wake_at[bi] <= now {
                    if self.service_bank(BankId(bi as u16), now) {
                        self.refresh_wake(bi);
                    } else {
                        self.recombine(bi);
                    }
                }
                floor = floor.min(self.wake_at[bi]);
            }
        }
        floor
    }

    /// Shared tick prologue: advances the device (REF / refresh-window
    /// processing) and applies the per-tREFI RAA credit, invalidating the
    /// cached wakes the refresh state touched.
    fn tick_refresh(&mut self, now: Cycle) {
        let ref_before = self.device.next_ref_at();
        let cursor_before = self.device.ref_cursor();
        self.device.tick(now);
        // Each completed tREFI period reduces every RAA counter by the
        // configured fraction of RFMTH (Section II-E/F).
        let epoch = self.device.ref_epoch();
        if epoch != self.prev_ref_epoch {
            if let Some(th) = self.rfm_th {
                let credit = match self.cfg.raa_ref_credit {
                    RaaRefCredit::Full => th,
                    RaaRefCredit::Half => (th / 2).max(1),
                } * (epoch - self.prev_ref_epoch) as u32;
                for raa in &mut self.raa {
                    *raa = raa.saturating_sub(credit);
                }
            }
            self.prev_ref_epoch = epoch;
            // The RAA credit (and, under all-bank refresh, the blocking
            // window) touched every bank's state: all candidates are stale.
            self.mark_all_dirty();
        } else if self.device.next_ref_at() != ref_before {
            // Per-bank REF(s) mid-rotation: only the refreshed banks had
            // their state disturbed (blocking window set, open row forced
            // closed). The moving next-REF *bound* is read live at query
            // time, so the other banks' candidates stay clean.
            let n = self.queues.len() as u32;
            let count = self.device.ref_cursor().wrapping_sub(cursor_before);
            if count >= n {
                self.mark_all_dirty();
            } else {
                for c in 0..count {
                    let b = (cursor_before.wrapping_add(c) % n) as usize;
                    self.mark_dirty(b);
                }
            }
        }
    }

    /// Single-step fast path for time-skipping callers: when the controller
    /// is provably quiet at `now`, compensates the round-robin rotation
    /// ([`MemController::skip_ticks`]) instead of ticking and returns `true`;
    /// otherwise returns `false` and the caller must
    /// [`MemController::tick_event`].
    ///
    /// Quiet means no cached candidate is stale (`dirty_mask` zero — a dirty
    /// bank *might* have work, so it forces a real tick rather than a
    /// recompute here), no clean bank is due (`now < due_floor`: every
    /// active bank's `wake_at` lies beyond `now`, so the tick's due filter
    /// would skip them all — also when a bank's own timing has passed and
    /// only the data bus or rank ACT spacing still holds it), and the
    /// device's next self-scheduled
    /// REF/refresh-window event lies beyond `now`. Under those conditions a
    /// tick could issue no command, produce no response, and move no device
    /// state — the same contract that lets the event kernel leap over such
    /// steps wholesale — so skipping is bitwise identical to ticking.
    #[inline]
    pub fn tick_or_skip(&mut self, now: Cycle) -> bool {
        if now >= self.due_floor
            || self.dirty_mask.iter().any(|&d| d != 0)
            || self.device.next_event_at(now).is_none_or(|w| w <= now)
        {
            return false;
        }
        self.skip_ticks(1);
        true
    }

    /// Recomputes and caches bank `bi`'s local wake candidates and its
    /// combined `wake_at`, clearing its dirty bit, maintaining its active bit
    /// and folding `wake_at` into `due_floor`.
    fn refresh_wake(&mut self, bi: usize) {
        let cand = self.bank_wake_cand(BankId(bi as u16));
        let active = cand.fixed != Cycle::MAX
            || cand.hit_local != Cycle::MAX
            || cand.act_local != Cycle::MAX;
        self.wake_fixed[bi] = cand.fixed;
        self.wake_hit_local[bi] = cand.hit_local;
        self.wake_hit_window_end[bi] = cand.hit_window_end;
        self.wake_act_local[bi] = cand.act_local;
        let (w, bit) = (bi >> 6, 1u64 << (bi & 63));
        self.dirty_mask[w] &= !bit;
        if active {
            self.active_mask[w] |= bit;
            let wake = self.recombine(bi);
            self.due_floor = self.due_floor.min(wake);
        } else {
            self.active_mask[w] &= !bit;
            self.wake_at[bi] = Cycle::MAX;
        }
    }

    /// Re-folds bank `bi`'s cached candidates with the live shared terms,
    /// stores the result as its `wake_at` and returns it. Only ever raises a
    /// clean bank's `wake_at` (the shared terms move one way), so any
    /// `due_floor` taken before stays a lower bound.
    #[inline]
    fn recombine(&mut self, bi: usize) -> Cycle {
        let wake = self.live_wake(bi);
        self.wake_at[bi] = wake;
        wake
    }

    /// Derives bank `bank`'s [`WakeCand`] from current state. Mirrors the
    /// candidate derivation of [`MemController::fresh_bank_next_event`] with
    /// the shared terms (bus, rank ACT spacing, next-REF bound) left out.
    /// The bank's buffered writes are candidates like its reads: write hits
    /// join the row-hit base, open-page write conflicts the precharge term,
    /// and a closed row's write drain is ready at once.
    ///
    /// Per-request holds fold into the bases exactly: a candidate of the form
    /// `min over requests r of max(base, r.blocked_until)` equals
    /// `max(base, min over r of r.blocked_until)` (max is monotonic), and the
    /// eligibility bounds (tRAS window, REF collision) only disqualify
    /// *later* times, so if the minimum fails them every hold does. Holds are
    /// timestamps set while servicing the bank (a dirtying event), so the
    /// aggregated minimum is as cacheable as any other base. The common
    /// no-holds case (`deferred == 0`) needs no scan of the reads: every
    /// queued read's `blocked_until` is `Cycle::ZERO`.
    fn bank_wake_cand(&self, bank: BankId) -> WakeCand {
        let bi = bank.0 as usize;
        let gate = self.bank_hold_until[bi].max(self.device.blocked_until(bank));
        let open = self.device.open_row(bank);
        let mitigation_due = (self.device.abo_pending(bank) && self.miss_serviced[bi])
            || self
                .rfm_th
                .is_some_and(|th| self.raa[bi] >= th && self.miss_serviced[bi]);
        if mitigation_due {
            return WakeCand {
                fixed: match open {
                    Some(_) => gate.max(self.device.earliest_pre(bank)),
                    None => gate,
                },
                ..WakeCand::NONE
            };
        }
        let held = self.deferred[bi] > 0;
        match open {
            Some(row) => {
                self.check_index(bi, row);
                // Earliest unblocked row hit (`None`: no hit queued).
                let read_hit = if held {
                    self.queues[bi]
                        .iter()
                        .filter(|r| r.row == row)
                        .map(|r| r.blocked_until)
                        .min()
                } else {
                    (self.open_hits[bi] > 0).then_some(Cycle::ZERO)
                };
                let hit_ready = read_hit
                    .into_iter()
                    .chain(self.write_ready(bi, |r| r.row == row))
                    .min();
                let hit_local = match hit_ready {
                    Some(b) => gate.max(self.device.earliest_col(bank)).max(b),
                    None => Cycle::MAX,
                };
                let (hit_window_end, fixed) = match self.cfg.page_policy {
                    PagePolicy::ClosedWithinTras => (
                        self.device.act_time(bank) + self.timings.t_ras,
                        gate.max(self.device.earliest_pre(bank)),
                    ),
                    PagePolicy::Open => {
                        // Precharge is a candidate only once a conflicting
                        // request waits — and no earlier than its hold.
                        let read_conflict = if held {
                            self.queues[bi]
                                .iter()
                                .filter(|r| r.row != row)
                                .map(|r| r.blocked_until)
                                .min()
                        } else {
                            (self.queues[bi].len() as u32 > self.open_hits[bi])
                                .then_some(Cycle::ZERO)
                        };
                        let conflict_ready = read_conflict
                            .into_iter()
                            .chain(self.write_ready(bi, |r| r.row != row))
                            .min();
                        let fixed = match conflict_ready {
                            Some(b) => gate.max(self.device.earliest_pre(bank)).max(b),
                            None => Cycle::MAX,
                        };
                        (Cycle::MAX, fixed)
                    }
                };
                WakeCand {
                    fixed,
                    hit_local,
                    hit_window_end,
                    act_local: Cycle::MAX,
                }
            }
            None => {
                // Write drain ignores per-request holds, as `service_closed`
                // does.
                let ready = if self.drains_writes(bi) {
                    Some(Cycle::ZERO)
                } else if held {
                    self.queues[bi].iter().map(|r| r.blocked_until).min()
                } else {
                    (!self.queues[bi].is_empty()).then_some(Cycle::ZERO)
                };
                WakeCand {
                    act_local: match ready {
                        Some(b) => gate.max(self.device.earliest_act_bank(bank)).max(b),
                        None => Cycle::MAX,
                    },
                    ..WakeCand::NONE
                }
            }
        }
    }

    /// Earliest `blocked_until` among bank `bi`'s buffered writes that match
    /// `pred` (`None` when none does, as always when writes are inline).
    #[inline]
    fn write_ready(&self, bi: usize, pred: impl Fn(&QueuedReq) -> bool) -> Option<Cycle> {
        let writes = &self.wqueues[bi];
        if writes.is_empty() {
            return None;
        }
        writes
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.blocked_until)
            .min()
    }

    /// Whether a closed bank `bi` serves its write queue next: while
    /// draining, or when it has no reads to do. Reads win otherwise.
    #[inline]
    fn drains_writes(&self, bi: usize) -> bool {
        !self.wqueues[bi].is_empty() && (self.draining || self.queues[bi].is_empty())
    }

    /// Clocking contract: a conservative lower bound on the next cycle at
    /// which [`MemController::tick`] could change any state (its own, the
    /// device's, or by producing a response), assuming no new requests arrive
    /// in between. Never `Cycle::MAX` in practice: the device's self-scheduled
    /// REF/refresh-window events always bound the wait.
    ///
    /// "Conservative" means the bound may be early — ticking at a cycle where
    /// nothing happens is harmless (it is exactly what the per-step kernel
    /// does) — but never late: every cycle strictly before the returned one is
    /// provably a no-op for every bank, so a time-skipping caller that jumps
    /// here and compensates the round-robin rotation with
    /// [`MemController::skip_ticks`] stays bitwise identical to per-step
    /// ticking.
    ///
    /// The wake is *cached*, not recomputed: every bank keeps its last
    /// derived bank-local candidates in the `wake_*` SoA columns and their
    /// combination with the shared terms in `wake_at`, and only banks whose
    /// own state changed since (tracked in `dirty_mask` — see DESIGN.md
    /// "Cached wakes and invalidation rules") are recomputed here;
    /// [`MemController::tick_event`] refreshes them too, so few are left.
    /// The shared couplings — data-bus availability, rank tRRD/tFAW spacing,
    /// the rotating next-REF bound — never dirty anything: they only move a
    /// clean bank's live wake later, so its `wake_at` stays a lower bound. A
    /// bank whose `wake_at` already reaches the running minimum cannot lower
    /// it and is passed over; any other is re-combined live
    /// (`MemController::live_wake`). The query is therefore an
    /// O(dirty-banks) refresh plus an O(banks) min, instead of a full rescan
    /// of every bank queue, and it equals that rescan exactly.
    pub fn next_event_at(&mut self, now: Cycle) -> Cycle {
        // The device's REF / refresh-window boundaries are global wakes: they
        // must be ticked on time so REF processing, RAA credits, and audit
        // windows land on the same step as under per-step ticking. They are
        // O(1) state reads on the device, so they are not cached here.
        let mut wake = self.device.next_event_at(now).unwrap_or(Cycle::MAX);
        // Only banks that are active (have candidates) or dirty (might) can
        // contribute: everything else is a clean idle bank, skipped a word
        // (64 banks) at a time.
        for w in 0..self.dirty_mask.len() {
            let mut m = self.active_mask[w] | self.dirty_mask[w];
            while m != 0 {
                let bi = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                if (self.dirty_mask[w] >> (bi & 63)) & 1 != 0 {
                    // Refreshing combines against the live terms: exact.
                    self.refresh_wake(bi);
                    wake = wake.min(self.wake_at[bi]);
                } else if self.wake_at[bi] < wake {
                    wake = wake.min(self.recombine(bi));
                }
            }
        }
        wake
    }

    /// Folds the live shared terms into bank `bi`'s cached local
    /// candidates: the data-bus free time and rank ACT spacing push
    /// candidate bases later; the bank's next-REF bound disqualifies
    /// candidates whose data phase would collide with it. Exactly mirrors
    /// the eligibility checks of [`MemController::fresh_bank_next_event`].
    /// Each shared term is read only when a candidate needs it.
    #[inline]
    fn live_wake(&self, bi: usize) -> Cycle {
        let bank = BankId(bi as u16);
        let mut wake = self.wake_fixed[bi];
        let hit_local = self.wake_hit_local[bi];
        if hit_local != Cycle::MAX {
            let t = hit_local.max(self.bus_free[self.subch_of(bank)]);
            if t <= self.wake_hit_window_end[bi] && t + self.t_data <= self.bank_ref(bi) {
                wake = wake.min(t);
            }
        }
        let act_local = self.wake_act_local[bi];
        if act_local != Cycle::MAX {
            let t = act_local.max(self.device.earliest_act_rank(bank));
            if t + self.t_act_data <= self.bank_ref(bi) {
                wake = wake.min(t);
            }
        }
        wake
    }

    /// Bank `bi`'s next REF: [`DramDevice::bank_next_ref`] from the
    /// controller's hoisted `ref_slice`, without its per-call division.
    #[inline]
    fn bank_ref(&self, bi: usize) -> Cycle {
        let next_ref = self.device.next_ref_at();
        if !self.per_bank_ref {
            return next_ref;
        }
        let n = self.queues.len();
        let mut ahead = bi + n - self.device.ref_cursor() as usize % n;
        if ahead >= n {
            ahead -= n;
        }
        next_ref + self.ref_slice * ahead as u64
    }

    /// Test oracle: the same wake computed from scratch, bypassing both the
    /// per-bank wake cache and the indexed-queue fast paths. O(banks × queue
    /// length); [`MemController::next_event_at`] must always agree with this.
    #[doc(hidden)]
    pub fn fresh_next_event_at(&self, now: Cycle) -> Cycle {
        let mut wake = self.device.next_event_at(now).unwrap_or(Cycle::MAX);
        for b in 0..self.queues.len() {
            if let Some(w) = self.fresh_bank_next_event(BankId(b as u16)) {
                wake = wake.min(w);
            }
        }
        wake
    }

    /// The earliest cycle at which [`MemController::service_bank`] could act
    /// on `bank` (mirrors its decision order over current state), or `None`
    /// if the bank has no work that time alone can unblock before the next
    /// REF (the device wake covers the post-REF recomputation). Scans every
    /// queued request: the oracle behind
    /// [`MemController::fresh_next_event_at`].
    ///
    /// The result depends only on controller and device state — never on
    /// the current cycle — which is what makes caching it in the `wake_*`
    /// columns sound.
    fn fresh_bank_next_event(&self, bank: BankId) -> Option<Cycle> {
        let bi = bank.0 as usize;
        // Nothing happens before both the whole-bank retry hold (Fig 7) and
        // the device-level blocking window have passed.
        let gate = self.bank_hold_until[bi].max(self.device.blocked_until(bank));
        let open = self.device.open_row(bank);
        // ABO / RFM service points: due as soon as the gate passes (closed
        // row) or once the open row may be precharged.
        let mitigation_due = (self.device.abo_pending(bank) && self.miss_serviced[bi])
            || self
                .rfm_th
                .is_some_and(|th| self.raa[bi] >= th && self.miss_serviced[bi]);
        if mitigation_due {
            return Some(match open {
                Some(_) => gate.max(self.device.earliest_pre(bank)),
                None => gate,
            });
        }
        let requests = || self.queues[bi].iter().chain(self.wqueues[bi].iter());
        match open {
            Some(row) => {
                let mut wake: Option<Cycle> = None;
                let mut consider = |c: Cycle| {
                    wake = Some(wake.map_or(c, |w| w.min(c)));
                };
                // Earliest serviceable row-buffer hit: any matching read or
                // write, once unblocked, the column timing allows, and the
                // bus is free — provided the hit lands inside the tRAS hit
                // window and its data phase clears the bank's next REF. (The
                // actual tick still picks by queue position; an early wake at
                // worst executes a no-op step.)
                let hit_base = gate
                    .max(self.device.earliest_col(bank))
                    .max(self.bus_free[self.subch_of(bank)]);
                let window_end = match self.cfg.page_policy {
                    PagePolicy::ClosedWithinTras => {
                        Some(self.device.act_time(bank) + self.timings.t_ras)
                    }
                    PagePolicy::Open => None,
                };
                let next_ref = self.device.bank_next_ref(bank);
                for r in requests().filter(|r| r.row == row) {
                    let t = hit_base.max(r.blocked_until);
                    if window_end.is_none_or(|end| t <= end) && t + self.t_data <= next_ref {
                        consider(t);
                    }
                }
                // Precharge: unconditional under closed-page once tRAS
                // allows; open-page only once a conflicting request waits.
                let pre_ready = match self.cfg.page_policy {
                    PagePolicy::ClosedWithinTras => Some(Cycle::ZERO),
                    PagePolicy::Open => requests()
                        .filter(|r| r.row != row)
                        .map(|r| r.blocked_until)
                        .min(),
                };
                if let Some(b) = pre_ready {
                    consider(gate.max(self.device.earliest_pre(bank)).max(b));
                }
                wake
            }
            None => {
                // The next ACT: earliest eligible request once ACT timing
                // (tRC/tRP, tRRD, tFAW) allows. Write drain ignores
                // per-request holds, matching service_closed.
                let earliest_req = if self.drains_writes(bi) {
                    Some(Cycle::ZERO)
                } else {
                    self.queues[bi].iter().map(|r| r.blocked_until).min()
                };
                let t = gate.max(self.device.earliest_act(bank)).max(earliest_req?);
                // A service whose data phase would collide with REF is
                // refused until after the REF; the device wake covers that.
                (t + self.t_act_data <= self.device.bank_next_ref(bank)).then_some(t)
            }
        }
    }

    /// Compensates for `steps` skipped [`MemController::tick`] calls during
    /// which every bank was provably idle: each tick advances the round-robin
    /// arbitration start by one regardless of work, and snapshots include it.
    /// Skipped steps issue no commands, so the rotation's *order* cannot have
    /// mattered — only its final position must match per-step ticking.
    pub fn skip_ticks(&mut self, steps: u64) {
        let n = self.queues.len();
        self.rr_start = (self.rr_start + (steps % n as u64) as usize) % n;
    }

    fn subch_of(&self, bank: BankId) -> usize {
        (bank.0 / self.banks_per_subch) as usize % self.bus_free.len()
    }

    /// Debug guard: the indexed aggregates must agree with a recount whenever
    /// a fast path is about to rely on them.
    #[inline]
    fn check_index(&self, bi: usize, row: RowAddr) {
        debug_assert_eq!(
            self.open_hits[bi] as usize,
            self.queues[bi].iter().filter(|r| r.row == row).count(),
            "open_hits out of sync on bank {bi}"
        );
        debug_assert_eq!(
            self.deferred[bi] as usize,
            self.queues[bi]
                .iter()
                .filter(|r| r.blocked_until != Cycle::ZERO)
                .count(),
            "deferred out of sync on bank {bi}"
        );
    }

    /// Returns `true` when the bank's state mutated in any way (a command
    /// was issued, a hold was set, a request moved) — the caller must then
    /// mark the bank's cached wake candidates dirty. A `false` return
    /// guarantees the bank's own state is untouched, so its cached
    /// [`WakeCand`] is still exact.
    fn service_bank(&mut self, bank: BankId, now: Cycle) -> bool {
        let bi = bank.0 as usize;
        // AutoRFM whole-bank hold (busy bit + timestamp, Fig 7).
        if now < self.bank_hold_until[bi] {
            return false;
        }
        // Device-level blocking (REF / RFM / ABO in progress).
        if now < self.device.blocked_until(bank) {
            return false;
        }
        // PRAC: service ABO mitigation requests first. If a row is open with
        // an unserviced request, let that service finish (via the open-row
        // path below) rather than wasting its activation.
        if self.device.abo_pending(bank) && self.miss_serviced[bi] {
            if self.device.open_row(bank).is_some() {
                if now >= self.device.earliest_pre(bank) {
                    self.device.precharge(bank, now);
                    return true;
                }
                return false;
            }
            self.device.service_abo(bank, now);
            self.stats.abo_serviced.inc();
            return true;
        }
        // RFM insertion when the RAA counter reaches RFMTH — again only once
        // the in-flight service (if any) has used its activation.
        if let Some(th) = self.rfm_th {
            if self.raa[bi] >= th && self.miss_serviced[bi] {
                if self.device.open_row(bank).is_some() {
                    if now >= self.device.earliest_pre(bank) {
                        self.device.precharge(bank, now);
                        return true;
                    }
                    return false;
                }
                self.device.issue_rfm(bank, now);
                self.raa[bi] -= th;
                self.stats.rfms_issued.inc();
                return true;
            }
        }
        match self.device.open_row(bank) {
            Some(row) => self.service_open(bank, row, now),
            None => self.service_closed(bank, now),
        }
    }

    fn service_open(&mut self, bank: BankId, row: RowAddr, now: Cycle) -> bool {
        let bi = bank.0 as usize;
        // Row-buffer hits are permitted only while within tRAS of the ACT
        // under the paper's closed-page variant (Section III); the open-page
        // ablation keeps the hit window open indefinitely.
        let hit_window_open = match self.cfg.page_policy {
            PagePolicy::ClosedWithinTras => now <= self.device.act_time(bank) + self.timings.t_ras,
            PagePolicy::Open => true,
        };
        let sub = self.subch_of(bank);
        if hit_window_open {
            // Prefer reads; a buffered write to the open row may also hit.
            // With no per-request holds outstanding the eligibility check is
            // vacuous, and the row-hit count skips the scan entirely when no
            // queued read targets the open row (the common case).
            let mut from_writes = false;
            let mut pos = if self.deferred[bi] == 0 {
                self.check_index(bi, row);
                if self.open_hits[bi] == 0 {
                    None
                } else {
                    self.queues[bi].iter().position(|r| r.row == row)
                }
            } else {
                self.queues[bi]
                    .iter()
                    .position(|r| r.row == row && now >= r.blocked_until)
            };
            if pos.is_none() && !self.wqueues[bi].is_empty() {
                pos = self.wqueues[bi]
                    .iter()
                    .position(|r| r.row == row && now >= r.blocked_until);
                from_writes = pos.is_some();
            }
            if let Some(pos) = pos {
                let col_ready = now >= self.device.earliest_col(bank);
                let bus_ready = self.bus_free[sub] <= now;
                let transfer_done = now + self.t_data;
                let before_ref = transfer_done <= self.bank_ref(bi);
                if col_ready && bus_ready && before_ref {
                    let req = if from_writes {
                        self.wqueues[bi].remove(pos).expect("position valid")
                    } else {
                        let req = self.queues[bi].remove(pos).expect("position valid");
                        self.open_hits[bi] -= 1;
                        if req.blocked_until != Cycle::ZERO {
                            self.deferred[bi] -= 1;
                        }
                        req
                    };
                    if from_writes {
                        self.write_count -= 1;
                        if let WritePolicy::Buffered { low, .. } = self.cfg.write_policy {
                            if self.write_count <= low {
                                self.set_draining(false);
                            }
                        }
                    }
                    self.device.column_access(bank, req.is_write, now);
                    self.bus_free[sub] = now + self.timings.t_burst;
                    if self.miss_serviced[bi] {
                        self.stats.row_hits.inc();
                    } else {
                        self.miss_serviced[bi] = true;
                        self.stats.row_misses.inc();
                    }
                    self.complete(req, transfer_done);
                    return true;
                }
                return false;
            }
        }
        // No serviceable hit right now.
        match self.cfg.page_policy {
            // Closed-page: auto-precharge once tRAS allows.
            PagePolicy::ClosedWithinTras => {
                if now >= self.device.earliest_pre(bank) {
                    self.device.precharge(bank, now);
                    return true;
                }
            }
            // Open-page: precharge only when a conflicting request waits.
            PagePolicy::Open => {
                let waits = |r: &QueuedReq| r.row != row && now >= r.blocked_until;
                let read_conflict = if self.deferred[bi] == 0 {
                    self.check_index(bi, row);
                    self.queues[bi].len() as u32 > self.open_hits[bi]
                } else {
                    self.queues[bi].iter().any(waits)
                };
                let conflict_waiting = read_conflict
                    || (!self.wqueues[bi].is_empty() && self.wqueues[bi].iter().any(waits));
                if conflict_waiting && now >= self.device.earliest_pre(bank) {
                    self.device.precharge(bank, now);
                    return true;
                }
            }
        }
        false
    }

    fn service_closed(&mut self, bank: BankId, now: Cycle) -> bool {
        let bi = bank.0 as usize;
        let from_writes = self.drains_writes(bi);
        let pos = if from_writes {
            Some(0)
        } else if self.deferred[bi] == 0 {
            // No per-request holds: the head of the queue (if any) is
            // eligible, no scan needed.
            (!self.queues[bi].is_empty()).then_some(0)
        } else {
            self.queues[bi].iter().position(|r| now >= r.blocked_until)
        };
        let Some(pos) = pos else {
            return false;
        };
        if now < self.device.earliest_act(bank) {
            return false;
        }
        // Do not start a service whose data phase would collide with REF.
        if now + self.t_act_data > self.bank_ref(bi) {
            return false;
        }
        let row = if from_writes {
            self.wqueues[bi][pos].row
        } else {
            self.queues[bi][pos].row
        };
        match self.device.try_act(bank, row, now) {
            ActOutcome::Accepted => {
                self.miss_serviced[bi] = false;
                if self.rfm_th.is_some() {
                    self.raa[bi] += 1;
                }
                // A row just opened: (re)count the queued reads that hit it.
                self.open_hits[bi] = self.queues[bi].iter().filter(|r| r.row == row).count() as u32;
                true
            }
            ActOutcome::Alerted { retry_at } => {
                self.stats.alerts.inc();
                match self.cfg.retry {
                    RetryPolicy::WholeBank => {
                        // Fig 7: busy bit set, timestamp = now + t_M.
                        self.bank_hold_until[bi] = now + self.t_m;
                        self.stats.retries.inc();
                    }
                    RetryPolicy::PerRequest => {
                        if from_writes {
                            self.wqueues[bi][pos].blocked_until = retry_at;
                        } else {
                            if self.queues[bi][pos].blocked_until == Cycle::ZERO {
                                self.deferred[bi] += 1;
                            }
                            self.queues[bi][pos].blocked_until = retry_at;
                        }
                        self.stats.retries.inc();
                    }
                }
                // A hold was set either way: the bank's wake changed.
                true
            }
        }
    }

    fn complete(&mut self, req: QueuedReq, done_at: Cycle) {
        if !req.is_write {
            self.stats
                .record_read_latency((done_at - req.enqueued_at).raw());
        }
        self.stats.record_completion_for(req.core);
        self.stats.completed.inc();
        self.responses.push(MemResponse {
            id: req.id,
            core: req.core,
            is_write: req.is_write,
            done_at,
        });
    }
}

impl<M: MemoryMap> MemController<M> {
    /// Serializes the controller's mutable state (queues, RAA counters,
    /// retry holds, statistics, responses in flight) and the owned DRAM
    /// device. The mapping, controller configuration, and timings are
    /// configuration and are rebuilt at restore.
    pub fn snapshot_state(&self, w: &mut Writer) {
        w.put_usize(self.queues.len());
        for q in &self.queues {
            q.encode(w);
        }
        self.bank_hold_until.encode(w);
        self.raa.encode(w);
        self.bus_free.encode(w);
        self.miss_serviced.encode(w);
        w.put_usize(self.wqueues.len());
        for q in &self.wqueues {
            q.encode(w);
        }
        w.put_usize(self.write_count);
        w.put_bool(self.draining);
        self.responses.encode(w);
        self.stats.encode(w);
        w.put_usize(self.rr_start);
        w.put_u64(self.prev_ref_epoch);
        self.device.snapshot_state(w);
    }

    /// Restores the state saved by [`MemController::snapshot_state`] into a
    /// controller constructed with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the snapshot's structure does not match this
    /// controller's configuration or the input is malformed.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let nq = r.take_usize()?;
        if nq != self.queues.len() {
            return Err(SnapError::corrupt("queue count mismatch"));
        }
        for q in &mut self.queues {
            *q = std::collections::VecDeque::decode(r)?;
        }
        let (banks, subchannels) = (self.queues.len(), self.bus_free.len());
        self.bank_hold_until = Vec::decode(r)?;
        self.raa = Vec::decode(r)?;
        self.bus_free = Vec::decode(r)?;
        self.miss_serviced = Vec::decode(r)?;
        // The tick indexes these columns by bank and sub-channel unchecked.
        let per_bank = [
            self.bank_hold_until.len(),
            self.raa.len(),
            self.miss_serviced.len(),
        ];
        if per_bank != [banks; 3] || self.bus_free.len() != subchannels {
            return Err(SnapError::corrupt("bank or sub-channel count mismatch"));
        }
        let nw = r.take_usize()?;
        if nw != self.wqueues.len() {
            return Err(SnapError::corrupt("write-queue count mismatch"));
        }
        for q in &mut self.wqueues {
            *q = std::collections::VecDeque::decode(r)?;
        }
        self.write_count = r.take_usize()?;
        if self.write_count
            != self
                .wqueues
                .iter()
                .map(std::collections::VecDeque::len)
                .sum()
        {
            return Err(SnapError::corrupt("write count inconsistent with queues"));
        }
        self.draining = r.take_bool()?;
        self.responses = Vec::decode(r)?;
        self.stats = McStats::decode(r)?;
        self.rr_start = r.take_usize()?;
        if self.rr_start >= banks {
            return Err(SnapError::corrupt("round-robin start beyond the banks"));
        }
        self.prev_ref_epoch = r.take_u64()?;
        self.device.restore_state(r)?;
        // The wake cache and queue indexes are redundant state: they are
        // never serialized (the snapshot byte format predates them and must
        // not change) and are rebuilt here from the restored queues/device.
        self.rebuild_caches();
        Ok(())
    }

    /// Recomputes every cached/indexed aggregate from authoritative state.
    /// Called after [`MemController::restore_state`]; wakes themselves are
    /// marked dirty and recomputed lazily on the next query or tick.
    fn rebuild_caches(&mut self) {
        self.mark_all_dirty();
        self.active_mask.fill(0);
        self.due_floor = Cycle::MAX;
        for bi in 0..self.queues.len() {
            self.deferred[bi] = self.queues[bi]
                .iter()
                .filter(|r| r.blocked_until != Cycle::ZERO)
                .count() as u32;
            self.open_hits[bi] = match self.device.open_row(BankId(bi as u16)) {
                Some(row) => self.queues[bi].iter().filter(|r| r.row == row).count() as u32,
                None => 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autorfm_dram::DramConfig;
    use autorfm_mapping::ZenMap;
    use autorfm_sim_core::{Geometry, LineAddr};

    const STEP: Cycle = Cycle::new(4); // 1 ns

    fn mc(mitigation: DeviceMitigation) -> MemController<ZenMap> {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            mitigation,
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 11).unwrap();
        MemController::new(ZenMap::new(geometry).unwrap(), device, McConfig::default())
    }

    /// Enqueues with admission retry: ticks the controller until accepted.
    fn enqueue_blocking(m: &mut MemController<ZenMap>, req: MemRequest, now: &mut Cycle) {
        while !m.enqueue(req, *now) {
            *now += STEP;
            m.tick(*now);
        }
    }

    fn run_until_idle(mc: &mut MemController<ZenMap>, mut now: Cycle) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        let deadline = now + Cycle::from_us(200);
        while !mc.is_idle() {
            now += STEP;
            mc.tick(now);
            out.extend(mc.take_responses());
            assert!(now < deadline, "controller failed to drain");
        }
        (out, now)
    }

    #[test]
    fn single_read_completes() {
        let mut m = mc(DeviceMitigation::None);
        assert!(m.enqueue(
            MemRequest {
                id: 1,
                core: 0,
                line: LineAddr(123),
                is_write: false
            },
            Cycle::ZERO
        ));
        let (resps, _) = run_until_idle(&mut m, Cycle::ZERO);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, 1);
        assert!(!resps[0].is_write);
        assert_eq!(m.stats().completed.get(), 1);
        assert_eq!(m.stats().row_misses.get(), 1);
    }

    #[test]
    fn same_row_requests_hit_in_row_buffer() {
        let mut m = mc(DeviceMitigation::None);
        // Two lines of the same 4KB page map to the same row under Zen.
        let line_a = LineAddr(0);
        let loc = m.map().locate(line_a);
        // Find the sibling line in the same row.
        let mut sibling = None;
        for l in 1..64u64 {
            let c = m.map().locate(LineAddr(l));
            if c.bank == loc.bank && c.row == loc.row {
                sibling = Some(LineAddr(l));
                break;
            }
        }
        let line_b = sibling.expect("Zen puts 2 lines of a page in one row");
        m.enqueue(
            MemRequest {
                id: 1,
                core: 0,
                line: line_a,
                is_write: false,
            },
            Cycle::ZERO,
        );
        m.enqueue(
            MemRequest {
                id: 2,
                core: 0,
                line: line_b,
                is_write: false,
            },
            Cycle::ZERO,
        );
        let (resps, _) = run_until_idle(&mut m, Cycle::ZERO);
        assert_eq!(resps.len(), 2);
        assert_eq!(m.stats().row_hits.get(), 1);
        assert_eq!(m.stats().row_misses.get(), 1);
        assert!(m.stats().row_hit_rate() > 0.49);
    }

    #[test]
    fn different_rows_same_bank_serialize_with_two_acts() {
        let mut m = mc(DeviceMitigation::None);
        let loc_a = m.map().locate(LineAddr(0));
        // Construct a line in the same bank, different row via inverse mapping.
        let line_b = m.map().line_of(autorfm_mapping::Location {
            bank: loc_a.bank,
            row: RowAddr(loc_a.row.0 + 1),
            col: 0,
        });
        m.enqueue(
            MemRequest {
                id: 1,
                core: 0,
                line: LineAddr(0),
                is_write: false,
            },
            Cycle::ZERO,
        );
        m.enqueue(
            MemRequest {
                id: 2,
                core: 0,
                line: line_b,
                is_write: false,
            },
            Cycle::ZERO,
        );
        let (resps, _) = run_until_idle(&mut m, Cycle::ZERO);
        assert_eq!(resps.len(), 2);
        assert_eq!(m.stats().row_misses.get(), 2);
        assert_eq!(m.device().stats().acts.get(), 2);
        // Second request cannot complete before tRC of the first.
        let t = DramTimings::ddr5();
        assert!(resps[1].done_at >= resps[0].done_at + t.t_rc - t.t_ras);
    }

    #[test]
    fn queue_capacity_enforced() {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 1).unwrap();
        let mut m = MemController::new(
            ZenMap::new(geometry).unwrap(),
            device,
            McConfig {
                queue_capacity: 2,
                ..McConfig::default()
            },
        );
        // All to the same bank/row region.
        let base = LineAddr(0);
        assert!(m.enqueue(
            MemRequest {
                id: 1,
                core: 0,
                line: base,
                is_write: false
            },
            Cycle::ZERO
        ));
        let loc = m.map().locate(base);
        let l2 = m.map().line_of(autorfm_mapping::Location {
            bank: loc.bank,
            row: RowAddr(10),
            col: 0,
        });
        let l3 = m.map().line_of(autorfm_mapping::Location {
            bank: loc.bank,
            row: RowAddr(20),
            col: 0,
        });
        assert!(m.enqueue(
            MemRequest {
                id: 2,
                core: 0,
                line: l2,
                is_write: false
            },
            Cycle::ZERO
        ));
        assert!(!m.enqueue(
            MemRequest {
                id: 3,
                core: 0,
                line: l3,
                is_write: false
            },
            Cycle::ZERO
        ));
    }

    #[test]
    fn rfm_mode_issues_rfms_and_slows_bank() {
        let mut m = mc(DeviceMitigation::rfm(4));
        // 8 different-row requests to one bank -> 8 ACTs -> 2 RFMs.
        let loc0 = m.map().locate(LineAddr(0));
        for i in 0..8u32 {
            let line = m.map().line_of(autorfm_mapping::Location {
                bank: loc0.bank,
                row: RowAddr(i * 100),
                col: 0,
            });
            m.enqueue(
                MemRequest {
                    id: i as u64,
                    core: 0,
                    line,
                    is_write: false,
                },
                Cycle::ZERO,
            );
        }
        let (resps, _) = run_until_idle(&mut m, Cycle::ZERO);
        assert_eq!(resps.len(), 8);
        assert!(m.stats().rfms_issued.get() >= 1, "RFM never issued");
        assert_eq!(m.device().stats().rfms.get(), m.stats().rfms_issued.get());
    }

    #[test]
    fn autorfm_alert_holds_bank_and_retry_succeeds() {
        let mut m = mc(DeviceMitigation::auto_rfm(4));
        // Drive many same-subarray rows through one bank. With the whole
        // window in one subarray, the SAUM is that subarray and the next ACT
        // conflicts, producing alerts that must all resolve.
        let loc0 = m.map().locate(LineAddr(0));
        let mut now = Cycle::ZERO;
        let mut served = Vec::new();
        for i in 0..32u32 {
            let line = m.map().line_of(autorfm_mapping::Location {
                bank: loc0.bank,
                row: RowAddr(i * 7 % 512), // all in subarray 0
                col: (i % 64),
            });
            let req = MemRequest {
                id: i as u64,
                core: 0,
                line,
                is_write: false,
            };
            enqueue_blocking(&mut m, req, &mut now);
            served.extend(m.take_responses());
        }
        let (resps, _) = run_until_idle(&mut m, now);
        served.extend(resps);
        assert_eq!(served.len(), 32, "every request must eventually complete");
        assert!(m.device().stats().mitigations.get() >= 4);
        assert!(m.stats().alerts.get() >= 1, "expected SAUM conflicts");
    }

    #[test]
    fn prac_mode_services_abo() {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            mitigation: DeviceMitigation::Prac {
                abo_threshold: 4,
                policy: autorfm_mitigation::MitigationKind::Fractal,
            },
            timings: DramTimings::ddr5_prac(),
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 3).unwrap();
        let mut m = MemController::new(ZenMap::new(geometry).unwrap(), device, McConfig::default());
        // Hammer one row: 8 activations of the same row (interleave a second
        // row so each access needs a fresh ACT).
        let loc0 = m.map().locate(LineAddr(0));
        let lines: Vec<LineAddr> = (0..8u64)
            .map(|i| {
                let row = if i % 2 == 0 { 100 } else { 300 };
                m.map().line_of(autorfm_mapping::Location {
                    bank: loc0.bank,
                    row: RowAddr(row),
                    col: (i % 64) as u32,
                })
            })
            .collect();
        let mut now = Cycle::ZERO;
        for (i, &line) in lines.iter().enumerate() {
            let i = i as u64;
            m.enqueue(
                MemRequest {
                    id: i,
                    core: 0,
                    line,
                    is_write: false,
                },
                now,
            );
            let (r, t) = run_until_idle(&mut m, now);
            assert_eq!(r.len(), 1);
            now = t;
        }
        assert!(m.stats().abo_serviced.get() >= 1, "ABO never serviced");
    }

    #[test]
    fn writes_complete_and_count() {
        let mut m = mc(DeviceMitigation::None);
        m.enqueue(
            MemRequest {
                id: 1,
                core: 2,
                line: LineAddr(77),
                is_write: true,
            },
            Cycle::ZERO,
        );
        let (resps, _) = run_until_idle(&mut m, Cycle::ZERO);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].is_write);
        assert_eq!(m.device().stats().writes.get(), 1);
        assert_eq!(m.stats().read_latency.count(), 0);
    }

    #[test]
    fn per_request_retry_allows_other_subarrays() {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            mitigation: DeviceMitigation::auto_rfm(4),
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 11).unwrap();
        let mut m = MemController::new(
            ZenMap::new(geometry).unwrap(),
            device,
            McConfig {
                retry: RetryPolicy::PerRequest,
                ..McConfig::default()
            },
        );
        let loc0 = m.map().locate(LineAddr(0));
        let mut now = Cycle::ZERO;
        let mut served = Vec::new();
        for i in 0..32u32 {
            let line = m.map().line_of(autorfm_mapping::Location {
                bank: loc0.bank,
                row: RowAddr(i * 7 % 512),
                col: (i % 64),
            });
            let req = MemRequest {
                id: i as u64,
                core: 0,
                line,
                is_write: false,
            };
            enqueue_blocking(&mut m, req, &mut now);
            served.extend(m.take_responses());
        }
        let (resps, _) = run_until_idle(&mut m, now);
        served.extend(resps);
        assert_eq!(served.len(), 32);
    }

    #[test]
    fn buffered_writes_drain_and_complete() {
        let geometry = Geometry::small();
        let device = DramDevice::new(
            DramConfig {
                geometry,
                ..DramConfig::default()
            },
            21,
        )
        .unwrap();
        let mut m = MemController::new(
            ZenMap::new(geometry).unwrap(),
            device,
            McConfig {
                write_policy: WritePolicy::Buffered {
                    capacity: 32,
                    high: 8,
                    low: 2,
                },
                ..McConfig::default()
            },
        );
        let mut now = Cycle::ZERO;
        // 12 writes + 4 reads, all to distinct rows.
        let mut expected = Vec::new();
        for i in 0..16u64 {
            let req = MemRequest {
                id: i,
                core: 0,
                line: LineAddr(i * 64 * 64), // distinct rows
                is_write: i < 12,
            };
            enqueue_blocking(&mut m, req, &mut now);
            expected.push(i);
        }
        assert!(m.pending_requests() > 0);
        let (resps, _) = run_until_idle(&mut m, now);
        let mut ids: Vec<u64> = resps.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, expected, "all buffered writes and reads must complete");
        assert_eq!(m.device().stats().writes.get(), 12);
        assert_eq!(m.device().stats().reads.get(), 4);
    }

    #[test]
    fn buffered_write_admission_blocks_at_capacity() {
        let geometry = Geometry::small();
        let device = DramDevice::new(
            DramConfig {
                geometry,
                ..DramConfig::default()
            },
            22,
        )
        .unwrap();
        let mut m = MemController::new(
            ZenMap::new(geometry).unwrap(),
            device,
            McConfig {
                write_policy: WritePolicy::Buffered {
                    capacity: 2,
                    high: 2,
                    low: 0,
                },
                ..McConfig::default()
            },
        );
        let mk = |id: u64| MemRequest {
            id,
            core: 0,
            line: LineAddr(id * 4096),
            is_write: true,
        };
        assert!(m.enqueue(mk(0), Cycle::ZERO));
        assert!(m.enqueue(mk(1), Cycle::ZERO));
        assert!(!m.enqueue(mk(2), Cycle::ZERO), "capacity must block");
    }

    /// Buffered writes are part of each bank's cached candidates, so once
    /// the only write is serviced and its row closed, the event tick elides
    /// the quiet steps before the next REF as it does for inline writes.
    #[test]
    fn buffered_controller_skips_quiet_ticks() {
        let geometry = Geometry::small();
        let device = DramDevice::new(
            DramConfig {
                geometry,
                ..DramConfig::default()
            },
            23,
        )
        .unwrap();
        let mut m = MemController::new(
            ZenMap::new(geometry).unwrap(),
            device,
            McConfig {
                write_policy: WritePolicy::Buffered {
                    capacity: 8,
                    high: 6,
                    low: 2,
                },
                ..McConfig::default()
            },
        );
        let line = LineAddr(77);
        let bank = m.map().locate(line).bank;
        let mut now = Cycle::ZERO;
        assert!(m.enqueue(
            MemRequest {
                id: 1,
                core: 0,
                line,
                is_write: true,
            },
            now
        ));
        let mut responses = Vec::new();
        while responses.is_empty() || m.device().open_row(bank).is_some() {
            now += STEP;
            if !m.tick_or_skip(now) {
                m.tick_event(now);
            }
            responses.extend(m.take_responses());
            assert!(now < Cycle::from_ns(500), "the write never completed");
        }
        assert!(responses[0].is_write && m.is_idle());
        let wake = m.next_event_at(now);
        assert_eq!(wake, m.fresh_next_event_at(now));
        assert_eq!(Some(wake), m.device().next_event_at(now), "a bank is due");
        assert!(wake > now + STEP, "the next REF is due next step");
        assert!(m.tick_or_skip(now + STEP), "a quiet tick was not elided");
    }

    /// Two banks on one sub-channel each get a row-buffer hit at the same
    /// step. The first takes the data bus; the second is then due by its
    /// own timing but held only by the bus, which must not force a tick on
    /// the steps until the burst ends. Eliding them leaves the controller
    /// bitwise identical to a twin ticked step by step.
    #[test]
    fn a_bank_waiting_only_on_the_bus_does_not_force_a_tick() {
        let open_page = || {
            let geometry = Geometry::small();
            let device = DramDevice::new(
                DramConfig {
                    geometry,
                    ..DramConfig::default()
                },
                5,
            )
            .unwrap();
            let cfg = McConfig {
                page_policy: PagePolicy::Open,
                ..McConfig::default()
            };
            MemController::new(ZenMap::new(geometry).unwrap(), device, cfg)
        };
        let (mut m, mut twin) = (open_page(), open_page());
        assert_eq!(m.subch_of(BankId(0)), m.subch_of(BankId(1)));
        let read = |m: &MemController<ZenMap>, id: u64, bank: u16| MemRequest {
            id,
            core: 0,
            line: m.map().line_of(autorfm_mapping::Location {
                bank: BankId(bank),
                row: RowAddr(5),
                col: id as u32,
            }),
            is_write: false,
        };
        // One step of each controller: `true` when `m` elided it.
        let step = |m: &mut MemController<ZenMap>, twin: &mut MemController<ZenMap>, now| {
            twin.tick(now);
            let elided = m.tick_or_skip(now);
            if !elided {
                m.tick_event(now);
            }
            assert_eq!(m.take_responses(), twin.take_responses());
            elided
        };
        let mut now = Cycle::ZERO;
        // Open row 5 in banks 0 and 1; the open-page policy keeps it open.
        for (id, bank) in [(0, 0), (1, 1)] {
            assert!(m.enqueue(read(&m, id, bank), now) && twin.enqueue(read(&twin, id, bank), now));
        }
        for _ in 0..200 {
            now += STEP;
            step(&mut m, &mut twin, now);
        }
        assert!(m.is_idle() && m.device().open_row(BankId(0)).is_some());
        assert!(m.device().open_row(BankId(1)).is_some());
        // A hit to each open row, queued at the same step.
        for (id, bank) in [(2, 0), (3, 1)] {
            assert!(m.enqueue(read(&m, id, bank), now) && twin.enqueue(read(&twin, id, bank), now));
        }
        now += STEP;
        assert!(!step(&mut m, &mut twin, now));
        assert_eq!(m.stats().row_hits.get(), 1, "one hit takes the bus");
        let waiting = if m.queues[0].is_empty() { 1 } else { 0 };
        now += STEP;
        assert!(
            m.wake_hit_local[waiting] <= now,
            "the waiting bank is due locally"
        );
        assert!(m.bus_free[0] > now, "the burst still holds the bus");
        assert!(
            step(&mut m, &mut twin, now),
            "a step with only a bus wait was ticked"
        );
        while !m.is_idle() {
            now += STEP;
            step(&mut m, &mut twin, now);
        }
        assert_eq!(m.stats().row_hits.get(), 2);
        let bytes = |m: &MemController<ZenMap>| {
            let mut w = Writer::new();
            m.snapshot_state(&mut w);
            w.bytes().to_vec()
        };
        assert_eq!(bytes(&m), bytes(&twin));
    }

    /// A controller from the wake-cache sweep (`tests/wake_cache.rs`): the
    /// five `bits` pick open page, per-request retry, per-bank REF, PRAC
    /// (else AutoRFM) and buffered writes.
    fn swept(bits: u8, seed: u64) -> MemController<ZenMap> {
        let bit = |i: u32| (bits >> i) & 1 != 0;
        let geometry = Geometry::small();
        let dram = DramConfig {
            geometry,
            mitigation: if bit(3) {
                DeviceMitigation::Prac {
                    abo_threshold: 4,
                    policy: autorfm_mitigation::MitigationKind::Fractal,
                }
            } else {
                DeviceMitigation::auto_rfm(4)
            },
            timings: if bit(3) {
                DramTimings::ddr5_prac()
            } else {
                DramTimings::ddr5()
            },
            refresh: if bit(2) {
                autorfm_dram::RefreshPolicy::PerBank
            } else {
                autorfm_dram::RefreshPolicy::AllBank
            },
            ..DramConfig::default()
        };
        let cfg = McConfig {
            page_policy: if bit(0) {
                PagePolicy::Open
            } else {
                PagePolicy::ClosedWithinTras
            },
            retry: if bit(1) {
                RetryPolicy::PerRequest
            } else {
                RetryPolicy::WholeBank
            },
            write_policy: if bit(4) {
                WritePolicy::Buffered {
                    capacity: 8,
                    high: 6,
                    low: 2,
                }
            } else {
                WritePolicy::Inline
            },
            queue_capacity: 8,
            ..McConfig::default()
        };
        let device = DramDevice::new(dram, seed).unwrap();
        MemController::new(ZenMap::new(geometry).unwrap(), device, cfg)
    }

    /// The invariant behind the due filter and the wake query's pass-over:
    /// every clean bank's cached `wake_at` is at most its fresh wake, and a
    /// clean bank outside `active_mask` (which both walks skip) holds
    /// `Cycle::MAX`.
    fn check_wake_bounds(m: &MemController<ZenMap>) -> Result<(), String> {
        for bi in 0..m.queues.len() {
            let bit = |mask: &[u64]| (mask[bi >> 6] >> (bi & 63)) & 1 != 0;
            if bit(&m.dirty_mask) {
                continue;
            }
            let fresh = m.fresh_bank_next_event(BankId(bi as u16));
            let cached = m.wake_at[bi];
            if cached > fresh.unwrap_or(Cycle::MAX) {
                return Err(format!("bank {bi}: wake_at {cached:?} > fresh {fresh:?}"));
            }
            if !bit(&m.active_mask) && cached != Cycle::MAX {
                return Err(format!("inactive bank {bi}: wake_at {cached:?}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Drives the sweep's configurations with enqueues, event-kernel
        /// steps (`tick_or_skip`, then `tick_event`), stepped ticks, long
        /// jumps, wake queries and drains, and checks the cached wakes after
        /// every one of them; each query must equal the full scan.
        #[test]
        fn cached_wake_at_is_a_lower_bound_after_every_op(
            bits in 0u8..32,
            seed in 0u64..1000,
            op_seed in proptest::prelude::any::<u64>(),
        ) {
            let mut m = swept(bits, seed);
            let lines = m.device().config().geometry.total_lines();
            let mut rng = autorfm_sim_core::DetRng::seeded(op_seed);
            let mut now = Cycle::from_ns(50);
            for id in 0..150u64 {
                match rng.gen_range(12) {
                    0..=3 => {
                        let req = MemRequest {
                            id,
                            core: 0,
                            line: LineAddr(rng.next_u64() % lines),
                            is_write: rng.gen_bool(0.3),
                        };
                        let _ = m.enqueue(req, now);
                    }
                    4..=7 => {
                        for _ in 0..=rng.gen_range(8) {
                            now += STEP;
                            if !m.tick_or_skip(now) {
                                m.tick_event(now);
                            }
                        }
                    }
                    8 => {
                        now += STEP;
                        m.tick(now);
                    }
                    9 => {
                        now += Cycle::from_ns(100 + rng.gen_range(7900));
                        m.tick_event(now);
                    }
                    10 => {
                        // After event ticks (the wake_cache.rs sweep queries
                        // after stepped ones), the query is still exact.
                        let fresh = m.fresh_next_event_at(now);
                        proptest::prop_assert_eq!(m.next_event_at(now), fresh);
                    }
                    _ => {
                        let _ = m.take_responses();
                    }
                }
                let checked = check_wake_bounds(&m);
                proptest::prop_assert!(
                    checked.is_ok(),
                    "{} after op {} [bits={}, seed={}, op_seed={}]",
                    checked.unwrap_err(), id, bits, seed, op_seed
                );
            }
        }
    }

    /// Snapshots `forge(controller)` and restores it into a fresh one.
    fn restore_forged(forge: impl FnOnce(&mut MemController<ZenMap>)) -> Result<(), SnapError> {
        let mut m = mc(DeviceMitigation::None);
        forge(&mut m);
        let mut w = Writer::new();
        m.snapshot_state(&mut w);
        mc(DeviceMitigation::None).restore_state(&mut Reader::new(w.bytes()))
    }

    #[test]
    fn restore_rejects_a_round_robin_start_beyond_the_banks() {
        assert!(restore_forged(|_| {}).is_ok());
        assert!(restore_forged(|m| m.rr_start = 10_000).is_err());
    }

    #[test]
    fn restore_rejects_per_bank_columns_of_another_length() {
        assert!(restore_forged(|m| {
            m.bank_hold_until.pop();
        })
        .is_err());
        assert!(restore_forged(|m| m.bus_free.push(Cycle::ZERO)).is_err());
    }

    #[test]
    fn geometry_mismatch_panics() {
        let device = DramDevice::new(
            DramConfig {
                geometry: Geometry::small(),
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let map = ZenMap::new(Geometry::paper_baseline()).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MemController::new(map, device, McConfig::default())
        }));
        assert!(result.is_err());
    }
}

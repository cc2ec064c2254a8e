//! The uncore: LLC + MSHRs + the bridge to the memory controller.

use crate::llc::{AccessResult, Llc, LlcParams};
use autorfm_mapping::MemoryMap;
use autorfm_memctrl::{MemController, MemRequest, MemResponse};
use autorfm_sim_core::{ConfigError, Counter, Cycle, LineAddr};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use autorfm_telemetry::{Labels, Registry};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// A completion handle for an outstanding load: holds [`Cycle::MAX`] while the
/// miss is in flight and the data-arrival cycle once filled.
pub type Completion = Rc<Cell<Cycle>>;

/// Uncore configuration.
#[derive(Debug, Clone, Copy)]
pub struct UncoreParams {
    /// LLC geometry.
    pub llc: LlcParams,
    /// LLC hit latency in cycles (load-to-use through the shared cache).
    pub llc_latency: Cycle,
    /// Maximum outstanding misses (MSHR entries).
    pub mshr_entries: usize,
    /// Next-line prefetch on load misses (extension; the paper's baseline has
    /// no prefetcher, so this defaults to off).
    pub next_line_prefetch: bool,
}

impl Default for UncoreParams {
    fn default() -> Self {
        UncoreParams {
            llc: LlcParams::default(),
            llc_latency: Cycle::from_ns(10),
            mshr_entries: 64,
            next_line_prefetch: false,
        }
    }
}

/// Uncore statistics.
#[derive(Debug, Clone, Default)]
pub struct UncoreStats {
    /// Loads that hit in the LLC.
    pub llc_load_hits: Counter,
    /// Loads that missed (went to memory).
    pub llc_load_misses: Counter,
    /// Loads merged into an existing MSHR.
    pub mshr_merges: Counter,
    /// Load dispatches rejected because the MSHRs were full.
    pub mshr_stalls: Counter,
    /// Dirty lines written back to memory.
    pub writebacks: Counter,
    /// Next-line prefetches issued to memory.
    pub prefetches: Counter,
}

impl UncoreStats {
    /// Exports every uncore counter into `reg` under `llc_*` names with the
    /// given labels.
    pub fn export(&self, reg: &mut Registry, labels: Labels<'_>) {
        reg.record_counter("llc_load_hits", labels, &self.llc_load_hits);
        reg.record_counter("llc_load_misses", labels, &self.llc_load_misses);
        reg.record_counter("llc_mshr_merges", labels, &self.mshr_merges);
        reg.record_counter("llc_mshr_stalls", labels, &self.mshr_stalls);
        reg.record_counter("llc_writebacks", labels, &self.writebacks);
        reg.record_counter("llc_prefetches", labels, &self.prefetches);
        let accesses = self.llc_load_hits.get() + self.llc_load_misses.get();
        let hit_rate = if accesses == 0 {
            0.0
        } else {
            self.llc_load_hits.get() as f64 / accesses as f64
        };
        reg.gauge("llc_hit_rate", labels, hit_rate);
    }
}

impl Snapshot for UncoreStats {
    fn encode(&self, w: &mut Writer) {
        self.llc_load_hits.encode(w);
        self.llc_load_misses.encode(w);
        self.mshr_merges.encode(w);
        self.mshr_stalls.encode(w);
        self.writebacks.encode(w);
        self.prefetches.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(UncoreStats {
            llc_load_hits: Counter::decode(r)?,
            llc_load_misses: Counter::decode(r)?,
            mshr_merges: Counter::decode(r)?,
            mshr_stalls: Counter::decode(r)?,
            writebacks: Counter::decode(r)?,
            prefetches: Counter::decode(r)?,
        })
    }
}

/// Maps pending [`Completion`] handles (by `Rc` pointer identity) to their
/// MSHR slot, produced by [`Uncore::snapshot_state`]. Cores use it to encode
/// in-flight ROB entries as `(line, waiter index)` references.
pub struct CompletionIndex {
    map: HashMap<usize, (u64, u32)>,
}

impl CompletionIndex {
    /// The MSHR slot of `c`, if `c` is a pending miss the uncore knows about.
    pub fn lookup(&self, c: &Completion) -> Option<(u64, u32)> {
        self.map.get(&(Rc::as_ptr(c) as usize)).copied()
    }
}

/// Fresh pending [`Completion`] handles recreated by
/// [`Uncore::decode_state`], keyed by MSHR slot. Cores use it to re-link
/// restored ROB entries to the same handles the MSHRs will resolve.
pub struct CompletionTable {
    map: HashMap<(u64, u32), Completion>,
}

impl CompletionTable {
    /// The handle for waiter `idx` of the miss on `line`, if present.
    pub fn get(&self, line: u64, idx: u32) -> Option<Completion> {
        self.map.get(&(line, idx)).map(Rc::clone)
    }
}

struct MshrEntry {
    waiters: Vec<Completion>,
    /// A store is waiting on this fill: mark the line dirty on arrival.
    dirty_on_fill: bool,
}

/// Outcome of a load access.
#[derive(Debug)]
pub enum LoadOutcome {
    /// Serviced by the LLC; data available at the contained cycle.
    Hit(Cycle),
    /// In flight to memory; the handle resolves when the fill arrives.
    Pending(Completion),
    /// MSHRs full; retry next cycle.
    Stall,
}

/// The shared uncore.
pub struct Uncore {
    llc: Llc,
    params: UncoreParams,
    mshrs: HashMap<u64, MshrEntry>,
    outbox: VecDeque<MemRequest>,
    stats: UncoreStats,
}

impl core::fmt::Debug for Uncore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Uncore")
            .field("outstanding_misses", &self.mshrs.len())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

impl Uncore {
    /// Creates the uncore with an empty LLC.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the LLC parameters are invalid or
    /// `mshr_entries == 0`.
    pub fn new(params: UncoreParams) -> Result<Self, ConfigError> {
        Self::with_llc(params, Llc::new(params.llc)?)
    }

    /// Creates a quiescent uncore around `llc`, of the shape `params.llc`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `mshr_entries == 0`.
    pub fn with_llc(params: UncoreParams, llc: Llc) -> Result<Self, ConfigError> {
        if params.mshr_entries == 0 {
            return Err(ConfigError::new("need at least one MSHR"));
        }
        Ok(Uncore {
            llc,
            params,
            mshrs: HashMap::new(),
            outbox: VecDeque::new(),
            stats: UncoreStats::default(),
        })
    }

    /// Uncore statistics.
    pub fn stats(&self) -> &UncoreStats {
        &self.stats
    }

    /// Gives up the uncore, keeping only its (warmed) LLC.
    pub fn into_llc(self) -> Llc {
        self.llc
    }

    /// The shared LLC (for hit/miss statistics).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Whether all misses have drained and nothing waits for memory.
    pub fn is_idle(&self) -> bool {
        self.mshrs.is_empty() && self.outbox.is_empty()
    }

    /// Number of misses currently in flight.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Clocking contract: the uncore schedules no timers of its own, so the
    /// only self-driven work is draining the outbox. A non-empty outbox makes
    /// the uncore *hot* (`Some(now)`): response processing pushes victim
    /// writebacks *after* the same step's drain loop ran, so the very next
    /// executed step admits them into the controller (and may trigger
    /// commands). With an empty outbox this returns `None` — [`Uncore::tick`]
    /// then only reacts to controller responses, which are produced and
    /// drained within the same executed step and are therefore covered by the
    /// memory controller's wake.
    ///
    /// This is deliberately conservative: when the outbox front is actually
    /// blocked on a full controller queue, the kernel single-steps until it
    /// drains. Such steps execute as no-ops, which is always safe.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        (!self.outbox.is_empty()).then_some(now)
    }

    /// Warm-up access: touches the LLC without simulating memory timing.
    /// Misses are filled instantly (no MSHR, no DRAM traffic); dirty evictions
    /// are discarded. Used to fast-forward past the cold-cache region so the
    /// measured phase sees steady-state hit rates and writeback traffic.
    pub fn warm(&mut self, line: LineAddr, is_write: bool) {
        if self.llc.access(line, is_write) == AccessResult::Miss {
            let _ = self.llc.fill(line, is_write);
        }
    }

    /// A core performs a load of `line` at cycle `now`.
    pub fn load(&mut self, core: u8, line: LineAddr, now: Cycle) -> LoadOutcome {
        match self.llc.access(line, false) {
            AccessResult::Hit => {
                self.stats.llc_load_hits.inc();
                LoadOutcome::Hit(now + self.params.llc_latency)
            }
            AccessResult::Miss => {
                if let Some(entry) = self.mshrs.get_mut(&line.0) {
                    // Merge into the in-flight miss.
                    let c: Completion = Rc::new(Cell::new(Cycle::MAX));
                    entry.waiters.push(Rc::clone(&c));
                    self.stats.mshr_merges.inc();
                    self.stats.llc_load_misses.inc();
                    return LoadOutcome::Pending(c);
                }
                if self.mshrs.len() >= self.params.mshr_entries {
                    self.stats.mshr_stalls.inc();
                    return LoadOutcome::Stall;
                }
                self.stats.llc_load_misses.inc();
                let c: Completion = Rc::new(Cell::new(Cycle::MAX));
                self.mshrs.insert(
                    line.0,
                    MshrEntry {
                        waiters: vec![Rc::clone(&c)],
                        dirty_on_fill: false,
                    },
                );
                self.outbox.push_back(MemRequest {
                    id: line.0,
                    core,
                    line,
                    is_write: false,
                });
                if self.params.next_line_prefetch {
                    self.prefetch(core, LineAddr(line.0 + 1));
                }
                LoadOutcome::Pending(c)
            }
        }
    }

    /// Issues a waiter-less fill for `line` if it is absent and capacity
    /// allows — the next-line prefetcher's path. Never stalls the requester.
    fn prefetch(&mut self, core: u8, line: LineAddr) {
        if self.mshrs.len() >= self.params.mshr_entries
            || self.mshrs.contains_key(&line.0)
            || self.llc.access(line, false) == AccessResult::Hit
        {
            return;
        }
        self.mshrs.insert(
            line.0,
            MshrEntry {
                waiters: Vec::new(),
                dirty_on_fill: false,
            },
        );
        self.outbox.push_back(MemRequest {
            id: line.0,
            core,
            line,
            is_write: false,
        });
        self.stats.prefetches.inc();
    }

    /// A core performs a store of `line` at cycle `now` (fire-and-forget;
    /// write-allocate: a miss fetches the line like a load but nothing waits).
    pub fn store(&mut self, core: u8, line: LineAddr, now: Cycle) {
        match self.llc.access(line, true) {
            AccessResult::Hit => {}
            AccessResult::Miss => {
                if let Some(entry) = self.mshrs.get_mut(&line.0) {
                    entry.dirty_on_fill = true; // fill in flight; dirty on arrival
                    return;
                }
                if self.mshrs.len() >= self.params.mshr_entries {
                    // Degrade to a direct write (no allocate) under pressure.
                    self.stats.writebacks.inc();
                    self.outbox.push_back(MemRequest {
                        id: line.0,
                        core,
                        line,
                        is_write: true,
                    });
                    return;
                }
                self.mshrs.insert(
                    line.0,
                    MshrEntry {
                        waiters: Vec::new(),
                        dirty_on_fill: true,
                    },
                );
                self.outbox.push_back(MemRequest {
                    id: line.0,
                    core,
                    line,
                    is_write: false,
                });
                return;
            }
        }
        // Hit: mark the stored line dirty.
        self.llc.mark_dirty(line);
        let _ = now;
    }

    /// Flushes `line` from the LLC (CLFLUSH); a dirty line is written back to
    /// memory. A fill in flight is left to complete (the flush is not queued).
    pub fn flush(&mut self, core: u8, line: LineAddr) {
        if let Some(victim) = self.llc.invalidate(line) {
            self.stats.writebacks.inc();
            self.outbox.push_back(MemRequest {
                id: victim.0,
                core,
                line: victim,
                is_write: true,
            });
        }
    }

    /// Drains the outbox into the memory controller (admission permitting) and
    /// applies responses: fills the LLC, wakes waiters, emits writebacks.
    pub fn tick<M: MemoryMap>(&mut self, mc: &mut MemController<M>, now: Cycle) {
        // In-step wake bypass (the per-bank analogue of the controller's
        // `tick_or_skip`): with nothing to drain and no responses waiting,
        // the body below is provably a no-op — the drain loop would not
        // enter and `take_responses` would swap an empty vector — so skip
        // the hash-map and allocator traffic entirely.
        if self.outbox.is_empty() && !mc.has_responses() {
            return;
        }
        while let Some(&req) = self.outbox.front() {
            if mc.enqueue(req, now) {
                self.outbox.pop_front();
            } else {
                break;
            }
        }
        for resp in mc.take_responses() {
            self.on_response(resp);
        }
    }

    fn on_response(&mut self, resp: MemResponse) {
        if resp.is_write {
            return; // writeback acknowledged, nothing waits
        }
        let line = LineAddr(resp.id);
        if let Some(entry) = self.mshrs.remove(&line.0) {
            for w in entry.waiters {
                w.set(resp.done_at);
            }
            let victim = self.llc.fill(line, entry.dirty_on_fill);
            if let Some(victim) = victim {
                self.stats.writebacks.inc();
                self.outbox.push_back(MemRequest {
                    id: victim.0,
                    core: resp.core,
                    line: victim,
                    is_write: true,
                });
            }
        }
    }
}

impl Uncore {
    /// Serializes the uncore's mutable state (LLC contents, MSHRs, outbox,
    /// statistics). Returns a [`CompletionIndex`] mapping every pending
    /// completion handle to its MSHR slot, which cores need to encode their
    /// in-flight ROB entries.
    pub fn snapshot_state(&self, w: &mut Writer) -> CompletionIndex {
        self.llc.encode(w);
        let mut lines: Vec<u64> = self.mshrs.keys().copied().collect();
        lines.sort_unstable();
        w.put_usize(lines.len());
        let mut map = HashMap::new();
        for line in lines {
            let entry = &self.mshrs[&line];
            w.put_u64(line);
            w.put_bool(entry.dirty_on_fill);
            w.put_u32(entry.waiters.len() as u32);
            for (i, c) in entry.waiters.iter().enumerate() {
                map.insert(Rc::as_ptr(c) as usize, (line, i as u32));
            }
        }
        self.outbox.encode(w);
        self.stats.encode(w);
        CompletionIndex { map }
    }

    /// Rebuilds the uncore saved by [`Uncore::snapshot_state`] under
    /// `params`. Pending misses get fresh completion handles; the returned
    /// [`CompletionTable`] lets cores re-link their ROB entries to them.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if `params` are invalid, or the snapshot is
    /// inconsistent with them or malformed.
    pub fn decode_state(
        params: UncoreParams,
        r: &mut Reader<'_>,
    ) -> Result<(Self, CompletionTable), SnapError> {
        let mut uncore = Self::with_llc(params, Llc::decode(r)?)
            .map_err(|e| SnapError::corrupt(format!("invalid configuration: {e}")))?;
        let n = r.take_usize()?;
        if n > params.mshr_entries {
            return Err(SnapError::corrupt("MSHR count exceeds capacity"));
        }
        let mut map = HashMap::new();
        for _ in 0..n {
            let line = r.take_u64()?;
            let dirty_on_fill = r.take_bool()?;
            let nw = r.take_u32()? as usize;
            if nw > r.remaining() {
                return Err(SnapError::corrupt("MSHR waiter count exceeds input"));
            }
            let mut waiters = Vec::with_capacity(nw);
            for i in 0..nw {
                let c: Completion = Rc::new(Cell::new(Cycle::MAX));
                map.insert((line, i as u32), Rc::clone(&c));
                waiters.push(c);
            }
            if uncore
                .mshrs
                .insert(
                    line,
                    MshrEntry {
                        waiters,
                        dirty_on_fill,
                    },
                )
                .is_some()
            {
                return Err(SnapError::corrupt("duplicate MSHR line"));
            }
        }
        uncore.outbox = VecDeque::decode(r)?;
        uncore.stats = UncoreStats::decode(r)?;
        Ok((uncore, CompletionTable { map }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autorfm_dram::{DramConfig, DramDevice};
    use autorfm_mapping::ZenMap;
    use autorfm_sim_core::Geometry;

    fn mc() -> MemController<ZenMap> {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 5).unwrap();
        MemController::new(ZenMap::new(geometry).unwrap(), device, Default::default())
    }

    fn run(u: &mut Uncore, m: &mut MemController<ZenMap>, mut now: Cycle) -> Cycle {
        let deadline = now + Cycle::from_us(100);
        while !(u.is_idle() && m.is_idle()) {
            now += Cycle::new(4);
            m.tick(now);
            u.tick(m, now);
            assert!(now < deadline, "uncore failed to drain");
        }
        now
    }

    #[test]
    fn load_miss_resolves_through_memory() {
        let mut u = Uncore::new(UncoreParams::default()).unwrap();
        let mut m = mc();
        let out = u.load(0, LineAddr(42), Cycle::ZERO);
        let LoadOutcome::Pending(c) = out else {
            panic!("expected miss")
        };
        assert_eq!(c.get(), Cycle::MAX);
        run(&mut u, &mut m, Cycle::ZERO);
        assert!(c.get() < Cycle::MAX, "completion must resolve");
        // Second access hits.
        match u.load(0, LineAddr(42), Cycle::from_us(50)) {
            LoadOutcome::Hit(at) => assert_eq!(at, Cycle::from_us(50) + Cycle::from_ns(10)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_loads_merge_in_mshr() {
        let mut u = Uncore::new(UncoreParams::default()).unwrap();
        let mut m = mc();
        let a = u.load(0, LineAddr(7), Cycle::ZERO);
        let b = u.load(1, LineAddr(7), Cycle::ZERO);
        let (LoadOutcome::Pending(ca), LoadOutcome::Pending(cb)) = (a, b) else {
            panic!("expected two pending loads");
        };
        assert_eq!(u.stats().mshr_merges.get(), 1);
        run(&mut u, &mut m, Cycle::ZERO);
        assert_eq!(ca.get(), cb.get(), "merged loads complete together");
        // Only one memory request went out.
        assert_eq!(m.stats().completed.get(), 1);
    }

    #[test]
    fn mshr_full_stalls() {
        let params = UncoreParams {
            mshr_entries: 2,
            ..UncoreParams::default()
        };
        let mut u = Uncore::new(params).unwrap();
        assert!(matches!(
            u.load(0, LineAddr(1), Cycle::ZERO),
            LoadOutcome::Pending(_)
        ));
        assert!(matches!(
            u.load(0, LineAddr(2), Cycle::ZERO),
            LoadOutcome::Pending(_)
        ));
        assert!(matches!(
            u.load(0, LineAddr(3), Cycle::ZERO),
            LoadOutcome::Stall
        ));
        assert_eq!(u.stats().mshr_stalls.get(), 1);
    }

    #[test]
    fn store_allocates_and_dirty_eviction_writes_back() {
        // Tiny LLC to force evictions quickly.
        let params = UncoreParams {
            llc: LlcParams {
                capacity_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            ..UncoreParams::default()
        };
        let mut u = Uncore::new(params).unwrap();
        let mut m = mc();
        // Store to line 0 (allocates, marks dirty after fill).
        u.store(0, LineAddr(0), Cycle::ZERO);
        let now = run(&mut u, &mut m, Cycle::ZERO);
        // Fill the set (stride 4 = set count) to evict line 0.
        for i in 1..=2u64 {
            let LoadOutcome::Pending(_) = u.load(0, LineAddr(i * 4), now) else {
                panic!("expected miss");
            };
        }
        run(&mut u, &mut m, now);
        assert!(
            u.stats().writebacks.get() >= 1,
            "dirty line 0 must be written back"
        );
        assert!(m.device().stats().writes.get() >= 1);
    }

    #[test]
    fn next_line_prefetch_warms_the_cache() {
        let params = UncoreParams {
            next_line_prefetch: true,
            ..UncoreParams::default()
        };
        let mut u = Uncore::new(params).unwrap();
        let mut m = mc();
        // Miss on line 100 triggers a prefetch of 101.
        let LoadOutcome::Pending(_) = u.load(0, LineAddr(100), Cycle::ZERO) else {
            panic!("expected miss");
        };
        assert_eq!(u.stats().prefetches.get(), 1);
        let now = run(&mut u, &mut m, Cycle::ZERO);
        // The prefetched neighbor now hits without a memory trip.
        match u.load(0, LineAddr(101), now) {
            LoadOutcome::Hit(_) => {}
            other => panic!("prefetched line should hit: {other:?}"),
        }
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut u = Uncore::new(UncoreParams::default()).unwrap();
        let _ = u.load(0, LineAddr(100), Cycle::ZERO);
        assert_eq!(u.stats().prefetches.get(), 0);
    }

    #[test]
    fn store_hit_does_not_touch_memory() {
        let mut u = Uncore::new(UncoreParams::default()).unwrap();
        let mut m = mc();
        let LoadOutcome::Pending(_) = u.load(0, LineAddr(9), Cycle::ZERO) else {
            panic!("expected miss");
        };
        let now = run(&mut u, &mut m, Cycle::ZERO);
        let before = m.stats().enqueued.get();
        u.store(0, LineAddr(9), now);
        assert!(u.is_idle());
        assert_eq!(m.stats().enqueued.get(), before);
    }
}

//! The trace-driven out-of-order core approximation.
//!
//! Matching the paper's baseline (Table IV): 4 GHz, 4-wide, 256-entry ROB.
//! The simulation advances in 1 ns steps (4 CPU cycles), so a core can retire
//! and dispatch up to `4 × width` instructions per step.
//!
//! Model rules (the standard memsim/USIMM approximation):
//!
//! * non-memory instructions complete at dispatch;
//! * loads occupy a ROB slot until their data arrives; a load at the ROB head
//!   blocks retirement — memory-level parallelism comes from the 256-entry
//!   window;
//! * *dependent* loads ([`Op::Load`] with `dependent = true`) additionally
//!   block dispatch until they complete, modeling pointer-chasing codes;
//! * stores retire immediately (the write drains through the LLC/writeback
//!   path without blocking the core).
//!
//! The ROB is run-length: adjacent ops that complete at the same cycle share
//! one slot, and a stream that implements
//! [`InstructionStream::take_nonmem`] hands over a whole run of non-memory
//! ops at once, so a compute-bound step costs one slot, not `4 × width`.

use crate::uncore::{Completion, CompletionIndex, CompletionTable, LoadOutcome, Uncore};
use autorfm_sim_core::{Cycle, LineAddr};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use std::collections::VecDeque;

/// One instruction from the workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A non-memory instruction (ALU/branch/…).
    NonMem,
    /// A load of `line`. `dependent` loads serialize dispatch (pointer chase).
    Load {
        /// The accessed cache line.
        line: LineAddr,
        /// Whether dispatch must stall until this load completes.
        dependent: bool,
    },
    /// A store to `line` (fire-and-forget).
    Store {
        /// The accessed cache line.
        line: LineAddr,
    },
    /// A cache-line flush (CLFLUSH): evicts `line` from the LLC, writing it
    /// back if dirty. Rowhammer attack streams use this to force every load
    /// to reach DRAM (threat model, Section II-A).
    Flush {
        /// The flushed cache line.
        line: LineAddr,
    },
}

impl Snapshot for Op {
    fn encode(&self, w: &mut Writer) {
        match self {
            Op::NonMem => w.put_u8(0),
            Op::Load { line, dependent } => {
                w.put_u8(1);
                line.encode(w);
                w.put_bool(*dependent);
            }
            Op::Store { line } => {
                w.put_u8(2);
                line.encode(w);
            }
            Op::Flush { line } => {
                w.put_u8(3);
                line.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.take_u8()? {
            0 => Op::NonMem,
            1 => Op::Load {
                line: LineAddr::decode(r)?,
                dependent: r.take_bool()?,
            },
            2 => Op::Store {
                line: LineAddr::decode(r)?,
            },
            3 => Op::Flush {
                line: LineAddr::decode(r)?,
            },
            t => return Err(SnapError::corrupt(format!("bad Op tag {t}"))),
        })
    }
}

/// An infinite instruction source driving one core.
pub trait InstructionStream {
    /// Produces the next instruction.
    fn next_op(&mut self) -> Op;

    /// Consumes up to `max` upcoming [`Op::NonMem`] instructions at once and
    /// returns how many it consumed; the core then dispatches them as one
    /// run instead of one [`InstructionStream::next_op`] call each.
    ///
    /// Contract: taking `k` ops here leaves the stream exactly where `k`
    /// `next_op` calls answering `Op::NonMem` would have — same ops, same
    /// order, no RNG draw. A return below `max` does not mean the next op is
    /// a memory op; the default, 0, keeps every op on the per-op path.
    fn take_nonmem(&mut self, max: u32) -> u32 {
        let _ = max;
        0
    }
}

impl<F: FnMut() -> Op> InstructionStream for F {
    fn next_op(&mut self) -> Op {
        self()
    }
}

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Issue/retire width per CPU cycle (4 in the baseline).
    pub width: u32,
    /// Reorder-buffer capacity (256 in the baseline).
    pub rob_size: usize,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            width: 4,
            rob_size: 256,
        }
    }
}

/// One ROB entry: a run of `n` adjacent ops that all complete at `at`
/// (non-memory ops, stores, flushes and LLC hits), or one load waiting on
/// memory.
#[derive(Debug)]
enum Slot {
    Ready { at: Cycle, n: u32 },
    WaitingMem(Completion),
}

/// One out-of-order core.
pub struct Core {
    id: u8,
    params: CoreParams,
    rob: VecDeque<Slot>,
    /// Instructions in the ROB: the sum of its runs' lengths.
    occupancy: usize,
    retired: u64,
    loads: u64,
    stores: u64,
    /// An op that could not dispatch (MSHR stall) and must retry.
    stalled_op: Option<Op>,
    /// A dependent load blocking further dispatch.
    dispatch_block: Option<Completion>,
}

impl core::fmt::Debug for Core {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("retired", &self.retired)
            .field("rob_occupancy", &self.occupancy)
            .finish()
    }
}

impl Core {
    /// Creates a core with the given parameters.
    pub fn new(id: u8, params: CoreParams) -> Self {
        Core {
            id,
            params,
            rob: VecDeque::with_capacity(params.rob_size),
            occupancy: 0,
            retired: 0,
            loads: 0,
            stores: 0,
            stalled_op: None,
            dispatch_block: None,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Loads dispatched so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores dispatched so far.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.occupancy
    }

    /// Advances the core by one simulation step (`cpu_cycles` CPU cycles,
    /// 4 for the standard 1 ns step): retire from the ROB head, then dispatch
    /// new instructions from `stream`.
    pub fn step<S: InstructionStream>(
        &mut self,
        now: Cycle,
        cpu_cycles: u32,
        stream: &mut S,
        uncore: &mut Uncore,
    ) {
        let budget = (self.params.width * cpu_cycles) as usize;
        self.retire(now, budget);
        self.dispatch(now, budget, stream, uncore);
    }

    /// Clocking contract: the earliest cycle at which a [`Core::step`] could
    /// change any state (its own, the stream's, or the uncore's), given the
    /// state frozen at `now`. A return of `t <= now` means the core is *hot*
    /// (the very next step acts); `None` means the core is fully blocked on
    /// unresolved memory completions and will only become runnable after an
    /// executed step resolves one — so the memory system's own wake covers it.
    ///
    /// Steps strictly before the returned cycle are provably no-ops: retire
    /// stops at a head that is not ready, and dispatch returns without pulling
    /// from the stream while the dispatch block is pending or the ROB is full.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // Dispatch side: a pending-but-resolved block clears (and dispatch
        // proceeds) once its completion time is reached; an unblocked core
        // with ROB space always dispatches (pulling from the stream mutates
        // it, and a stalled op retries against the uncore every step).
        let dispatch = match &self.dispatch_block {
            Some(c) => {
                let done = c.get();
                (done != Cycle::MAX).then(|| done.max(now))
            }
            None if self.occupancy < self.params.rob_size => Some(now),
            None => None, // ROB full: gated on retire, covered below.
        };
        // Retire side: the head's completion time, once known.
        let retire = match self.rob.front() {
            Some(Slot::Ready { at, .. }) => Some((*at).max(now)),
            Some(Slot::WaitingMem(c)) => {
                let done = c.get();
                (done != Cycle::MAX).then(|| done.max(now))
            }
            None => None,
        };
        match (dispatch, retire) {
            (Some(d), Some(r)) => Some(d.min(r)),
            (d, r) => d.or(r),
        }
    }

    fn retire(&mut self, now: Cycle, mut budget: usize) {
        while budget > 0 {
            match self.rob.front_mut() {
                Some(Slot::Ready { at, n }) if *at <= now => {
                    let k = (*n as usize).min(budget);
                    *n -= k as u32;
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                    budget -= k;
                    self.occupancy -= k;
                    self.retired += k as u64;
                }
                Some(Slot::WaitingMem(c)) if c.get() != Cycle::MAX && c.get() <= now => {
                    self.rob.pop_front();
                    budget -= 1;
                    self.occupancy -= 1;
                    self.retired += 1;
                }
                _ => break,
            }
        }
    }

    /// Appends `n` ops completing at `at`, extending the tail run when it
    /// completes at the same cycle.
    fn push_ready(&mut self, at: Cycle, n: u32) {
        self.occupancy += n as usize;
        if let Some(Slot::Ready { at: tail, n: len }) = self.rob.back_mut() {
            if *tail == at {
                *len += n;
                return;
            }
        }
        self.rob.push_back(Slot::Ready { at, n });
    }

    fn push_waiting(&mut self, c: Completion) {
        self.occupancy += 1;
        self.rob.push_back(Slot::WaitingMem(c));
    }

    fn dispatch<S: InstructionStream>(
        &mut self,
        now: Cycle,
        mut budget: usize,
        stream: &mut S,
        uncore: &mut Uncore,
    ) {
        while budget > 0 {
            // Dependent-load serialization.
            if let Some(c) = &self.dispatch_block {
                let done = c.get();
                if done == Cycle::MAX || done > now {
                    return;
                }
                self.dispatch_block = None;
            }
            let room = self.params.rob_size - self.occupancy;
            if room == 0 {
                return;
            }
            // A run of non-memory ops enters as one slot. `budget` came from
            // a `u32` product, so the run length fits a `u32`.
            if self.stalled_op.is_none() {
                let n = stream.take_nonmem(budget.min(room) as u32);
                if n > 0 {
                    self.push_ready(now, n);
                    budget -= n as usize;
                    continue;
                }
            }
            budget -= 1;
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => stream.next_op(),
            };
            match op {
                Op::NonMem => self.push_ready(now, 1),
                Op::Store { line } => {
                    uncore.store(self.id, line, now);
                    self.stores += 1;
                    self.push_ready(now, 1);
                }
                Op::Flush { line } => {
                    uncore.flush(self.id, line);
                    self.push_ready(now, 1);
                }
                Op::Load { line, dependent } => match uncore.load(self.id, line, now) {
                    LoadOutcome::Hit(at) => {
                        self.loads += 1;
                        if dependent {
                            let c: Completion = std::rc::Rc::new(std::cell::Cell::new(at));
                            self.dispatch_block = Some(std::rc::Rc::clone(&c));
                            self.push_waiting(c);
                        } else {
                            self.push_ready(at, 1);
                        }
                    }
                    LoadOutcome::Pending(c) => {
                        self.loads += 1;
                        if dependent {
                            self.dispatch_block = Some(std::rc::Rc::clone(&c));
                        }
                        self.push_waiting(c);
                    }
                    LoadOutcome::Stall => {
                        self.stalled_op = Some(op);
                        return;
                    }
                },
            }
        }
    }
}

/// Encodes one completion handle: resolved handles by value, pending ones as
/// a reference into the uncore's MSHR table.
fn encode_completion(c: &Completion, w: &mut Writer, index: &CompletionIndex) {
    let v = c.get();
    if v != Cycle::MAX {
        w.put_u8(1);
        v.encode(w);
    } else {
        let (line, idx) = index
            .lookup(c)
            .expect("pending completion must belong to an MSHR");
        w.put_u8(2);
        w.put_u64(line);
        w.put_u32(idx);
    }
}

fn decode_completion(r: &mut Reader<'_>, table: &CompletionTable) -> Result<Completion, SnapError> {
    match r.take_u8()? {
        1 => Ok(std::rc::Rc::new(std::cell::Cell::new(Cycle::decode(r)?))),
        2 => {
            let line = r.take_u64()?;
            let idx = r.take_u32()?;
            table
                .get(line, idx)
                .ok_or_else(|| SnapError::corrupt("dangling completion reference"))
        }
        t => Err(SnapError::corrupt(format!("bad completion tag {t}"))),
    }
}

impl Core {
    /// Serializes the core's mutable state (ROB, counters, stall state).
    /// `index` must come from the same-step [`Uncore::snapshot_state`] call so
    /// pending loads can be encoded as MSHR references.
    ///
    /// # Panics
    ///
    /// Panics if a pending ROB entry is unknown to `index` — an invariant
    /// violation (every in-flight completion lives in an MSHR waiter list).
    pub fn snapshot_state(&self, w: &mut Writer, index: &CompletionIndex) {
        // A run encodes as `n` single slots, so the bytes do not depend on
        // how the ROB groups its ops.
        w.put_usize(self.occupancy);
        for slot in &self.rob {
            match slot {
                Slot::Ready { at, n } => {
                    for _ in 0..*n {
                        w.put_u8(0);
                        at.encode(w);
                    }
                }
                Slot::WaitingMem(c) => encode_completion(c, w, index),
            }
        }
        w.put_u64(self.retired);
        w.put_u64(self.loads);
        w.put_u64(self.stores);
        self.stalled_op.encode(w);
        match &self.dispatch_block {
            None => w.put_u8(0),
            Some(c) => {
                w.put_u8(1);
                encode_completion(c, w, index);
            }
        }
    }

    /// Restores the state saved by [`Core::snapshot_state`] into a core
    /// constructed with the same parameters. `table` must come from the
    /// same-restore [`Uncore::decode_state`] call.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the ROB exceeds this core's capacity, a
    /// pending entry references an unknown MSHR slot, or the input is
    /// malformed.
    pub fn restore_state(
        &mut self,
        r: &mut Reader<'_>,
        table: &CompletionTable,
    ) -> Result<(), SnapError> {
        let n = r.take_usize()?;
        if n > self.params.rob_size {
            return Err(SnapError::corrupt("ROB size exceeds capacity"));
        }
        self.rob.clear();
        self.occupancy = 0;
        for _ in 0..n {
            match r.take_u8()? {
                0 => self.push_ready(Cycle::decode(r)?, 1),
                1 => self.push_waiting(std::rc::Rc::new(std::cell::Cell::new(Cycle::decode(r)?))),
                2 => {
                    let line = r.take_u64()?;
                    let idx = r.take_u32()?;
                    let c = table
                        .get(line, idx)
                        .ok_or_else(|| SnapError::corrupt("dangling ROB completion"))?;
                    self.push_waiting(c);
                }
                t => return Err(SnapError::corrupt(format!("bad ROB slot tag {t}"))),
            }
        }
        self.retired = r.take_u64()?;
        self.loads = r.take_u64()?;
        self.stores = r.take_u64()?;
        self.stalled_op = Option::decode(r)?;
        self.dispatch_block = match r.take_u8()? {
            0 => None,
            1 => Some(decode_completion(r, table)?),
            t => return Err(SnapError::corrupt(format!("bad dispatch-block tag {t}"))),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uncore::UncoreParams;
    use autorfm_dram::{DramConfig, DramDevice};
    use autorfm_mapping::ZenMap;
    use autorfm_memctrl::MemController;
    use autorfm_sim_core::Geometry;

    const STEP: Cycle = Cycle::new(4);

    fn rig() -> (Uncore, MemController<ZenMap>) {
        rig_with(UncoreParams::default())
    }

    fn rig_with(params: UncoreParams) -> (Uncore, MemController<ZenMap>) {
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 9).unwrap();
        let mc = MemController::new(ZenMap::new(geometry).unwrap(), device, Default::default());
        (Uncore::new(params).unwrap(), mc)
    }

    fn run_instructions<S: InstructionStream>(
        core: &mut Core,
        stream: &mut S,
        uncore: &mut Uncore,
        mc: &mut MemController<ZenMap>,
        target: u64,
    ) -> Cycle {
        let mut now = Cycle::ZERO;
        let deadline = Cycle::from_ms(20);
        while core.retired() < target {
            now += STEP;
            core.step(now, 4, stream, uncore);
            uncore.tick(mc, now);
            mc.tick(now);
            uncore.tick(mc, now);
            assert!(now < deadline, "core failed to make progress");
        }
        now
    }

    #[test]
    fn pure_compute_runs_at_full_width() {
        let (mut uncore, mut mc) = rig();
        let mut core = Core::new(0, CoreParams::default());
        let mut stream = || Op::NonMem;
        let end = run_instructions(&mut core, &mut stream, &mut uncore, &mut mc, 16_000);
        // 16 instructions per ns step -> 1000 steps -> about 1 us.
        let ns = end.as_ns();
        assert!((950..=1100).contains(&ns), "took {ns} ns");
    }

    #[test]
    fn memory_misses_slow_the_core() {
        let (mut uncore, mut mc) = rig();
        let mut core = Core::new(0, CoreParams::default());
        // Every 8th instruction misses to a fresh line: heavy memory traffic.
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(8) {
                Op::Load {
                    line: LineAddr(i * 64 % (1 << 22)),
                    dependent: false,
                }
            } else {
                Op::NonMem
            }
        };
        let end = run_instructions(&mut core, &mut stream, &mut uncore, &mut mc, 16_000);
        assert!(
            end.as_ns() > 1_500,
            "misses should slow retirement, took {} ns",
            end.as_ns()
        );
        assert!(core.loads() >= 1_900);
    }

    #[test]
    fn dependent_loads_serialize() {
        let (mut u1, mut m1) = rig();
        let (mut u2, mut m2) = rig();
        let mut independent = Core::new(0, CoreParams::default());
        let mut dependent = Core::new(0, CoreParams::default());
        let mk_stream = |dep: bool| {
            let mut i = 0u64;
            move || {
                i += 1;
                if i.is_multiple_of(4) {
                    Op::Load {
                        line: LineAddr((i * 977) % (1 << 20)),
                        dependent: dep,
                    }
                } else {
                    Op::NonMem
                }
            }
        };
        let mut s1 = mk_stream(false);
        let mut s2 = mk_stream(true);
        let t_ind = run_instructions(&mut independent, &mut s1, &mut u1, &mut m1, 4_000);
        let t_dep = run_instructions(&mut dependent, &mut s2, &mut u2, &mut m2, 4_000);
        assert!(
            t_dep > t_ind * 2,
            "dependent loads must serialize: independent {} ns, dependent {} ns",
            t_ind.as_ns(),
            t_dep.as_ns()
        );
    }

    #[test]
    fn rob_bounds_outstanding_work() {
        let (mut uncore, mut mc) = rig();
        let mut core = Core::new(
            0,
            CoreParams {
                width: 4,
                rob_size: 8,
            },
        );
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            Op::Load {
                line: LineAddr(i * 4096),
                dependent: false,
            }
        };
        let mut now = Cycle::ZERO;
        for _ in 0..10 {
            now += STEP;
            core.step(now, 4, &mut stream, &mut uncore);
            uncore.tick(&mut mc, now);
            mc.tick(now);
        }
        assert!(core.rob_occupancy() <= 8);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let (mut uncore, mut mc) = rig();
        let mut core = Core::new(0, CoreParams::default());
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(4) {
                Op::Store {
                    line: LineAddr(i * 64 % (1 << 20)),
                }
            } else {
                Op::NonMem
            }
        };
        let end = run_instructions(&mut core, &mut stream, &mut uncore, &mut mc, 16_000);
        // Stores are fire-and-forget: retirement is nearly full-width even
        // though every store misses.
        assert!(
            end.as_ns() < 2_500,
            "stores blocked the core: {} ns",
            end.as_ns()
        );
        assert!(core.stores() >= 3_900);
    }

    #[test]
    fn flush_ops_retire_immediately_and_evict() {
        let (mut uncore, mut mc) = rig();
        let mut core = Core::new(0, CoreParams::default());
        // Load a line, then flush it, then load it again: second load must
        // miss (two memory round trips for the same line).
        let mut phase = 0u32;
        let mut stream = move || {
            phase += 1;
            match phase {
                1 => Op::Load {
                    line: LineAddr(42),
                    dependent: true,
                },
                2 => Op::Flush { line: LineAddr(42) },
                3 => Op::Load {
                    line: LineAddr(42),
                    dependent: true,
                },
                _ => Op::NonMem,
            }
        };
        run_instructions(&mut core, &mut stream, &mut uncore, &mut mc, 100);
        assert_eq!(
            uncore.stats().llc_load_misses.get(),
            2,
            "flush must force a re-fetch"
        );
        assert_eq!(uncore.stats().llc_load_hits.get(), 0);
    }

    /// Forwards only `next_op`, so a core dispatches every op one at a time.
    struct PerOp<S>(S);

    impl<S: InstructionStream> InstructionStream for PerOp<S> {
        fn next_op(&mut self) -> Op {
            self.0.next_op()
        }
    }

    /// A seeded stream shaped like the workload generators: a jittered gap
    /// of non-memory ops, served by `take_nonmem` without an RNG draw, then
    /// one memory op.
    #[derive(Clone)]
    struct Synth {
        rng: autorfm_sim_core::DetRng,
        gap_left: u32,
        mean_gap: u32,
        /// Lines in play; sequential streams walk them in order.
        footprint: u64,
        sequential: bool,
        cursor: u64,
        store_p: f64,
        flush_p: f64,
        dependent_p: f64,
    }

    impl Synth {
        fn new(seed: u64, mean_gap: u32, footprint: u64, sequential: bool) -> Self {
            Synth {
                rng: autorfm_sim_core::DetRng::seeded(seed),
                gap_left: 0,
                mean_gap,
                footprint,
                sequential,
                cursor: 0,
                store_p: 0.0,
                flush_p: 0.0,
                dependent_p: 0.0,
            }
        }

        fn mix(self, store_p: f64, flush_p: f64, dependent_p: f64) -> Self {
            Synth {
                store_p,
                flush_p,
                dependent_p,
                ..self
            }
        }

        /// The wrf, xz and mcf generators' memory-op spacing
        /// (`1000 / mem_pki`), write and dependent fractions and patterns.
        fn wrf(seed: u64) -> Self {
            Synth::new(seed, 833, 1 << 14, true).mix(0.3, 0.0, 0.0)
        }

        fn xz(seed: u64) -> Self {
            Synth::new(seed, 161, 1 << 18, false).mix(0.25, 0.0, 0.2)
        }

        fn mcf(seed: u64) -> Self {
            Synth::new(seed, 43, 1 << 20, false).mix(0.15, 0.0, 0.25)
        }
    }

    impl InstructionStream for Synth {
        fn next_op(&mut self) -> Op {
            if self.gap_left > 0 {
                self.gap_left -= 1;
                return Op::NonMem;
            }
            self.gap_left = self.rng.gen_range(self.mean_gap as u64 * 2 + 1) as u32;
            let line = if self.sequential {
                self.cursor = (self.cursor + 1) % self.footprint;
                LineAddr(self.cursor)
            } else {
                LineAddr(self.rng.gen_range(self.footprint))
            };
            let kind = self.rng.gen_f64();
            if kind < self.store_p {
                Op::Store { line }
            } else if kind < self.store_p + self.flush_p {
                Op::Flush { line }
            } else {
                Op::Load {
                    line,
                    dependent: self.rng.gen_bool(self.dependent_p),
                }
            }
        }

        fn take_nonmem(&mut self, max: u32) -> u32 {
            let n = self.gap_left.min(max);
            self.gap_left -= n;
            n
        }
    }

    /// One core over its own uncore and controller, stepped like
    /// [`run_instructions`].
    struct Rig<S> {
        core: Core,
        stream: S,
        uncore: Uncore,
        mc: MemController<ZenMap>,
        now: Cycle,
    }

    impl<S: InstructionStream> Rig<S> {
        fn new(core: CoreParams, uncore: UncoreParams, stream: S) -> Self {
            let (uncore, mc) = rig_with(uncore);
            Rig {
                core: Core::new(0, core),
                stream,
                uncore,
                mc,
                now: Cycle::ZERO,
            }
        }

        fn step(&mut self) {
            self.now += STEP;
            self.core
                .step(self.now, 4, &mut self.stream, &mut self.uncore);
            self.uncore.tick(&mut self.mc, self.now);
            self.mc.tick(self.now);
            self.uncore.tick(&mut self.mc, self.now);
        }

        /// The uncore's and the core's snapshot bytes.
        fn state(&self) -> Vec<u8> {
            let mut w = Writer::new();
            let index = self.uncore.snapshot_state(&mut w);
            self.core.snapshot_state(&mut w, &index);
            w.into_bytes()
        }

        fn counters(&self) -> (u64, u64, u64) {
            (self.core.retired(), self.core.loads(), self.core.stores())
        }

        fn longest_run(&self) -> u32 {
            self.core
                .rob
                .iter()
                .map(|s| match s {
                    Slot::Ready { n, .. } => *n,
                    Slot::WaitingMem(_) => 1,
                })
                .max()
                .unwrap_or(0)
        }
    }

    /// A small LLC, so the streams miss and the per-step state stays cheap
    /// to encode.
    fn small_uncore() -> UncoreParams {
        UncoreParams {
            llc: crate::LlcParams {
                capacity_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            ..UncoreParams::default()
        }
    }

    /// Steps `stream` through a run-length rig and a [`PerOp`] rig for
    /// `steps` steps, requiring equal counters and snapshot bytes after
    /// every step. Returns the run-length rig and the longest run it held.
    fn run_length_matches_per_op(
        core: CoreParams,
        uncore: UncoreParams,
        stream: Synth,
        steps: usize,
    ) -> (Rig<Synth>, u32) {
        let mut runs = Rig::new(core, uncore, stream.clone());
        let mut per_op = Rig::new(core, uncore, PerOp(stream));
        let mut longest = 0;
        for step in 0..steps {
            runs.step();
            per_op.step();
            assert_eq!(runs.counters(), per_op.counters(), "step {step}");
            assert_eq!(runs.state(), per_op.state(), "step {step}");
            assert_eq!(runs.core.rob_occupancy(), per_op.core.rob_occupancy());
            longest = longest.max(runs.longest_run());
        }
        (runs, longest)
    }

    #[test]
    fn run_length_rob_matches_per_op_on_generator_shaped_streams() {
        for (name, stream) in [
            ("wrf", Synth::wrf(1)),
            ("xz", Synth::xz(2)),
            ("mcf", Synth::mcf(3)),
        ] {
            let (rig, longest) =
                run_length_matches_per_op(CoreParams::default(), small_uncore(), stream, 4_000);
            // One step dispatches up to 4 x width = 16 ops as one run.
            assert!(longest >= 16, "{name}: no full-width run formed");
            assert!(rig.core.loads() > 0, "{name}: no loads");
        }
    }

    #[test]
    fn run_length_rob_matches_per_op_on_a_random_mixed_stream() {
        // Dependent loads, stores and flushes over a footprint the small
        // LLC half holds, so hits, misses and write-backs all occur.
        let stream = Synth::new(4, 6, 1 << 10, false).mix(0.3, 0.1, 0.3);
        let (rig, longest) =
            run_length_matches_per_op(CoreParams::default(), small_uncore(), stream, 4_000);
        assert!(longest > 1);
        let stats = rig.uncore.stats();
        assert!(stats.llc_load_hits.get() > 0 && stats.llc_load_misses.get() > 0);
        assert!(stats.writebacks.get() > 0);
    }

    #[test]
    fn run_length_rob_matches_per_op_on_a_narrow_small_rob() {
        let core = CoreParams {
            width: 1,
            rob_size: 8,
        };
        for stream in [
            Synth::xz(5),
            Synth::new(6, 4, 1 << 12, false).mix(0.2, 0.05, 0.3),
        ] {
            let (_, longest) = run_length_matches_per_op(core, small_uncore(), stream, 4_000);
            assert!((2..=8).contains(&longest), "longest run {longest}");
        }
    }

    #[test]
    fn run_length_rob_matches_per_op_through_mshr_stalls() {
        let uncore = UncoreParams {
            mshr_entries: 2,
            ..small_uncore()
        };
        let stream = Synth::new(7, 3, 1 << 20, false).mix(0.1, 0.0, 0.0);
        let (rig, _) = run_length_matches_per_op(CoreParams::default(), uncore, stream, 3_000);
        assert!(rig.uncore.stats().mshr_stalls.get() > 0, "no MSHR stall");
    }

    #[test]
    fn run_length_rob_restores_mid_run_and_continues_identically() {
        let params = small_uncore();
        let mut rig = Rig::new(CoreParams::default(), params, Synth::mcf(8));
        while !(rig.now > Cycle::from_ns(500) && rig.longest_run() > 1) {
            rig.step();
        }
        let mut w = Writer::new();
        let index = rig.uncore.snapshot_state(&mut w);
        rig.core.snapshot_state(&mut w, &index);
        rig.mc.snapshot_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Rig::new(CoreParams::default(), params, rig.stream.clone());
        let mut r = Reader::new(&bytes);
        let (uncore, table) = Uncore::decode_state(params, &mut r).unwrap();
        restored.uncore = uncore;
        restored.core.restore_state(&mut r, &table).unwrap();
        restored.mc.restore_state(&mut r).unwrap();
        assert!(r.is_empty());
        restored.now = rig.now;
        // Restoring merges the expanded slots back into runs.
        assert_eq!(restored.core.rob.len(), rig.core.rob.len());
        assert_eq!(restored.core.rob_occupancy(), rig.core.rob_occupancy());
        for step in 0..3_000 {
            rig.step();
            restored.step();
            assert_eq!(restored.counters(), rig.counters(), "step {step}");
            assert_eq!(restored.state(), rig.state(), "step {step}");
        }
    }

    /// The per-op path forms the same runs, so the differential tests above
    /// cannot see a run retired past the step budget or merged across
    /// completion times; this pins both directly.
    #[test]
    fn runs_retire_within_the_budget_and_behind_a_pending_hit() {
        let (mut uncore, _) = rig();
        let mut core = Core::new(0, CoreParams::default());
        let mut all_nonmem = Synth::new(0, 1, 1, false);
        all_nonmem.gap_left = u32::MAX;
        core.step(STEP, 4, &mut all_nonmem, &mut uncore);
        assert_eq!(core.rob_occupancy(), 16);
        // A one-cycle step retires 4 of the 16-op run.
        core.step(STEP * 2, 1, &mut all_nonmem, &mut uncore);
        assert_eq!(core.retired(), 4);

        // Three ops, an LLC hit 10 ns out, then more ops in the same step:
        // only the three retire before the hit completes.
        let (mut uncore, _) = rig();
        uncore.warm(LineAddr(9), false);
        let mut core = Core::new(0, CoreParams::default());
        let mut phase = 0u32;
        let mut stream = move || {
            phase += 1;
            if phase == 4 {
                Op::Load {
                    line: LineAddr(9),
                    dependent: false,
                }
            } else {
                Op::NonMem
            }
        };
        core.step(STEP, 4, &mut stream, &mut uncore);
        core.step(STEP * 2, 4, &mut stream, &mut uncore);
        assert_eq!(core.retired(), 3);
    }

    #[test]
    fn counters_report() {
        let core = Core::new(3, CoreParams::default());
        assert_eq!(core.retired(), 0);
        assert_eq!(core.loads(), 0);
        assert_eq!(core.stores(), 0);
        assert_eq!(core.rob_occupancy(), 0);
        assert!(format!("{core:?}").contains("retired"));
    }
}

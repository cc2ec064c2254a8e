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

#[derive(Debug)]
enum Slot {
    ReadyAt(Cycle),
    WaitingMem(Completion),
}

/// One out-of-order core.
pub struct Core {
    id: u8,
    params: CoreParams,
    rob: VecDeque<Slot>,
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
            .field("rob_occupancy", &self.rob.len())
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
        self.rob.len()
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
            None if self.rob.len() < self.params.rob_size => Some(now),
            None => None, // ROB full: gated on retire, covered below.
        };
        // Retire side: the head's completion time, once known.
        let retire = match self.rob.front() {
            Some(Slot::ReadyAt(at)) => Some((*at).max(now)),
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

    fn retire(&mut self, now: Cycle, budget: usize) {
        for _ in 0..budget {
            let ready = match self.rob.front() {
                Some(Slot::ReadyAt(at)) => *at <= now,
                Some(Slot::WaitingMem(c)) => {
                    let done = c.get();
                    done != Cycle::MAX && done <= now
                }
                None => false,
            };
            if !ready {
                break;
            }
            self.rob.pop_front();
            self.retired += 1;
        }
    }

    fn dispatch<S: InstructionStream>(
        &mut self,
        now: Cycle,
        budget: usize,
        stream: &mut S,
        uncore: &mut Uncore,
    ) {
        for _ in 0..budget {
            // Dependent-load serialization.
            if let Some(c) = &self.dispatch_block {
                let done = c.get();
                if done == Cycle::MAX || done > now {
                    return;
                }
                self.dispatch_block = None;
            }
            if self.rob.len() >= self.params.rob_size {
                return;
            }
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => stream.next_op(),
            };
            match op {
                Op::NonMem => self.rob.push_back(Slot::ReadyAt(now)),
                Op::Store { line } => {
                    uncore.store(self.id, line, now);
                    self.stores += 1;
                    self.rob.push_back(Slot::ReadyAt(now));
                }
                Op::Flush { line } => {
                    uncore.flush(self.id, line);
                    self.rob.push_back(Slot::ReadyAt(now));
                }
                Op::Load { line, dependent } => match uncore.load(self.id, line, now) {
                    LoadOutcome::Hit(at) => {
                        self.loads += 1;
                        if dependent {
                            let c: Completion = std::rc::Rc::new(std::cell::Cell::new(at));
                            self.dispatch_block = Some(std::rc::Rc::clone(&c));
                            self.rob.push_back(Slot::WaitingMem(c));
                        } else {
                            self.rob.push_back(Slot::ReadyAt(at));
                        }
                    }
                    LoadOutcome::Pending(c) => {
                        self.loads += 1;
                        if dependent {
                            self.dispatch_block = Some(std::rc::Rc::clone(&c));
                        }
                        self.rob.push_back(Slot::WaitingMem(c));
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
        w.put_usize(self.rob.len());
        for slot in &self.rob {
            match slot {
                Slot::ReadyAt(at) => {
                    w.put_u8(0);
                    at.encode(w);
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
        for _ in 0..n {
            let slot = match r.take_u8()? {
                0 => Slot::ReadyAt(Cycle::decode(r)?),
                1 => Slot::WaitingMem(std::rc::Rc::new(std::cell::Cell::new(Cycle::decode(r)?))),
                2 => {
                    let line = r.take_u64()?;
                    let idx = r.take_u32()?;
                    let c = table
                        .get(line, idx)
                        .ok_or_else(|| SnapError::corrupt("dangling ROB completion"))?;
                    Slot::WaitingMem(c)
                }
                t => return Err(SnapError::corrupt(format!("bad ROB slot tag {t}"))),
            };
            self.rob.push_back(slot);
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
        let geometry = Geometry::small();
        let cfg = DramConfig {
            geometry,
            ..DramConfig::default()
        };
        let device = DramDevice::new(cfg, 9).unwrap();
        let mc = MemController::new(ZenMap::new(geometry).unwrap(), device, Default::default());
        (Uncore::new(UncoreParams::default()).unwrap(), mc)
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

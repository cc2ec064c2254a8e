//! The traced simulation loop: `System::new` followed by
//! `System::run_with(KernelKind::Event)`, rebuilt from the components' public
//! API with a timer around every layer call and two blocks of the loop. It
//! must reproduce the untraced run bit for bit; the sweeps compare the
//! encoded `SimResult`s, and a mismatch invalidates the trace.

use crate::trace::{ns, Tracer};
use autorfm::cpu::{Core, InstructionStream, Op, Uncore};
use autorfm::dram::{DramConfig, DramDevice};
use autorfm::mapping::{LinearMap, MemoryMap, RubixMap, ZenMap};
use autorfm::memctrl::MemController;
use autorfm::power::EventCounts;
use autorfm::sim_core::{ConfigError, Cycle, LineAddr};
use autorfm::workloads::WorkloadGen;
use autorfm::{MappingKind, SimConfig, SimResult};
use std::time::Instant;

/// One simulation step: 1 ns, 4 CPU cycles at 4 GHz (as in `System`).
const STEP: Cycle = Cycle::new(4);
const CPU_CYCLES_PER_STEP: u32 = 4;

/// The timed spans of the loop, in `LAYERS` order.
#[derive(Clone, Copy)]
enum Call {
    CoreScan,
    CoreStep,
    UncoreTick,
    McTickOrSkip,
    McTickEvent,
    Leap,
    McNextEvent,
    McSkipTicks,
}

/// Span name and parent of each [`Call`]. Besides the layer calls, two
/// blocks of the loop are timed so that its untimed glue stays small:
/// `cpu.core_scan`, one step's pass over the cores (wake checks and
/// `Core::step`), and `core.leap`, the search for provably idle steps (wake
/// queries and the controller's leap).
pub const LAYERS: [(&str, &str); 8] = [
    ("cpu.core_scan", "core.kernel"),
    ("cpu.core_step", "cpu.core_scan"),
    ("cpu.uncore_tick", "core.kernel"),
    ("memctrl.tick_or_skip", "core.kernel"),
    ("memctrl.tick_event", "core.kernel"),
    ("core.leap", "core.kernel"),
    ("memctrl.next_event_at", "core.leap"),
    ("memctrl.skip_ticks", "core.leap"),
];

/// The loop's timer: the time-stamp counter on x86-64, which is cheaper to
/// read than `Instant::now()`, so the timers add less untimed glue between
/// spans (on sweep-memory the kernel's self time fell from 12% to 6% of it).
/// Elsewhere, nanoseconds since the first read. Ticks become nanoseconds by
/// the kernel's own wall time.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC reads a counter; it touches no memory and every x86-64
    // processor has it.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Call counts and timer ticks per timed span of one traced cell.
#[derive(Default)]
struct Clock {
    calls: [u64; LAYERS.len()],
    ticks: [u64; LAYERS.len()],
}

impl Clock {
    fn time<R>(&mut self, call: Call, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = ticks();
        let out = f(self);
        self.calls[call as usize] += 1;
        self.ticks[call as usize] += ticks().wrapping_sub(start);
        out
    }
}

/// A workload generator folded into the configured geometry (the same fold
/// `System` applies to every produced line address).
struct Bounded {
    gen: WorkloadGen,
    line_mask: u64,
}

impl Bounded {
    fn fold(&self, line: LineAddr) -> LineAddr {
        LineAddr(line.0 & self.line_mask)
    }
}

impl InstructionStream for Bounded {
    fn next_op(&mut self) -> Op {
        match self.gen.next_op() {
            Op::Load { line, dependent } => Op::Load {
                line: self.fold(line),
                dependent,
            },
            Op::Store { line } => Op::Store {
                line: self.fold(line),
            },
            Op::Flush { line } => Op::Flush {
                line: self.fold(line),
            },
            Op::NonMem => Op::NonMem,
        }
    }
}

/// What one traced cell produced.
pub struct TracedCell {
    /// The result, to be compared with the untraced run's.
    pub result: SimResult,
    /// Wall time of the simulation loop alone (warmup excluded).
    pub kernel_ns: u64,
}

/// Builds, warms up and runs `cfg` under the event kernel with every layer
/// call timed, recording the spans under cell span `cell` in `tracer`.
pub fn run_traced(
    cfg: &SimConfig,
    tracer: &std::sync::Mutex<Tracer>,
    cell: u64,
) -> Result<TracedCell, ConfigError> {
    if cfg.telemetry.is_some() {
        return Err(ConfigError::new("the traced loop runs without telemetry"));
    }
    let t_build = Instant::now();
    let map: Box<dyn MemoryMap> = match cfg.mapping {
        MappingKind::Zen => Box::new(ZenMap::new(cfg.geometry)?),
        MappingKind::Rubix { key } => Box::new(RubixMap::new(cfg.geometry, key)?),
        MappingKind::Linear => Box::new(LinearMap::new(cfg.geometry)?),
    };
    let device = DramDevice::new(
        DramConfig {
            geometry: cfg.geometry,
            timings: cfg.timings.clone(),
            mitigation: cfg.mitigation,
            audit: cfg.audit,
            trace_capacity: cfg.trace_capacity,
            refresh: cfg.refresh,
        },
        cfg.seed,
    )?;
    let mut mc = MemController::new(map, device, cfg.mc);
    let mut uncore = Uncore::new(cfg.uncore)?;
    let line_mask = cfg.geometry.total_lines() - 1;
    let mut cores: Vec<Core> = (0..cfg.num_cores)
        .map(|i| Core::new(i, cfg.core_params))
        .collect();
    let mut streams: Vec<Bounded> = (0..cfg.num_cores)
        .map(|i| Bounded {
            gen: WorkloadGen::new(cfg.workload_of(i), i, cfg.seed),
            line_mask,
        })
        .collect();
    for _ in 0..cfg.warmup_mem_ops_per_core {
        for s in &mut streams {
            match s.gen.next_mem() {
                Op::Load { line, .. } => uncore.warm(s.fold(line), false),
                Op::Store { line } => uncore.warm(s.fold(line), true),
                Op::Flush { .. } | Op::NonMem => {}
            }
        }
    }

    let t_kernel = Instant::now();
    let ticks_kernel = ticks();
    let mut clock = Clock::default();
    let target = cfg.instructions_per_core;
    let mut now = Cycle::ZERO;
    let mut finish_at: Vec<Option<Cycle>> = vec![None; cores.len()];
    loop {
        // One executed step, as `System::step_once` under the event kernel.
        now += STEP;
        let all_done = clock.time(Call::CoreScan, |clock| {
            let mut all_done = true;
            for (i, core) in cores.iter_mut().enumerate() {
                if finish_at[i].is_some() {
                    continue;
                }
                if core.next_event_at(now).is_some_and(|w| w <= now) {
                    clock.time(Call::CoreStep, |_| {
                        core.step(now, CPU_CYCLES_PER_STEP, &mut streams[i], &mut uncore);
                    });
                    if core.retired() >= target {
                        finish_at[i] = Some(now);
                        continue;
                    }
                }
                all_done = false;
            }
            all_done
        });
        clock.time(Call::UncoreTick, |_| uncore.tick(&mut mc, now));
        if !clock.time(Call::McTickOrSkip, |_| mc.tick_or_skip(now)) {
            clock.time(Call::McTickEvent, |_| mc.tick_event(now));
        }
        clock.time(Call::UncoreTick, |_| uncore.tick(&mut mc, now));
        if all_done {
            break;
        }
        // The leap over provably idle steps, as `System::skippable_steps`.
        now = clock.time(Call::Leap, |clock| {
            let hot = now + STEP;
            let mut wake = Cycle::MAX;
            for (i, core) in cores.iter().enumerate() {
                if finish_at[i].is_some() {
                    continue;
                }
                match core.next_event_at(now) {
                    Some(w) if w <= hot => return now,
                    Some(w) => wake = wake.min(w),
                    None => {}
                }
            }
            if uncore.next_event_at(now).is_some() {
                return now;
            }
            wake = wake.min(clock.time(Call::McNextEvent, |_| mc.next_event_at(now)));
            if wake <= hot {
                return now;
            }
            let aligned = wake.raw().div_ceil(STEP.raw()).saturating_mul(STEP.raw());
            let skip = ((aligned - now.raw()) / STEP.raw()) - 1;
            if skip == 0 {
                return now;
            }
            clock.time(Call::McSkipTicks, |_| mc.skip_ticks(skip));
            now + Cycle::new(STEP.raw() * skip)
        });
    }

    // The result, as `System::collect`.
    let t_collect = Instant::now();
    let ticks_collect = ticks();
    let per_core_ipc = finish_at
        .iter()
        .map(|f| target as f64 / f.expect("every core finished").raw() as f64)
        .collect();
    let dram = mc.device().stats().clone();
    let total_instructions = target * u64::from(cfg.num_cores);
    let acts = dram.acts.get();
    let trefis = now.raw() as f64 / cfg.timings.t_refi.raw() as f64;
    let result = SimResult {
        workload: cfg.workload.name,
        elapsed: now,
        per_core_ipc,
        total_instructions,
        alerts_per_act: dram.alerts_per_act(),
        act_pki: acts as f64 * 1000.0 / total_instructions as f64,
        act_per_trefi_per_bank: if trefis > 0.0 {
            acts as f64 / trefis / f64::from(cfg.geometry.num_banks)
        } else {
            0.0
        },
        row_hit_rate: mc.stats().row_hit_rate(),
        avg_read_latency_ns: mc.stats().read_latency.mean() / 4.0,
        power_counts: EventCounts {
            acts,
            reads: dram.reads.get(),
            writes: dram.writes.get(),
            refs: dram.refs.get(),
            victim_refreshes: dram.victim_refreshes.get(),
        },
        max_damage: mc.device().audit().map(|a| a.max_damage()),
        dram,
        series: None,
        metrics: None,
    };
    let t_end = Instant::now();

    let kernel_ns = ns(t_kernel, t_collect);
    let ns_per_tick = kernel_ns as f64 / ticks_collect.wrapping_sub(ticks_kernel).max(1) as f64;
    let mut tracer = tracer.lock().expect("tracer lock poisoned");
    let cell = (cell, "cell");
    let warmup_id = tracer.id();
    tracer.span(warmup_id, "core.warmup", Some(cell), t_build, t_kernel);
    let kernel_id = tracer.id();
    tracer.span(kernel_id, "core.kernel", Some(cell), t_kernel, t_collect);
    for (i, (name, parent)) in LAYERS.iter().enumerate() {
        let ns = (clock.ticks[i] as f64 * ns_per_tick) as u64;
        tracer.add(name, parent, clock.calls[i], ns);
    }
    let collect_id = tracer.id();
    tracer.span(collect_id, "core.collect", Some(cell), t_collect, t_end);
    Ok(TracedCell { result, kernel_ns })
}

/// The share of traced cell wall that timed spans account for: the warmup,
/// the result collection and the timed spans inside the loop. The loop's own
/// glue (`core.kernel` self time) is what is left, so a call left untimed
/// lowers it.
pub fn coverage(tracer: &Tracer) -> f64 {
    let timed_in_kernel = tracer.total_ns("core.kernel") - tracer.self_ns("core.kernel");
    let covered =
        tracer.total_ns("core.warmup") + tracer.total_ns("core.collect") + timed_in_kernel;
    covered as f64 / tracer.total_ns("cell").max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell of 1000 ns: 50 ns warmup, a 900 ns kernel whose direct
    /// children take `kernel_children_ns` (in `LAYERS` order, skipping the
    /// nested ones), 50 ns collection.
    fn cell(kernel_children_ns: &[u64]) -> Tracer {
        let mut t = Tracer::default();
        t.add("cell", "round", 1, 1000);
        t.add("core.warmup", "cell", 1, 50);
        t.add("core.kernel", "cell", 1, 900);
        t.add("core.collect", "cell", 1, 50);
        let direct = LAYERS.iter().filter(|(_, parent)| *parent == "core.kernel");
        for ((name, parent), &ns) in direct.zip(kernel_children_ns) {
            t.add(name, parent, 1, ns);
        }
        // Nested spans: inside their blocks, so they change no coverage.
        t.add("cpu.core_step", "cpu.core_scan", 1, 300);
        t.add("memctrl.next_event_at", "core.leap", 1, 20);
        t
    }

    #[test]
    fn coverage_counts_timed_work_only() {
        let timed = cell(&[400, 100, 200, 150, 50]);
        assert!((coverage(&timed) - 1.0).abs() < 1e-12);
        // The same cell with memctrl.tick_event's 150 ns left untimed: the
        // kernel's self time grows, and coverage drops below the 90% gate.
        let untimed = cell(&[400, 100, 200, 0, 50]);
        assert_eq!(untimed.self_ns("core.kernel"), 150);
        assert!((coverage(&untimed) - 0.85).abs() < 1e-12);
        // No cell span: nothing is covered.
        assert_eq!(coverage(&Tracer::default()), 0.0);
    }
}

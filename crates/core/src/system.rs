//! The assembled full system and its simulation loop.

use crate::config::{MappingKind, SimConfig};
use crate::result::SimResult;
use autorfm_cpu::{Core, InstructionStream, Op, Uncore};
use autorfm_dram::{DramConfig, DramDevice};
use autorfm_mapping::{LinearMap, MemoryMap, RubixMap, ZenMap};
use autorfm_memctrl::MemController;
use autorfm_sim_core::{ConfigError, Cycle, LineAddr};
use autorfm_snapshot::{
    digest64, open, seal, Reader, SnapError, Snapshot, Writer, KIND_SYSTEM, KIND_WARM,
    MODEL_FINGERPRINT,
};
use autorfm_telemetry::{CsvSink, EpochSampler, NullSink, Observation, Sink, DEFAULT_MAX_SAMPLES};
use autorfm_workloads::WorkloadGen;

/// Simulation step: 1 ns (4 CPU cycles at 4 GHz). All DRAM timings are
/// nanosecond multiples, so stepping at 1 ns loses no command-timing accuracy.
const STEP: Cycle = Cycle::new(4);
const CPU_CYCLES_PER_STEP: u32 = 4;

/// Which simulation loop drives the machine.
///
/// Both kernels execute the *same* per-step transition ([`System::run_steps`]
/// semantics, snapshots, and telemetry epochs are bitwise identical); the
/// event kernel merely skips steps that every component proves are no-ops via
/// the `next_event_at` clocking contract (see DESIGN.md, "The clocking
/// contract").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Event-driven time skip: after each executed step, leap to the minimum
    /// next wake across cores, memory system, and telemetry (the default).
    #[default]
    Event,
    /// Uniform 1 ns stepping: executes every step. Kept as the differential-
    /// testing oracle; select it explicitly through [`System::run_with`] /
    /// [`System::run_steps_with`].
    Stepped,
}

impl KernelKind {
    /// Parses a kernel name (`"event"` / `"stepped"`), for CLI flags.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "event" => Some(KernelKind::Event),
            "stepped" => Some(KernelKind::Stepped),
            _ => None,
        }
    }

    /// Short display name (`"event"` / `"stepped"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Event => "event",
            KernelKind::Stepped => "stepped",
        }
    }
}

/// Wraps a workload generator so every produced line address stays inside the
/// configured geometry (the generators target the 32 GB baseline; smaller test
/// geometries fold addresses down).
struct BoundedStream {
    inner: WorkloadGen,
    line_mask: u64,
}

impl InstructionStream for BoundedStream {
    fn next_op(&mut self) -> Op {
        match self.inner.next_op() {
            Op::Load { line, dependent } => Op::Load {
                line: LineAddr(line.0 & self.line_mask),
                dependent,
            },
            Op::Store { line } => Op::Store {
                line: LineAddr(line.0 & self.line_mask),
            },
            Op::Flush { line } => Op::Flush {
                line: LineAddr(line.0 & self.line_mask),
            },
            Op::NonMem => Op::NonMem,
        }
    }
}

/// Live telemetry state: the epoch sampler plus the sink it streams to.
struct Telemetry {
    sampler: EpochSampler,
    sink: Box<dyn Sink>,
}

/// The full simulated machine: cores + LLC + memory controller + DRAM.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    streams: Vec<BoundedStream>,
    uncore: Uncore,
    mc: MemController<Box<dyn MemoryMap>>,
    now: Cycle,
    finish_at: Vec<Option<Cycle>>,
    telemetry: Option<Telemetry>,
    /// Kernel diagnostics (not part of the machine state, never snapshotted):
    /// steps actually executed vs. steps the event kernel proved were no-ops
    /// and leapt over.
    steps_executed: u64,
    steps_skipped: u64,
}

impl core::fmt::Debug for System {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.cfg.workload.name)
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .finish()
    }
}

impl System {
    /// Builds the machine described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any component configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let mut system = Self::assemble(cfg)?;
        system.warmup();
        Ok(system)
    }

    /// Builds the machine without running warmup (used by [`System::new`],
    /// [`System::restore`], and [`System::new_from_warm`], which overwrite the
    /// warm state anyway).
    fn assemble(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
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
        let mc = MemController::new(map, device, cfg.mc);
        let uncore = Uncore::new(cfg.uncore)?;
        let line_mask = cfg.geometry.total_lines() - 1;
        let cores = (0..cfg.num_cores)
            .map(|i| Core::new(i, cfg.core_params))
            .collect::<Vec<_>>();
        let streams = (0..cfg.num_cores)
            .map(|i| BoundedStream {
                inner: WorkloadGen::new(cfg.workload_of(i), i, cfg.seed),
                line_mask,
            })
            .collect();
        let telemetry = cfg.telemetry.as_ref().map(|t| {
            let epoch = t.epoch.unwrap_or(cfg.timings.t_refi);
            let max_samples = t.max_samples.unwrap_or(DEFAULT_MAX_SAMPLES);
            let sink: Box<dyn Sink> = match &t.csv_path {
                Some(path) => match std::fs::File::create(path) {
                    Ok(f) => Box::new(CsvSink::new(std::io::BufWriter::new(f))),
                    Err(e) => {
                        eprintln!("warning: cannot open telemetry CSV {}: {e}", path.display());
                        Box::new(NullSink)
                    }
                },
                None => Box::new(NullSink),
            };
            Telemetry {
                sampler: EpochSampler::with_max_samples(epoch, max_samples),
                sink,
            }
        });
        Ok(System {
            finish_at: vec![None; cfg.num_cores as usize],
            cores,
            streams,
            uncore,
            mc,
            now: Cycle::ZERO,
            cfg,
            telemetry,
            steps_executed: 0,
            steps_skipped: 0,
        })
    }

    /// Fast-forwards the LLC to steady state: each core's stream runs its
    /// configured number of memory operations against the cache with no
    /// timing, so the timed phase starts with realistic hit rates and dirty
    /// lines (writeback traffic).
    fn warmup(&mut self) {
        for _ in 0..self.cfg.warmup_mem_ops_per_core {
            for stream in &mut self.streams {
                let mask = stream.line_mask;
                match stream.inner.next_mem() {
                    Op::Load { line, .. } => self.uncore.warm(LineAddr(line.0 & mask), false),
                    Op::Store { line } => self.uncore.warm(LineAddr(line.0 & mask), true),
                    Op::Flush { .. } | Op::NonMem => {}
                }
            }
        }
    }

    /// Runs until every core retires the configured instruction budget and
    /// returns the collected metrics, using the event kernel.
    pub fn run(&mut self) -> SimResult {
        self.run_with(KernelKind::Event)
    }

    /// Runs to completion under an explicitly chosen kernel (in-process A/B
    /// comparisons; both kernels produce bitwise-identical results).
    pub fn run_with(&mut self, kernel: KernelKind) -> SimResult {
        self.run_steps_with(u64::MAX, kernel)
            .expect("every core retires its budget long before 2^64 steps")
    }

    /// Runs for at most `max_steps` simulation steps (1 ns each). Returns the
    /// collected metrics once every core has retired its instruction budget,
    /// or `None` if the budget of steps ran out first — at which point the
    /// machine sits at a clean step boundary, ready for [`System::snapshot`]
    /// or further `run_steps` / [`System::run`] calls. Uses the event kernel.
    pub fn run_steps(&mut self, max_steps: u64) -> Option<SimResult> {
        self.run_steps_with(max_steps, KernelKind::Event)
    }

    /// [`System::run_steps`] under an explicitly chosen kernel. Skipped steps
    /// count against `max_steps` and leaps are clamped to the remaining
    /// budget, so both kernels stop at exactly the same step boundary with
    /// bitwise-identical state (snapshot/golden-digest compatibility).
    pub fn run_steps_with(&mut self, max_steps: u64, kernel: KernelKind) -> Option<SimResult> {
        let mut remaining = max_steps;
        while remaining > 0 {
            let done = self.step_once(kernel);
            self.steps_executed += 1;
            if done {
                return Some(self.finalize());
            }
            remaining -= 1;
            if kernel == KernelKind::Event && remaining > 0 {
                let skip = self.skippable_steps(remaining);
                if skip > 0 {
                    self.leap(skip);
                    remaining -= skip;
                }
            }
        }
        None
    }

    /// How many upcoming steps (at most `cap`) are provably no-ops for every
    /// component, per the `next_event_at` clocking contract. Zero whenever any
    /// unfinished core is hot (can retire or dispatch next step) — checked
    /// first because it is the common case in compute-bound phases and costs
    /// only a few loads per core.
    ///
    /// No component's wake is derived by scanning here: core, uncore, and
    /// telemetry wakes are O(1) reads of their own state (a core's wake is
    /// its ROB head / dispatch block, polled directly), and the controller
    /// serves its wake from a dirty-tracked per-bank cache, recomputing only
    /// banks whose state changed since the last query (`&mut` for exactly
    /// that reason).
    fn skippable_steps(&mut self, cap: u64) -> u64 {
        let now = self.now;
        let hot = now + STEP;
        let mut wake = Cycle::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            if self.finish_at[i].is_some() {
                continue;
            }
            match core.next_event_at(now) {
                Some(w) if w <= hot => return 0,
                Some(w) => wake = wake.min(w),
                // Blocked on unresolved memory: the MC wake covers it.
                None => {}
            }
        }
        // A non-empty uncore outbox (e.g. a victim writeback pushed by this
        // step's response processing, after its drain loop ran) is admitted
        // by the very next executed step.
        if self.uncore.next_event_at(now).is_some() {
            return 0;
        }
        wake = wake.min(self.mc.next_event_at(now));
        // Telemetry epoch boundaries deliberately do NOT clamp the wake:
        // boundaries crossed by a leap are flushed in one batch by `leap`
        // itself (see there for the bitwise-identity argument), so the most
        // frequent non-mc wake on telemetry-enabled runs is gone.
        if wake <= hot {
            return 0;
        }
        // The first step that may act is the first step-grid point >= wake;
        // every step strictly before it is skippable.
        let aligned = wake.raw().div_ceil(STEP.raw()).saturating_mul(STEP.raw());
        (((aligned - now.raw()) / STEP.raw()) - 1).min(cap)
    }

    /// Leaps over `steps` proven-idle steps: advances the clock and
    /// compensates the controller's per-tick round-robin rotation so the
    /// machine state stays bitwise identical to having executed them.
    fn leap(&mut self, steps: u64) {
        self.now += Cycle::new(STEP.raw() * steps);
        self.mc.skip_ticks(steps);
        self.steps_skipped += steps;
        // Batch-flush every telemetry epoch boundary the leap crossed. The
        // leapt stretch is provably a no-op for cores, uncore, and the
        // controller, so the observation built here from the frozen counters
        // is bitwise what each boundary's executed step would have observed
        // under the stepped kernel; `observe` closes all crossed windows
        // (delta to the first, zeros after) at their grid-aligned ends, so
        // the retained series is identical too.
        if let Some(t) = &mut self.telemetry {
            if t.sampler.due(self.now) {
                let obs = Self::observation(&self.mc, &self.cores);
                t.sampler.observe(self.now, obs, t.sink.as_mut());
            }
        }
    }

    /// Kernel diagnostics: `(steps_executed, steps_skipped)` so far. The skip
    /// ratio `skipped / (executed + skipped)` measures how much wall-clock
    /// the event kernel saves; the stepped kernel always reports zero skips.
    pub fn kernel_stats(&self) -> (u64, u64) {
        (self.steps_executed, self.steps_skipped)
    }

    /// Advances the machine by one step; returns `true` when every core has
    /// finished. Both kernels execute the identical transition; `kernel` only
    /// selects whether provably no-op component ticks may be elided.
    fn step_once(&mut self, kernel: KernelKind) -> bool {
        let target = self.cfg.instructions_per_core;
        self.now += STEP;
        let now = self.now;
        let mut all_done = true;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if self.finish_at[i].is_some() {
                continue;
            }
            // The clocking contract as a per-core gate: a core whose wake
            // lies beyond this step provably cannot retire or dispatch, so
            // the walk over its ROB is skipped outright. (A blocked core's
            // completion is delivered by `uncore.tick` *after* this loop, so
            // it is polled — and stepped — no earlier than the per-step
            // kernel would.)
            if core.next_event_at(now).is_some_and(|w| w <= now) {
                core.step(
                    now,
                    CPU_CYCLES_PER_STEP,
                    &mut self.streams[i],
                    &mut self.uncore,
                );
                if core.retired() >= target {
                    self.finish_at[i] = Some(now);
                    continue;
                }
            }
            all_done = false;
        }
        self.uncore.tick(&mut self.mc, now);
        // The stepped oracle ticks unconditionally; the event kernel lets the
        // controller prove this step is a no-op for it (no bank dirty or
        // due, device wake beyond `now`) and compensate the round-robin
        // rotation instead — the same contract leaps rely on, applied to the
        // executed steps where a core is hot but the memory system is quiet.
        // When the controller does have work, `tick_event` services only the
        // banks that can possibly act.
        if kernel == KernelKind::Stepped {
            self.mc.tick(now);
        } else if !self.mc.tick_or_skip(now) {
            self.mc.tick_event(now);
        }
        self.uncore.tick(&mut self.mc, now);
        // Disabled telemetry (the default) costs exactly this one branch
        // per step; an Observation is only built at epoch boundaries.
        if let Some(t) = &mut self.telemetry {
            if t.sampler.due(now) {
                let obs = Self::observation(&self.mc, &self.cores);
                t.sampler.observe(now, obs, t.sink.as_mut());
            }
        }
        all_done
    }

    /// Closes telemetry and collects the final metrics.
    fn finalize(&mut self) -> SimResult {
        let closed = self.telemetry.take().map(|mut t| {
            let obs = Self::observation(&self.mc, &self.cores);
            let series = t.sampler.finish(self.now, obs, t.sink.as_mut());
            (series, t.sink)
        });
        let mut result = self.collect();
        if let Some((series, mut sink)) = closed {
            result.series = Some(series);
            let mut reg = result.to_registry();
            self.mc.stats().export(&mut reg, &[]);
            self.uncore.stats().export(&mut reg, &[]);
            sink.on_final(&reg);
            result.metrics = Some(reg);
        }
        result
    }

    /// A cumulative snapshot of the machine's counters for epoch sampling.
    fn observation(mc: &MemController<Box<dyn MemoryMap>>, cores: &[Core]) -> Observation {
        let dram = mc.device().stats();
        let ctrl = mc.stats();
        Observation {
            acts: dram.acts.get(),
            alerts: dram.alerts.get(),
            reads: dram.reads.get(),
            writes: dram.writes.get(),
            refs: dram.refs.get(),
            rfms: dram.rfms.get(),
            mitigations: dram.mitigations.get(),
            victim_refreshes: dram.victim_refreshes.get(),
            row_hits: ctrl.row_hits.get(),
            row_misses: ctrl.row_misses.get(),
            queue_depth: mc.pending_requests() as u64,
            retired: cores.iter().map(Core::retired).collect(),
        }
    }

    fn collect(&self) -> SimResult {
        let cfg = &self.cfg;
        let per_core_ipc: Vec<f64> = self
            .finish_at
            .iter()
            .map(|f| {
                let cycles = f.expect("run() completed").raw() as f64;
                cfg.instructions_per_core as f64 / cycles
            })
            .collect();
        let dram = self.mc.device().stats().clone();
        let total_instructions = cfg.instructions_per_core * cfg.num_cores as u64;
        let acts = dram.acts.get();
        let elapsed = self.now;
        let trefis = elapsed.raw() as f64 / cfg.timings.t_refi.raw() as f64;
        let act_per_trefi_per_bank = if trefis > 0.0 {
            acts as f64 / trefis / cfg.geometry.num_banks as f64
        } else {
            0.0
        };
        SimResult {
            workload: cfg.workload.name,
            elapsed,
            per_core_ipc,
            total_instructions,
            alerts_per_act: dram.alerts_per_act(),
            act_pki: acts as f64 * 1000.0 / total_instructions as f64,
            act_per_trefi_per_bank,
            row_hit_rate: self.mc.stats().row_hit_rate(),
            avg_read_latency_ns: self.mc.stats().read_latency.mean() / 4.0,
            power_counts: autorfm_power::EventCounts {
                acts,
                reads: dram.reads.get(),
                writes: dram.writes.get(),
                refs: dram.refs.get(),
                victim_refreshes: dram.victim_refreshes.get(),
            },
            max_damage: self.mc.device().audit().map(|a| a.max_damage()),
            dram,
            series: None,
            metrics: None,
        }
    }

    /// Serializes the complete machine state — clocks, workload streams,
    /// cores, LLC/MSHRs, controller queues, and the DRAM device with all
    /// tracker state — into a sealed [`KIND_SYSTEM`] container. A system
    /// rebuilt with [`System::restore`] under the same configuration continues
    /// bitwise identically to one that was never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if telemetry is enabled: a live CSV sink holds an
    /// open file handle that cannot be serialized, and silently dropping
    /// samples would corrupt the stream.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        if self.telemetry.is_some() {
            return Err(SnapError::corrupt(
                "cannot checkpoint a telemetry-enabled run (live sink state is not serializable)",
            ));
        }
        let mut w = Writer::new();
        w.put_u64(config_digest(&self.cfg));
        self.now.encode(&mut w);
        self.finish_at.encode(&mut w);
        w.put_usize(self.streams.len());
        for s in &self.streams {
            s.inner.save_state(&mut w);
        }
        // The uncore must be encoded before the cores: encoding it builds the
        // index that names each in-flight miss the cores wait on.
        let index = self.uncore.snapshot_state(&mut w);
        for core in &self.cores {
            core.snapshot_state(&mut w, &index);
        }
        self.mc.snapshot_state(&mut w);
        Ok(seal(KIND_SYSTEM, w.bytes()))
    }

    /// Rebuilds a mid-run machine from a [`System::snapshot`] taken under the
    /// same configuration. The restored machine is at the same step boundary
    /// and produces bitwise-identical results from there on.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the container is invalid, the snapshot was
    /// taken under a different configuration, `cfg` enables telemetry, or the
    /// payload is corrupt.
    pub fn restore(cfg: SimConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        let c = open(bytes)?;
        if c.kind != KIND_SYSTEM {
            return Err(SnapError::corrupt(format!(
                "expected a system snapshot, found kind {}",
                c.kind
            )));
        }
        if cfg.telemetry.is_some() {
            return Err(SnapError::corrupt(
                "cannot restore into a telemetry-enabled configuration",
            ));
        }
        let mut sys = Self::assemble(cfg)
            .map_err(|e| SnapError::corrupt(format!("invalid configuration: {e}")))?;
        let mut r = Reader::new(&c.payload);
        let digest = r.take_u64()?;
        if digest != config_digest(&sys.cfg) {
            return Err(SnapError::corrupt(
                "snapshot was taken under a different configuration",
            ));
        }
        sys.now = Cycle::decode(&mut r)?;
        let finish_at: Vec<Option<Cycle>> = Vec::decode(&mut r)?;
        if finish_at.len() != sys.cores.len() {
            return Err(SnapError::corrupt("finish-time count mismatch"));
        }
        sys.finish_at = finish_at;
        let n = r.take_usize()?;
        if n != sys.streams.len() {
            return Err(SnapError::corrupt("workload stream count mismatch"));
        }
        for s in &mut sys.streams {
            s.inner.load_state(&mut r)?;
        }
        let table = sys.uncore.restore_state(&mut r)?;
        for core in &mut sys.cores {
            core.restore_state(&mut r, &table)?;
        }
        sys.mc.restore_state(&mut r)?;
        if !r.is_empty() {
            return Err(SnapError::corrupt("trailing bytes after system state"));
        }
        Ok(sys)
    }

    /// Serializes only the warm state — the workload streams and the warmed
    /// LLC — into a sealed [`KIND_WARM`] container. Taken right after
    /// construction (before any [`System::run`] steps), this captures exactly
    /// what warmup produced, so N scenario runs over the same workload can
    /// fork from one shared warmup via [`System::new_from_warm`] instead of
    /// each re-simulating it.
    pub fn warm_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(warm_digest(&self.cfg));
        w.put_usize(self.streams.len());
        for s in &self.streams {
            s.inner.save_state(&mut w);
        }
        let _ = self.uncore.snapshot_state(&mut w);
        seal(KIND_WARM, w.bytes())
    }

    /// Builds the machine described by `cfg`, skipping warmup and adopting
    /// the warm state captured by [`System::warm_state`] instead. The result
    /// is bitwise identical to `System::new(cfg)` whenever the warm snapshot
    /// came from a configuration with the same [`warm_digest`] — workloads,
    /// core count, seed, warmup length, LLC shape, and geometry all agree —
    /// even if mitigation, mapping, or timings differ.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the container is invalid, `cfg` is invalid, or
    /// the warm digests disagree.
    pub fn new_from_warm(cfg: SimConfig, warm: &[u8]) -> Result<Self, SnapError> {
        let c = open(warm)?;
        if c.kind != KIND_WARM {
            return Err(SnapError::corrupt(format!(
                "expected a warm snapshot, found kind {}",
                c.kind
            )));
        }
        let mut sys = Self::assemble(cfg)
            .map_err(|e| SnapError::corrupt(format!("invalid configuration: {e}")))?;
        let mut r = Reader::new(&c.payload);
        let digest = r.take_u64()?;
        if digest != warm_digest(&sys.cfg) {
            return Err(SnapError::corrupt(
                "warm snapshot was taken under an incompatible configuration",
            ));
        }
        let n = r.take_usize()?;
        if n != sys.streams.len() {
            return Err(SnapError::corrupt("workload stream count mismatch"));
        }
        for s in &mut sys.streams {
            s.inner.load_state(&mut r)?;
        }
        // Warmup allocates no MSHRs, so the completion table is empty.
        let _ = sys.uncore.restore_state(&mut r)?;
        if !r.is_empty() {
            return Err(SnapError::corrupt("trailing bytes after warm state"));
        }
        Ok(sys)
    }

    /// In-memory warm fork: builds the machine described by `cfg`, adopting
    /// this just-constructed machine's warm state (workload stream positions,
    /// warmed LLC, uncore statistics) by direct clone instead of the
    /// [`System::warm_state`] / [`System::new_from_warm`] serialization round
    /// trip. Equivalent to that pair — the encode/decode is an identity on a
    /// quiescent machine — but skips pushing the multi-megabyte LLC image
    /// through the snapshot codec. This is how every batched lane is built:
    /// `autorfm_campaign::run_batch_fallible` keeps one never-stepped donor
    /// per work unit and forks each lane from it just before running it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` is invalid, the warm digests
    /// disagree, or this machine has already stepped (warm state is only
    /// well-defined straight after construction).
    pub fn fork_warm(&self, cfg: SimConfig) -> Result<Self, ConfigError> {
        if warm_digest(&cfg) != warm_digest(&self.cfg) {
            return Err(ConfigError::new(
                "warm fork requires a configuration with a matching warm digest",
            ));
        }
        if self.now != Cycle::ZERO {
            return Err(ConfigError::new(
                "warm fork donor must not have simulated any steps",
            ));
        }
        let mut sys = Self::assemble(cfg)?;
        for (dst, src) in sys.streams.iter_mut().zip(&self.streams) {
            dst.inner = src.inner.clone();
        }
        sys.uncore = self.uncore.fork_warm();
        Ok(sys)
    }

    /// The current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The memory controller (post-run inspection).
    pub fn mc(&self) -> &MemController<Box<dyn MemoryMap>> {
        &self.mc
    }

    /// The uncore (post-run inspection).
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }
}

/// Digest of every configuration field, used to guard [`System::restore`]
/// against snapshots taken under a different machine. Derived from the
/// canonical `Debug` rendering of [`SimConfig`], which covers every knob.
fn config_digest(cfg: &SimConfig) -> u64 {
    digest64(format!("{cfg:?}").as_bytes())
}

impl SimConfig {
    /// The cell identity of this configuration: `digest64` of
    /// [`MODEL_FINGERPRINT`] and the digest of every field (the rendering
    /// [`System::restore`] checks). Equal configurations share a key however
    /// they were built; any changed field, or a changed model, is a new key.
    pub fn key(&self) -> u64 {
        let mut w = Writer::new();
        w.put_u64(MODEL_FINGERPRINT);
        w.put_u64(config_digest(self));
        digest64(w.bytes())
    }
}

/// Digest of the configuration fields that determine the post-warmup state
/// (workload streams + warmed LLC): per-core workloads, core count, seed,
/// warmup length, LLC/MSHR shape, and the geometry's line-address fold. Two
/// configurations with equal warm digests share warm state byte-for-byte, so
/// scenario sweeps can fork many runs from one warmup.
pub fn warm_digest(cfg: &SimConfig) -> u64 {
    let mut w = Writer::new();
    w.put_u8(cfg.num_cores);
    w.put_u64(cfg.seed);
    w.put_u64(cfg.warmup_mem_ops_per_core);
    w.put_u64(cfg.geometry.total_lines() - 1);
    w.put_str(&format!("{:?}", cfg.uncore));
    for i in 0..cfg.num_cores {
        w.put_str(cfg.workload_of(i).name);
    }
    digest64(w.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scenario;
    use autorfm_sim_core::Geometry;
    use autorfm_workloads::WorkloadSpec;

    fn quick(scenario: Scenario, name: &str) -> SimResult {
        let spec = WorkloadSpec::by_name(name).unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(scenario)
            .cores(2)
            .instructions(15_000)
            .build()
            .unwrap();
        System::new(cfg).unwrap().run()
    }

    #[test]
    fn baseline_run_produces_sane_metrics() {
        let r = quick(
            Scenario::Baseline {
                mapping: MappingKind::Zen,
            },
            "bwaves",
        );
        assert_eq!(r.per_core_ipc.len(), 2);
        assert!(r.perf() > 0.1, "IPC too low: {}", r.perf());
        assert!(
            r.act_pki > 5.0,
            "streaming workload must activate: {}",
            r.act_pki
        );
        assert!(r.dram.acts.get() > 100);
        assert_eq!(r.dram.alerts.get(), 0, "no mitigation, no alerts");
    }

    #[test]
    fn autorfm_runs_and_mitigates() {
        let r = quick(Scenario::AutoRfm { th: 4 }, "bwaves");
        assert!(r.dram.mitigations.get() > 0);
        // Roughly one mitigation per 4 ACTs.
        let ratio = r.dram.acts.get() as f64 / r.dram.mitigations.get() as f64;
        assert!((3.0..=6.0).contains(&ratio), "acts per mitigation: {ratio}");
    }

    #[test]
    fn rfm_slows_down_relative_to_baseline() {
        let base = quick(
            Scenario::Baseline {
                mapping: MappingKind::Zen,
            },
            "fotonik3d",
        );
        let rfm = quick(Scenario::Rfm { th: 4 }, "fotonik3d");
        let slowdown = rfm.slowdown_vs(&base);
        assert!(
            slowdown > 0.05,
            "RFM-4 must hurt a memory-intensive workload: {slowdown}"
        );
        assert!(rfm.dram.rfms.get() > 0);
    }

    #[test]
    fn autorfm_beats_rfm_at_threshold_4() {
        let base = quick(
            Scenario::Baseline {
                mapping: MappingKind::Zen,
            },
            "fotonik3d",
        );
        let rfm = quick(Scenario::Rfm { th: 4 }, "fotonik3d");
        let auto = quick(Scenario::AutoRfm { th: 4 }, "fotonik3d");
        let s_rfm = rfm.slowdown_vs(&base);
        let s_auto = auto.slowdown_vs(&base);
        assert!(
            s_auto < s_rfm,
            "AutoRFM ({s_auto:.3}) must beat RFM ({s_rfm:.3}) at TH=4"
        );
    }

    #[test]
    fn small_geometry_wraps_addresses() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let mut cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(5_000)
            .build()
            .unwrap();
        cfg.geometry = Geometry::small();
        let r = System::new(cfg).unwrap().run();
        assert!(r.dram.acts.get() > 0);
    }

    #[test]
    fn config_key_is_the_whole_config_under_the_model_fingerprint() {
        use autorfm_memctrl::{RaaRefCredit, RetryPolicy};
        use autorfm_sim_core::TimingOverride;
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let cell = |scenario| {
            SimConfig::builder(spec)
                .scenario(scenario)
                .cores(2)
                .instructions(5_000)
                .build()
                .unwrap()
        };
        let rfm8 = cell(Scenario::Rfm { th: 8 });
        let with_t_rfm = |ns| {
            let mut cfg = rfm8.clone();
            cfg.timings = cfg.timings.with_override(TimingOverride {
                t_rfm: Some(Cycle::from_ns(ns)),
                ..TimingOverride::default()
            });
            cfg
        };
        // One flipped timing default or controller knob is another cell.
        assert_ne!(with_t_rfm(410).key(), rfm8.key());
        let mut half_credit = rfm8.clone();
        half_credit.mc.raa_ref_credit = RaaRefCredit::Half;
        assert_ne!(half_credit.key(), rfm8.key());
        // Variants that restate a scenario's own values are that scenario.
        assert_eq!(with_t_rfm(205).key(), rfm8.key());
        let zen = cell(Scenario::AutoRfmZen { th: 4 });
        let mut whole_bank = zen.clone();
        whole_bank.mc.retry = RetryPolicy::WholeBank;
        assert_eq!(whole_bank.key(), zen.key());
        // The key is salted with the model fingerprint: the same
        // configuration under another model is another key.
        let salted = |fingerprint: u64| {
            let mut w = Writer::new();
            w.put_u64(fingerprint);
            w.put_u64(config_digest(&rfm8));
            digest64(w.bytes())
        };
        assert_eq!(salted(MODEL_FINGERPRINT), rfm8.key());
        assert_ne!(salted(MODEL_FINGERPRINT ^ 1), rfm8.key());
    }

    #[test]
    fn telemetry_records_series_without_perturbing_results() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(15_000)
            .build()
            .unwrap();
        let plain = System::new(cfg.clone()).unwrap().run();
        let traced_cfg = SimConfig {
            telemetry: Some(crate::TelemetryConfig::default()),
            ..cfg
        };
        let traced = System::new(traced_cfg).unwrap().run();
        // The sampler must not perturb the simulation.
        assert_eq!(plain.elapsed, traced.elapsed);
        assert_eq!(plain.dram.acts.get(), traced.dram.acts.get());
        assert_eq!(plain.per_core_ipc, traced.per_core_ipc);
        assert!(plain.series.is_none() && plain.metrics.is_none());
        let series = traced.series.as_ref().unwrap();
        assert!(!series.samples.is_empty());
        assert_eq!(series.samples[0].ipc.len(), 2);
        // Epoch deltas must tally back to the cumulative totals.
        let acts: u64 = series.samples.iter().map(|s| s.acts).sum();
        assert_eq!(acts, traced.dram.acts.get());
        // The final registry carries all three layers' exports.
        let reg = traced.metrics.as_ref().unwrap();
        assert!(reg.get("dram_acts", &[]).is_some());
        assert!(reg.get("mc_row_hits", &[]).is_some());
        assert!(reg.get("llc_load_misses", &[]).is_some());
        assert_eq!(
            reg.get("perf", &[]).unwrap().scalar(),
            traced.perf(),
            "headline perf must round-trip into the registry"
        );
    }

    /// The PR-10 leap batching (epoch boundaries no longer clamp event-kernel
    /// wakes; crossed boundaries flush inside `leap`) must keep the retained
    /// telemetry series bitwise identical between kernels — every sample
    /// boundary, delta, and queue-depth gauge.
    #[test]
    fn telemetry_series_identical_across_kernels() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(15_000)
            .telemetry(crate::TelemetryConfig::default())
            .build()
            .unwrap();
        let stepped = System::new(cfg.clone())
            .unwrap()
            .run_with(KernelKind::Stepped);
        let event = System::new(cfg).unwrap().run_with(KernelKind::Event);
        assert_eq!(stepped.elapsed, event.elapsed);
        let s = stepped.series.as_ref().unwrap();
        let e = event.series.as_ref().unwrap();
        assert_eq!(
            s.samples.len(),
            e.samples.len(),
            "kernels retained different sample counts"
        );
        for (i, (a, b)) in s.samples.iter().zip(&e.samples).enumerate() {
            assert_eq!(a, b, "telemetry sample {i} diverged between kernels");
        }
    }

    #[test]
    fn warm_fork_is_bitwise_identical_to_cold_construction() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(10_000)
            .build()
            .unwrap();
        let warm = System::new(cfg.clone()).unwrap().warm_state();
        let mut cold = System::new(cfg.clone()).unwrap();
        let mut forked = System::new_from_warm(cfg, &warm).unwrap();
        assert_eq!(
            cold.snapshot().unwrap(),
            forked.snapshot().unwrap(),
            "forked machine must start bitwise identical to a cold one"
        );
        let a = cold.run();
        let b = forked.run();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.per_core_ipc, b.per_core_ipc);
        assert_eq!(a.dram.acts.get(), b.dram.acts.get());
        assert_eq!(
            cold.snapshot().unwrap(),
            forked.snapshot().unwrap(),
            "forked machine must finish bitwise identical to a cold one"
        );
    }

    #[test]
    fn warm_state_is_shared_across_scenarios() {
        // Scenarios differ only in mitigation, so their warm digests agree and
        // one warmup serves both.
        let spec = WorkloadSpec::by_name("fotonik3d").unwrap();
        let base_cfg = SimConfig::builder(spec)
            .scenario(Scenario::Baseline {
                mapping: MappingKind::Zen,
            })
            .cores(2)
            .instructions(8_000)
            .build()
            .unwrap();
        let rfm_cfg = SimConfig::builder(spec)
            .scenario(Scenario::Rfm { th: 4 })
            .cores(2)
            .instructions(8_000)
            .build()
            .unwrap();
        assert_eq!(warm_digest(&base_cfg), warm_digest(&rfm_cfg));
        let warm = System::new(base_cfg).unwrap().warm_state();
        let cold = System::new(rfm_cfg.clone()).unwrap().run();
        let forked = System::new_from_warm(rfm_cfg, &warm).unwrap().run();
        assert_eq!(cold.elapsed, forked.elapsed);
        assert_eq!(cold.per_core_ipc, forked.per_core_ipc);
    }

    #[test]
    fn midrun_checkpoint_restore_matches_uninterrupted_run() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(15_000)
            .audit(true)
            .trace_capacity(128)
            .build()
            .unwrap();
        let mut uninterrupted = System::new(cfg.clone()).unwrap();
        let full = uninterrupted.run();

        let mut victim = System::new(cfg.clone()).unwrap();
        assert!(
            victim.run_steps(2_000).is_none(),
            "checkpoint must land mid-run"
        );
        let snap = victim.snapshot().unwrap();
        drop(victim); // the "killed" run
        let mut restored = System::restore(cfg, &snap).unwrap();
        let resumed = restored.run();

        assert_eq!(full.elapsed, resumed.elapsed);
        assert_eq!(full.per_core_ipc, resumed.per_core_ipc);
        assert_eq!(full.dram.acts.get(), resumed.dram.acts.get());
        assert_eq!(full.max_damage, resumed.max_damage);
        assert_eq!(
            uninterrupted.snapshot().unwrap(),
            restored.snapshot().unwrap(),
            "final machine state must be bitwise identical"
        );
    }

    #[test]
    fn snapshot_guards_reject_mismatches() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let cfg = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(5_000)
            .build()
            .unwrap();
        let mut sys = System::new(cfg.clone()).unwrap();
        sys.run_steps(100);
        let snap = sys.snapshot().unwrap();
        // Different configuration (seed) is refused.
        let other = SimConfig {
            seed: 7,
            ..cfg.clone()
        };
        assert!(System::restore(other, &snap).is_err());
        // A warm container is not a system snapshot and vice versa.
        let warm = System::new(cfg.clone()).unwrap().warm_state();
        assert!(System::restore(cfg.clone(), &warm).is_err());
        assert!(System::new_from_warm(cfg.clone(), &snap).is_err());
        // Telemetry-enabled machines refuse to checkpoint.
        let traced = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(5_000)
            .telemetry(crate::TelemetryConfig::default())
            .build()
            .unwrap();
        let sys = System::new(traced).unwrap();
        assert!(sys.snapshot().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Scenario::AutoRfm { th: 4 }, "mcf");
        let b = quick(Scenario::AutoRfm { th: 4 }, "mcf");
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.dram.acts.get(), b.dram.acts.get());
        assert_eq!(a.dram.alerts.get(), b.dram.alerts.get());
    }
}

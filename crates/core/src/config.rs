//! Simulation configuration.

use crate::experiments::Scenario;
use autorfm_cpu::{CoreParams, UncoreParams};
use autorfm_dram::{DeviceMitigation, RefreshPolicy};
use autorfm_memctrl::McConfig;
use autorfm_sim_core::{ConfigError, Cycle, DramTimings, Geometry};
use autorfm_workloads::WorkloadSpec;
use std::path::PathBuf;

/// Which physical-address mapping the memory controller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// AMD-Zen-like baseline mapping (Table IV).
    Zen,
    /// Rubix randomized mapping with the given cipher key (Section IV-F).
    Rubix {
        /// Key for the line-address PRP.
        key: u64,
    },
    /// Row-major mapping with no interleaving (pathological ablation).
    Linear,
}

impl MappingKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            MappingKind::Zen => "zen",
            MappingKind::Rubix { .. } => "rubix",
            MappingKind::Linear => "linear",
        }
    }
}

/// Epoch time-series telemetry configuration (see `autorfm_telemetry`).
///
/// Telemetry is off by default ([`SimConfig::telemetry`] is `None`), and the
/// simulation loop then pays only a single branch per step.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Sampling window length; `None` means one tREFI
    /// ([`SimConfig::timings`]`.t_refi`), the paper's natural unit of time.
    pub epoch: Option<Cycle>,
    /// Cap on retained windows; `None` means
    /// [`autorfm_telemetry::DEFAULT_MAX_SAMPLES`].
    pub max_samples: Option<usize>,
    /// Stream samples as CSV to this file while the run progresses (in
    /// addition to retaining the series in the result).
    pub csv_path: Option<PathBuf>,
}

/// Full system configuration for one simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The workload every core runs (rate mode), unless [`Self::mix`] is set.
    pub workload: &'static WorkloadSpec,
    /// Heterogeneous multi-programmed mix: core `i` runs `mix[i % mix.len()]`.
    /// Overrides [`Self::workload`] when non-empty. (The paper evaluates rate
    /// mode only; mixes are an extension.)
    pub mix: Vec<&'static WorkloadSpec>,
    /// Number of cores (8 in the paper).
    pub num_cores: u8,
    /// Instructions each core must retire before the run ends.
    pub instructions_per_core: u64,
    /// Memory mapping policy.
    pub mapping: MappingKind,
    /// In-DRAM mitigation mode.
    pub mitigation: DeviceMitigation,
    /// DRAM timings.
    pub timings: DramTimings,
    /// DRAM organization.
    pub geometry: Geometry,
    /// Memory-controller knobs.
    pub mc: McConfig,
    /// Core microarchitecture.
    pub core_params: CoreParams,
    /// LLC/MSHR parameters.
    pub uncore: UncoreParams,
    /// Root RNG seed (trackers, workloads).
    pub seed: u64,
    /// Enable the Rowhammer damage oracle (slower; security experiments).
    pub audit: bool,
    /// Memory operations per core fast-forwarded through the LLC before the
    /// timed phase, so measurements see steady-state hit rates and writeback
    /// traffic (the paper uses 1B-instruction slices, fully warmed).
    pub warmup_mem_ops_per_core: u64,
    /// DRAM command-trace capacity (0 disables; see
    /// [`autorfm_dram::TimingChecker`] for post-hoc JEDEC verification).
    pub trace_capacity: usize,
    /// Refresh scheduling policy (all-bank REFab is the paper's model).
    pub refresh: RefreshPolicy,
    /// Epoch time-series telemetry (`None` disables sampling entirely and
    /// leaves every result bitwise identical to a build without telemetry).
    pub telemetry: Option<TelemetryConfig>,
}

/// Typed, validating builder for [`SimConfig`] — the one supported way to
/// construct a configuration.
///
/// Obtained from [`SimConfig::builder`], which starts from the paper's
/// Table-IV baseline; every setter overrides one knob, and [`build`] runs
/// [`SimConfig::validate`] so an impossible configuration is rejected at
/// construction time instead of deep inside [`crate::System::new`].
///
/// ```
/// use autorfm::{experiments::Scenario, SimConfig};
/// use autorfm_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("mcf").unwrap();
/// let cfg = SimConfig::builder(spec)
///     .scenario(Scenario::AutoRfm { th: 4 })
///     .cores(2)
///     .instructions(10_000)
///     .seed(7)
///     .build()?;
/// assert_eq!(cfg.num_cores, 2);
/// # Ok::<(), autorfm_sim_core::ConfigError>(())
/// ```
///
/// [`build`]: SimConfigBuilder::build
#[must_use = "a SimConfigBuilder does nothing until .build() is called"]
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Applies one of the paper's named scenarios (mitigation + mapping +
    /// timing overrides) on top of the current state. Later setters can
    /// still override individual knobs the scenario chose.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.cfg = scenario.apply(self.cfg);
        self
    }

    /// Sets the core count (8 in the paper).
    pub fn cores(mut self, n: u8) -> Self {
        self.cfg.num_cores = n;
        self
    }

    /// Sets the per-core retired-instruction budget.
    pub fn instructions(mut self, n: u64) -> Self {
        self.cfg.instructions_per_core = n;
        self
    }

    /// Sets the root RNG seed (trackers, workloads).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the physical-address mapping policy.
    pub fn mapping(mut self, mapping: MappingKind) -> Self {
        self.cfg.mapping = mapping;
        self
    }

    /// Sets the in-DRAM mitigation mode.
    pub fn mitigation(mut self, mitigation: DeviceMitigation) -> Self {
        self.cfg.mitigation = mitigation;
        self
    }

    /// Sets the DRAM timing parameters.
    pub fn timings(mut self, timings: DramTimings) -> Self {
        self.cfg.timings = timings;
        self
    }

    /// Sets the DRAM organization.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.cfg.geometry = geometry;
        self
    }

    /// Sets the memory-controller knobs.
    pub fn mc(mut self, mc: McConfig) -> Self {
        self.cfg.mc = mc;
        self
    }

    /// Sets the refresh scheduling policy.
    pub fn refresh(mut self, refresh: RefreshPolicy) -> Self {
        self.cfg.refresh = refresh;
        self
    }

    /// Enables (or disables) the Rowhammer damage oracle.
    pub fn audit(mut self, on: bool) -> Self {
        self.cfg.audit = on;
        self
    }

    /// Sets the warm-up memory operations fast-forwarded per core before the
    /// timed phase.
    pub fn warmup_mem_ops(mut self, n: u64) -> Self {
        self.cfg.warmup_mem_ops_per_core = n;
        self
    }

    /// Enables DRAM command tracing with the given capacity (0 disables).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.cfg.trace_capacity = capacity;
        self
    }

    /// Runs a heterogeneous mix instead of rate mode: core `i` runs
    /// `mix[i % mix.len()]`.
    pub fn mix(mut self, mix: Vec<&'static WorkloadSpec>) -> Self {
        self.cfg.mix = mix;
        self
    }

    /// Enables epoch telemetry sampling.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the assembled configuration fails
    /// [`SimConfig::validate`].
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl SimConfig {
    /// Starts a [`SimConfigBuilder`] from the paper's Table-IV baseline
    /// running `workload` — the one supported way to construct a
    /// [`SimConfig`].
    pub fn builder(workload: &'static WorkloadSpec) -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: Self::baseline(workload),
        }
    }

    /// The paper's baseline system (Table IV) running `workload` with no
    /// Rowhammer mitigation, Zen mapping.
    pub fn baseline(workload: &'static WorkloadSpec) -> Self {
        SimConfig {
            workload,
            mix: Vec::new(),
            num_cores: 8,
            instructions_per_core: 200_000,
            mapping: MappingKind::Zen,
            mitigation: DeviceMitigation::None,
            timings: DramTimings::ddr5(),
            geometry: Geometry::paper_baseline(),
            mc: McConfig::default(),
            core_params: CoreParams::default(),
            uncore: UncoreParams::default(),
            seed: 42,
            audit: false,
            warmup_mem_ops_per_core: 64_000,
            trace_capacity: 0,
            refresh: RefreshPolicy::AllBank,
            telemetry: None,
        }
    }

    /// A configuration for one of the paper's named scenarios.
    pub fn scenario(workload: &'static WorkloadSpec, scenario: Scenario) -> Self {
        scenario.apply(Self::baseline(workload))
    }

    /// The workload assigned to `core`.
    pub fn workload_of(&self, core: u8) -> &'static WorkloadSpec {
        if self.mix.is_empty() {
            self.workload
        } else {
            self.mix[core as usize % self.mix.len()]
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any component configuration is invalid or
    /// `num_cores == 0` / `instructions_per_core == 0`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::new("need at least one core"));
        }
        if self.instructions_per_core == 0 {
            return Err(ConfigError::new("instruction budget must be positive"));
        }
        if let Some(t) = &self.telemetry {
            if t.epoch == Some(Cycle::ZERO) {
                return Err(ConfigError::new("telemetry epoch must be positive"));
            }
            if t.max_samples == Some(0) {
                return Err(ConfigError::new(
                    "telemetry must retain at least one sample",
                ));
            }
        }
        self.geometry.validate()?;
        self.timings.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table4() {
        let spec = WorkloadSpec::by_name("bwaves").unwrap();
        let cfg = SimConfig::baseline(spec);
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.geometry.num_banks, 64);
        assert_eq!(cfg.mapping, MappingKind::Zen);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let cfg = SimConfig::builder(spec)
            .cores(2)
            .instructions(1000)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.num_cores, 2);
        assert_eq!(cfg.instructions_per_core, 1000);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn mix_assignment_round_robins() {
        let a = WorkloadSpec::by_name("bwaves").unwrap();
        let b = WorkloadSpec::by_name("mcf").unwrap();
        let cfg = SimConfig::builder(a).mix(vec![a, b]).build().unwrap();
        assert_eq!(cfg.workload_of(0).name, "bwaves");
        assert_eq!(cfg.workload_of(1).name, "mcf");
        assert_eq!(cfg.workload_of(2).name, "bwaves");
        let rate = SimConfig::baseline(b);
        assert_eq!(rate.workload_of(5).name, "mcf");
    }

    #[test]
    fn builder_is_equivalent_to_field_assignment() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let built = SimConfig::builder(spec)
            .scenario(Scenario::AutoRfm { th: 4 })
            .cores(2)
            .instructions(10_000)
            .seed(42)
            .build()
            .unwrap();
        let assigned = SimConfig {
            num_cores: 2,
            instructions_per_core: 10_000,
            seed: 42,
            ..SimConfig::scenario(spec, Scenario::AutoRfm { th: 4 })
        };
        // The config digest is derived from the Debug form; the builder must
        // not perturb it (snapshot compatibility).
        assert_eq!(format!("{built:?}"), format!("{assigned:?}"));
    }

    #[test]
    fn builder_rejects_invalid() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        assert!(SimConfig::builder(spec).cores(0).build().is_err());
        assert!(SimConfig::builder(spec).instructions(0).build().is_err());
        let bad_telemetry = TelemetryConfig {
            epoch: Some(Cycle::ZERO),
            ..TelemetryConfig::default()
        };
        assert!(SimConfig::builder(spec)
            .telemetry(bad_telemetry)
            .build()
            .is_err());
    }

    #[test]
    fn mapping_names() {
        assert_eq!(MappingKind::Zen.name(), "zen");
        assert_eq!(MappingKind::Rubix { key: 1 }.name(), "rubix");
        assert_eq!(MappingKind::Linear.name(), "linear");
    }
}

//! Simulation results and derived metrics.

use autorfm_dram::DramStats;
use autorfm_power::EventCounts;
use autorfm_sim_core::Cycle;
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use autorfm_telemetry::{EpochSeries, Registry};
use autorfm_workloads::WorkloadSpec;

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub workload: &'static str,
    /// Wall-clock of the run (cycle when the last core finished).
    pub elapsed: Cycle,
    /// Per-core IPC (instructions / CPU cycles until that core finished).
    pub per_core_ipc: Vec<f64>,
    /// Total instructions retired across cores.
    pub total_instructions: u64,
    /// DRAM device statistics.
    pub dram: DramStats,
    /// ALERTs per ACT (Fig 8b metric).
    pub alerts_per_act: f64,
    /// Activations per kilo-instruction (Table V metric).
    pub act_pki: f64,
    /// Activations per tREFI per bank (Table V metric).
    pub act_per_trefi_per_bank: f64,
    /// Row-buffer hit rate at the controller.
    pub row_hit_rate: f64,
    /// Mean read latency in nanoseconds.
    pub avg_read_latency_ns: f64,
    /// Event counts for the power model.
    pub power_counts: EventCounts,
    /// Worst Rowhammer damage observed (if the audit was enabled).
    pub max_damage: Option<u64>,
    /// Epoch time series (if telemetry was enabled; see
    /// [`crate::TelemetryConfig`]).
    pub series: Option<EpochSeries>,
    /// Full final-metric registry — headline metrics plus every DRAM,
    /// controller, and uncore counter (if telemetry was enabled).
    pub metrics: Option<Registry>,
}

impl SimResult {
    /// System performance: the sum of per-core IPCs (proportional to weighted
    /// speedup in rate mode, where every core runs the same benchmark).
    pub fn perf(&self) -> f64 {
        self.per_core_ipc.iter().sum()
    }

    /// Slowdown of `self` relative to `baseline`:
    /// `1 − perf(self) / perf(baseline)`. Negative values are speedups.
    pub fn slowdown_vs(&self, baseline: &SimResult) -> f64 {
        1.0 - self.perf() / baseline.perf()
    }

    /// Exports the headline metrics plus every DRAM counter into a fresh
    /// telemetry registry. Returns [`Self::metrics`] (which additionally
    /// carries controller and uncore counters) when the run recorded one.
    pub fn to_registry(&self) -> Registry {
        if let Some(reg) = &self.metrics {
            return reg.clone();
        }
        let mut reg = Registry::new();
        reg.gauge("perf", &[], self.perf());
        reg.counter("instructions", &[], self.total_instructions);
        reg.counter("elapsed_ns", &[], self.elapsed.as_ns());
        reg.counter("elapsed_cycles", &[], self.elapsed.raw());
        reg.gauge("act_pki", &[], self.act_pki);
        reg.gauge("act_per_trefi_per_bank", &[], self.act_per_trefi_per_bank);
        reg.gauge("row_hit_rate", &[], self.row_hit_rate);
        reg.gauge("avg_read_latency_ns", &[], self.avg_read_latency_ns);
        reg.gauge("alerts_per_act", &[], self.alerts_per_act);
        for (i, ipc) in self.per_core_ipc.iter().enumerate() {
            let core = i.to_string();
            reg.gauge("ipc", &[("core", &core)], *ipc);
        }
        if let Some(d) = self.max_damage {
            reg.counter("max_row_damage", &[], d);
        }
        self.dram.export(&mut reg, &[]);
        reg
    }

    /// A multi-line human-readable summary (used by the CLI and examples).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "workload          : {}", self.workload);
        let _ = writeln!(out, "performance       : {:.3} aggregate IPC", self.perf());
        let _ = writeln!(out, "simulated time    : {} ns", self.elapsed.as_ns());
        let _ = writeln!(out, "activations       : {}", self.dram.acts.get());
        let _ = writeln!(out, "ACT-PKI           : {:.1}", self.act_pki);
        let _ = writeln!(
            out,
            "ACT/tREFI/bank    : {:.1}",
            self.act_per_trefi_per_bank
        );
        let _ = writeln!(out, "row-hit rate      : {:.3}", self.row_hit_rate);
        let _ = writeln!(
            out,
            "read latency      : {:.0} ns",
            self.avg_read_latency_ns
        );
        let _ = writeln!(out, "mitigations       : {}", self.dram.mitigations.get());
        let _ = writeln!(
            out,
            "victim refreshes  : {}",
            self.dram.victim_refreshes.get()
        );
        let _ = writeln!(
            out,
            "ALERTs per ACT    : {:.3}%",
            self.alerts_per_act * 100.0
        );
        if let Some(d) = self.max_damage {
            let _ = writeln!(out, "max row damage    : {d}");
        }
        out
    }
}

/// Stored results carry every numeric field, but the optional telemetry
/// attachments ([`SimResult::series`] / [`SimResult::metrics`]) are dropped:
/// they exist only on telemetry-enabled runs, which the harness never
/// persists (and whose machines refuse checkpointing; see `System::snapshot`).
impl Snapshot for SimResult {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self.workload);
        self.elapsed.encode(w);
        self.per_core_ipc.encode(w);
        w.put_u64(self.total_instructions);
        self.dram.encode(w);
        w.put_f64(self.alerts_per_act);
        w.put_f64(self.act_pki);
        w.put_f64(self.act_per_trefi_per_bank);
        w.put_f64(self.row_hit_rate);
        w.put_f64(self.avg_read_latency_ns);
        self.power_counts.encode(w);
        self.max_damage.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let name = r.take_str()?;
        // Results name workloads with `&'static str`; recover the static name
        // from the registry. Mix labels and other synthetic names fall back to
        // a one-time leak (results are decoded a handful of times per run).
        let workload = match WorkloadSpec::by_name(&name) {
            Some(spec) => spec.name,
            None => &*Box::leak(name.into_boxed_str()),
        };
        Ok(SimResult {
            workload,
            elapsed: Cycle::decode(r)?,
            per_core_ipc: Vec::decode(r)?,
            total_instructions: r.take_u64()?,
            dram: DramStats::decode(r)?,
            alerts_per_act: r.take_f64()?,
            act_pki: r.take_f64()?,
            act_per_trefi_per_bank: r.take_f64()?,
            row_hit_rate: r.take_f64()?,
            avg_read_latency_ns: r.take_f64()?,
            power_counts: EventCounts::decode(r)?,
            max_damage: Option::decode(r)?,
            series: None,
            metrics: None,
        })
    }
}

/// Arithmetic-mean slowdown over per-workload `(baseline, treated)` pairs —
/// how the paper aggregates its slowdown figures: the slowdowns summed in
/// pair order, then divided by the pair count (0 for no pairs).
pub fn mean_slowdown<'a>(
    pairs: impl ExactSizeIterator<Item = (&'a SimResult, &'a SimResult)>,
) -> f64 {
    let n = pairs.len();
    if n == 0 {
        return 0.0;
    }
    pairs.map(|(b, t)| t.slowdown_vs(b)).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ipcs: &[f64]) -> SimResult {
        SimResult {
            workload: "test",
            elapsed: Cycle::from_us(1),
            per_core_ipc: ipcs.to_vec(),
            total_instructions: 1000,
            dram: DramStats::new(),
            alerts_per_act: 0.0,
            act_pki: 0.0,
            act_per_trefi_per_bank: 0.0,
            row_hit_rate: 0.0,
            avg_read_latency_ns: 0.0,
            power_counts: EventCounts::default(),
            max_damage: None,
            series: None,
            metrics: None,
        }
    }

    #[test]
    fn perf_is_sum_of_ipcs() {
        assert_eq!(result(&[1.0, 2.0, 3.0]).perf(), 6.0);
    }

    #[test]
    fn slowdown_math() {
        let base = result(&[2.0, 2.0]);
        let slower = result(&[1.0, 2.0]);
        assert!((slower.slowdown_vs(&base) - 0.25).abs() < 1e-12);
        let faster = result(&[3.0, 2.0]);
        assert!(
            faster.slowdown_vs(&base) < 0.0,
            "speedups are negative slowdowns"
        );
    }

    #[test]
    fn mean_slowdown_aggregates() {
        let pairs = [
            (result(&[2.0]), result(&[1.0])), // 50%
            (result(&[2.0]), result(&[2.0])), // 0%
        ];
        assert!((mean_slowdown(pairs.iter().map(|(b, t)| (b, t))) - 0.25).abs() < 1e-12);
        assert_eq!(mean_slowdown(std::iter::empty()), 0.0);
    }
}

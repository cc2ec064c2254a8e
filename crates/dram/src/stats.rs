//! Device-level event statistics.

use autorfm_sim_core::{Counter, Histogram};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};
use autorfm_telemetry::{Labels, Registry};

/// Counts of every DRAM event class, used by performance reporting, the power
/// model, and the experiment harness.
#[derive(Debug, Clone)]
pub struct DramStats {
    /// Successful demand activations.
    pub acts: Counter,
    /// ACTs declined with an ALERT (SAUM conflict, AutoRFM).
    pub alerts: Counter,
    /// Column reads.
    pub reads: Counter,
    /// Column writes.
    pub writes: Counter,
    /// Precharges.
    pub precharges: Counter,
    /// REF commands (counted per bank).
    pub refs: Counter,
    /// Explicit RFM commands (RFM mode).
    pub rfms: Counter,
    /// ABO mitigation events (PRAC mode).
    pub abo_events: Counter,
    /// Mitigations performed (any mode).
    pub mitigations: Counter,
    /// Total victim refreshes issued.
    pub victim_refreshes: Counter,
    /// Mitigation windows where the tracker had no candidate.
    pub empty_mitigations: Counter,
    /// Histogram of transitive mitigation levels (bin width 1).
    pub mitigation_levels: Histogram,
    /// Histogram of victim-refresh distances (bin width 1).
    pub victim_distances: Histogram,
    /// Mitigations per subarray index (bin width 1; SALP-style visibility).
    pub mitigations_by_subarray: Histogram,
    /// ALERTed conflicts per subarray index (bin width 1).
    pub conflicts_by_subarray: Histogram,
}

impl DramStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        DramStats {
            acts: Counter::new(),
            alerts: Counter::new(),
            reads: Counter::new(),
            writes: Counter::new(),
            precharges: Counter::new(),
            refs: Counter::new(),
            rfms: Counter::new(),
            abo_events: Counter::new(),
            mitigations: Counter::new(),
            victim_refreshes: Counter::new(),
            empty_mitigations: Counter::new(),
            mitigation_levels: Histogram::new(1, 16),
            victim_distances: Histogram::new(1, 20),
            mitigations_by_subarray: Histogram::new(1, 256),
            conflicts_by_subarray: Histogram::new(1, 256),
        }
    }

    /// Exports every device counter and histogram into `reg` under
    /// `dram_*` names with the given labels.
    pub fn export(&self, reg: &mut Registry, labels: Labels<'_>) {
        reg.record_counter("dram_acts", labels, &self.acts);
        reg.record_counter("dram_alerts", labels, &self.alerts);
        reg.record_counter("dram_reads", labels, &self.reads);
        reg.record_counter("dram_writes", labels, &self.writes);
        reg.record_counter("dram_precharges", labels, &self.precharges);
        reg.record_counter("dram_refs", labels, &self.refs);
        reg.record_counter("dram_rfms", labels, &self.rfms);
        reg.record_counter("dram_abo_events", labels, &self.abo_events);
        reg.record_counter("dram_mitigations", labels, &self.mitigations);
        reg.record_counter("dram_victim_refreshes", labels, &self.victim_refreshes);
        reg.record_counter("dram_empty_mitigations", labels, &self.empty_mitigations);
        reg.histogram("dram_mitigation_levels", labels, &self.mitigation_levels);
        reg.histogram("dram_victim_distances", labels, &self.victim_distances);
        reg.histogram(
            "dram_mitigations_by_subarray",
            labels,
            &self.mitigations_by_subarray,
        );
        reg.histogram(
            "dram_conflicts_by_subarray",
            labels,
            &self.conflicts_by_subarray,
        );
        reg.gauge("dram_alerts_per_act", labels, self.alerts_per_act());
    }

    /// ALERTs per successful ACT — the paper's Fig 8(b) metric.
    pub fn alerts_per_act(&self) -> f64 {
        if self.acts.get() == 0 {
            0.0
        } else {
            self.alerts.get() as f64 / self.acts.get() as f64
        }
    }
}

impl Snapshot for DramStats {
    fn encode(&self, w: &mut Writer) {
        self.acts.encode(w);
        self.alerts.encode(w);
        self.reads.encode(w);
        self.writes.encode(w);
        self.precharges.encode(w);
        self.refs.encode(w);
        self.rfms.encode(w);
        self.abo_events.encode(w);
        self.mitigations.encode(w);
        self.victim_refreshes.encode(w);
        self.empty_mitigations.encode(w);
        self.mitigation_levels.encode(w);
        self.victim_distances.encode(w);
        self.mitigations_by_subarray.encode(w);
        self.conflicts_by_subarray.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(DramStats {
            acts: Counter::decode(r)?,
            alerts: Counter::decode(r)?,
            reads: Counter::decode(r)?,
            writes: Counter::decode(r)?,
            precharges: Counter::decode(r)?,
            refs: Counter::decode(r)?,
            rfms: Counter::decode(r)?,
            abo_events: Counter::decode(r)?,
            mitigations: Counter::decode(r)?,
            victim_refreshes: Counter::decode(r)?,
            empty_mitigations: Counter::decode(r)?,
            mitigation_levels: Histogram::decode(r)?,
            victim_distances: Histogram::decode(r)?,
            mitigations_by_subarray: Histogram::decode(r)?,
            conflicts_by_subarray: Histogram::decode(r)?,
        })
    }
}

impl Default for DramStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alerts_per_act_handles_zero() {
        let mut s = DramStats::new();
        assert_eq!(s.alerts_per_act(), 0.0);
        s.acts.add(1000);
        s.alerts.add(2);
        assert_eq!(s.alerts_per_act(), 0.002);
    }
}

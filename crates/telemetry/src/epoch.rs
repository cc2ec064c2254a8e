//! Epoch time-series sampling.
//!
//! An [`EpochSampler`] divides simulated time into fixed-length windows
//! (per-tREFI by default, matching the paper's Table V / Fig 8b metrics) and
//! converts cumulative system counters into per-window deltas: ACT/ALERT/REF/
//! RFM rates, queue occupancy, row-hit rate, and per-core IPC. The produced
//! [`EpochSeries`] rides on the run manifest; [`EpochSeries::write_csv`] is
//! its one CSV rendering (`telemetry_report series <manifest> <run-key>` of a
//! `run_all --telemetry` manifest).

use crate::json::Json;
use autorfm_sim_core::Cycle;
use std::io::{self, Write};

/// The cumulative system counters an epoch series tracks, in CSV and JSON
/// order: the DRAM engine's successful ACTs, ACTs declined with an ALERT,
/// column reads and writes, REF and explicit RFM commands, mitigations and
/// victim refreshes, then the memory controller's row-buffer hits and
/// misses. [`Observation::counts`] and [`EpochSample::counts`] are indexed
/// by this list.
pub const COUNTERS: [&str; 10] = [
    "acts",
    "alerts",
    "reads",
    "writes",
    "refs",
    "rfms",
    "mitigations",
    "victim_refreshes",
    "row_hits",
    "row_misses",
];

/// Cumulative system counters observed at one point in simulated time.
///
/// Producers (the simulation loop) fill this from the DRAM device, memory
/// controller, and CPU model; the sampler turns consecutive observations into
/// per-epoch deltas. All fields except `queue_depth` are cumulative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// One count per [`COUNTERS`] entry, in list order.
    pub counts: [u64; COUNTERS.len()],
    /// Requests currently queued in the controller — a gauge, not cumulative.
    pub queue_depth: u64,
    /// Instructions retired so far, per core (CPU model).
    pub retired: Vec<u64>,
}

/// Per-window deltas and derived rates for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSample {
    /// Zero-based epoch index.
    pub index: u64,
    /// Window start (inclusive).
    pub start: Cycle,
    /// Window end (exclusive; the observation point for the final partial
    /// epoch).
    pub end: Cycle,
    /// Whether this is the trailing partial window of the run.
    pub partial: bool,
    /// Each [`COUNTERS`] entry's delta over the window, in list order.
    pub counts: [u64; COUNTERS.len()],
    /// Controller queue depth at the end of the window (gauge).
    pub queue_depth: u64,
    /// Per-core IPC over the window (instructions / CPU cycles).
    pub ipc: Vec<f64>,
}

impl EpochSample {
    /// Row-buffer hit rate within the window.
    pub fn row_hit_rate(&self) -> f64 {
        // `COUNTERS` ends with the row-buffer hits and misses.
        let [.., hits, misses] = self.counts;
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Aggregate IPC (sum over cores) within the window.
    pub fn total_ipc(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// Looks a column up by name: one of [`COUNTERS`], `queue_depth`,
    /// `row_hit_rate`, `total_ipc` or `ipc_core<i>` (see
    /// [`EpochSeries::columns`]).
    pub fn column(&self, name: &str) -> Option<f64> {
        if let Some(i) = COUNTERS.iter().position(|c| *c == name) {
            return Some(self.counts[i] as f64);
        }
        let v = match name {
            "queue_depth" => self.queue_depth as f64,
            "row_hit_rate" => self.row_hit_rate(),
            "total_ipc" => self.total_ipc(),
            _ => {
                let idx: usize = name.strip_prefix("ipc_core")?.parse().ok()?;
                return self.ipc.get(idx).copied();
            }
        };
        Some(v)
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("index", Json::Num(self.index as f64)),
            ("start_ns", Json::Num(self.start.as_ns() as f64)),
            ("end_ns", Json::Num(self.end.as_ns() as f64)),
            ("partial", Json::Bool(self.partial)),
        ];
        pairs.extend(
            COUNTERS
                .into_iter()
                .zip(self.counts.map(|n| Json::Num(n as f64))),
        );
        pairs.push(("queue_depth", Json::Num(self.queue_depth as f64)));
        pairs.push((
            "ipc",
            Json::Arr(self.ipc.iter().map(|&x| Json::Num(x)).collect()),
        ));
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Option<EpochSample> {
        let num = |k: &str| v.get(k).and_then(Json::as_u64);
        Some(EpochSample {
            index: num("index")?,
            start: Cycle::from_ns(num("start_ns")?),
            end: Cycle::from_ns(num("end_ns")?),
            partial: matches!(v.get("partial"), Some(Json::Bool(true))),
            counts: COUNTERS.map(|c| num(c).unwrap_or(0)),
            queue_depth: num("queue_depth").unwrap_or(0),
            ipc: v
                .get("ipc")
                .and_then(Json::as_arr)
                .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
        })
    }
}

/// The full time series of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSeries {
    /// Window length used by the sampler.
    pub epoch_len: Cycle,
    /// Samples in time order.
    pub samples: Vec<EpochSample>,
    /// Whether sampling stopped early because `max_samples` was reached.
    pub truncated: bool,
}

impl EpochSeries {
    /// All column names this series can dump, in CSV order: the
    /// [`COUNTERS`], `queue_depth`, `row_hit_rate`, `total_ipc`, then one
    /// `ipc_core<i>` per core.
    pub fn columns(&self) -> Vec<String> {
        let cores = self.samples.first().map_or(0, |s| s.ipc.len());
        COUNTERS
            .into_iter()
            .chain(["queue_depth", "row_hit_rate", "total_ipc"])
            .map(String::from)
            .chain((0..cores).map(|i| format!("ipc_core{i}")))
            .collect()
    }

    /// Writes the series as CSV: a header row (`index,start_ns,end_ns`, the
    /// [`Self::columns`], then `partial`), then one row per stored sample.
    /// Integral values print as integers, the rest with six decimals. An
    /// empty series writes nothing. The writer is flushed before returning.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error.
    pub fn write_csv(&self, out: impl Write) -> io::Result<()> {
        self.write_rows(&self.columns(), true, out)
    }

    /// Writes one column of [`Self::write_csv`]'s output: the
    /// `index,start_ns,end_ns,<name>` header and rows, cells formatted the
    /// same way.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`], writing nothing, if `name`
    /// is not one of [`Self::columns`]; else the first write or flush error.
    pub fn write_column_csv(&self, name: &str, out: impl Write) -> io::Result<()> {
        let columns = self.columns();
        if !columns.iter().any(|c| c == name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown metric {name:?}; available: {}", columns.join(", ")),
            ));
        }
        self.write_rows(&[name.to_string()], false, out)
    }

    /// The CSV writer behind [`Self::write_csv`] and
    /// [`Self::write_column_csv`]: `columns`, then `partial` if asked.
    fn write_rows(&self, columns: &[String], partial: bool, mut out: impl Write) -> io::Result<()> {
        if self.samples.is_empty() {
            return Ok(());
        }
        let tail = if partial { ",partial" } else { "" };
        writeln!(out, "index,start_ns,end_ns,{}{tail}", columns.join(","))?;
        for s in &self.samples {
            write!(out, "{},{},{}", s.index, s.start.as_ns(), s.end.as_ns())?;
            for c in columns {
                write!(out, ",{}", fmt_cell(s.column(c).unwrap_or(0.0)))?;
            }
            if partial {
                write!(out, ",{}", u8::from(s.partial))?;
            }
            writeln!(out)?;
        }
        out.flush()
    }

    /// Serializes the series.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epoch_ns", Json::Num(self.epoch_len.as_ns() as f64)),
            ("truncated", Json::Bool(self.truncated)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(EpochSample::to_json).collect()),
            ),
        ])
    }

    /// Reconstructs a series from [`Self::to_json`] output.
    pub fn from_json(v: &Json) -> EpochSeries {
        EpochSeries {
            epoch_len: Cycle::from_ns(v.get("epoch_ns").and_then(Json::as_u64).unwrap_or(0)),
            truncated: matches!(v.get("truncated"), Some(Json::Bool(true))),
            samples: v
                .get("samples")
                .and_then(Json::as_arr)
                .map(|xs| xs.iter().filter_map(EpochSample::from_json).collect())
                .unwrap_or_default(),
        }
    }
}

/// Default cap on stored samples per run (long `--full` runs stay bounded).
pub const DEFAULT_MAX_SAMPLES: usize = 4096;

/// Converts cumulative [`Observation`]s into an [`EpochSeries`].
///
/// Window `k` covers `[k·len, (k+1)·len)`. The producer calls
/// [`EpochSampler::due`] every step (a single comparison — this is the only
/// cost on the hot path) and [`EpochSampler::observe`] when it returns true;
/// [`EpochSampler::finish`] closes the trailing partial window at the end of
/// the run.
///
/// Deltas are attributed to the window in which the boundary-crossing
/// observation happened; if a producer skips more than one full window between
/// observations (it shouldn't — the simulator steps at 1 ns), the intervening
/// windows are emitted with zero deltas.
#[derive(Debug)]
pub struct EpochSampler {
    epoch_len: Cycle,
    max_samples: usize,
    next_boundary: Cycle,
    window_start: Cycle,
    index: u64,
    prev: Observation,
    series: EpochSeries,
}

impl EpochSampler {
    /// Creates a sampler with the given window length that stops recording
    /// after `max_samples` windows ([`DEFAULT_MAX_SAMPLES`] is the harness's
    /// cap).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero or `max_samples` is zero.
    pub fn new(epoch_len: Cycle, max_samples: usize) -> Self {
        assert!(epoch_len > Cycle::ZERO, "epoch length must be positive");
        assert!(max_samples > 0, "need room for at least one sample");
        EpochSampler {
            epoch_len,
            max_samples,
            next_boundary: epoch_len,
            window_start: Cycle::ZERO,
            index: 0,
            prev: Observation::default(),
            series: EpochSeries {
                epoch_len,
                samples: Vec::new(),
                truncated: false,
            },
        }
    }

    /// Whether `now` has crossed the current window boundary. This is the hot
    /// path: one comparison; everything else happens per epoch.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_boundary
    }

    /// Closes every window boundary crossed by `now`, attributing the deltas
    /// since the previous observation to the first of them.
    pub fn observe(&mut self, now: Cycle, obs: Observation) {
        while self.due(now) {
            let end = self.next_boundary;
            self.emit(end, false, &obs);
            self.window_start = end;
            self.next_boundary = end + self.epoch_len;
            // Any further windows crossed by the same observation get zero
            // deltas: `prev` is already `obs` after the first emit.
        }
    }

    /// Closes the trailing partial window (if any time has passed since the
    /// last boundary) and returns the collected series.
    pub fn finish(mut self, now: Cycle, obs: Observation) -> EpochSeries {
        // A final observation may still close whole windows first.
        self.observe(now, obs.clone());
        if now > self.window_start {
            self.emit(now, true, &obs);
        }
        self.series
    }

    fn emit(&mut self, end: Cycle, partial: bool, obs: &Observation) {
        let cycles = (end - self.window_start).raw();
        let ipc: Vec<f64> = obs
            .retired
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let prev = self.prev.retired.get(i).copied().unwrap_or(0);
                if cycles == 0 {
                    0.0
                } else {
                    r.saturating_sub(prev) as f64 / cycles as f64
                }
            })
            .collect();
        let sample = EpochSample {
            index: self.index,
            start: self.window_start,
            end,
            partial,
            counts: std::array::from_fn(|i| obs.counts[i].saturating_sub(self.prev.counts[i])),
            queue_depth: obs.queue_depth,
            ipc,
        };
        self.index += 1;
        self.prev = obs.clone();
        if self.series.samples.len() < self.max_samples {
            self.series.samples.push(sample);
        } else {
            self.series.truncated = true;
        }
    }
}

/// One CSV cell: integral values print as integers, the rest with six
/// decimals.
fn fmt_cell(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        format!("{}", x as i64)
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `acts`' position in [`COUNTERS`].
    const ACTS: usize = 0;

    fn obs(acts: u64, retired: &[u64]) -> Observation {
        let mut counts = [0; COUNTERS.len()];
        counts[ACTS] = acts;
        Observation {
            counts,
            retired: retired.to_vec(),
            ..Observation::default()
        }
    }

    #[test]
    fn counters_list_acts_first_and_row_hits_misses_last() {
        // `obs` writes `ACTS`; `row_hit_rate` reads the last two entries.
        assert_eq!(COUNTERS[ACTS], "acts");
        assert_eq!(COUNTERS[COUNTERS.len() - 2..], ["row_hits", "row_misses"]);
    }

    #[test]
    fn windows_align_to_multiples_of_epoch_len() {
        let len = Cycle::from_ns(100);
        let mut s = EpochSampler::new(len, DEFAULT_MAX_SAMPLES);
        assert!(!s.due(Cycle::from_ns(99)));
        assert!(s.due(Cycle::from_ns(100)));
        s.observe(Cycle::from_ns(100), obs(10, &[400]));
        s.observe(Cycle::from_ns(200), obs(30, &[800]));
        let series = s.finish(Cycle::from_ns(200), obs(30, &[800]));
        assert_eq!(series.samples.len(), 2, "no empty trailing partial");
        let [a, b] = &series.samples[..] else {
            unreachable!()
        };
        assert_eq!((a.start, a.end), (Cycle::ZERO, len));
        assert_eq!((b.start, b.end), (len, len * 2));
        assert_eq!(a.counts[ACTS], 10);
        assert_eq!(b.counts[ACTS], 20);
        assert!(!a.partial && !b.partial);
        // 400 instructions over 400 cycles (100 ns) -> IPC 1.0.
        assert!((a.ipc[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn late_observation_crosses_boundary_once() {
        // The simulator steps at 1 ns, so the first observation at or after
        // the boundary closes the window with deltas measured at that point.
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        s.observe(Cycle::from_ns(103), obs(7, &[]));
        let series = s.finish(Cycle::from_ns(103), obs(7, &[]));
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[0].end, Cycle::from_ns(100));
        assert_eq!(series.samples[0].counts[ACTS], 7);
        // The 3 ns past the boundary become a zero-delta trailing partial.
        assert!(series.samples[1].partial);
        assert_eq!(series.samples[1].end, Cycle::from_ns(103));
        assert_eq!(series.samples[1].counts[ACTS], 0);
    }

    #[test]
    fn skipped_windows_emit_zero_deltas() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        // One observation lands past three boundaries.
        s.observe(Cycle::from_ns(310), obs(12, &[]));
        let series = s.finish(Cycle::from_ns(310), obs(12, &[]));
        assert_eq!(series.samples.len(), 4, "3 whole + 1 partial");
        assert_eq!(
            series.samples[0].counts[ACTS], 12,
            "deltas go to the first window"
        );
        assert_eq!(series.samples[1].counts[ACTS], 0);
        assert_eq!(series.samples[2].counts[ACTS], 0);
        assert!(series.samples[3].partial);
        assert_eq!(series.samples[3].end, Cycle::from_ns(310));
    }

    #[test]
    fn final_partial_epoch_is_emitted() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        s.observe(Cycle::from_ns(100), obs(4, &[100]));
        // Run ends mid-window at 140 ns with 6 more ACTs.
        let series = s.finish(Cycle::from_ns(140), obs(10, &[260]));
        assert_eq!(series.samples.len(), 2);
        let last = &series.samples[1];
        assert!(last.partial);
        assert_eq!(
            (last.start, last.end),
            (Cycle::from_ns(100), Cycle::from_ns(140))
        );
        assert_eq!(last.counts[ACTS], 6);
        // 160 instructions over 160 cycles (40 ns) -> IPC 1.0.
        assert!((last.ipc[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finish_exactly_on_boundary_has_no_partial() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        s.observe(Cycle::from_ns(100), obs(4, &[]));
        let series = s.finish(Cycle::from_ns(100), obs(4, &[]));
        assert_eq!(series.samples.len(), 1);
        assert!(!series.samples[0].partial);
    }

    #[test]
    fn finish_closes_whole_window_then_partial() {
        // finish() past an unobserved boundary closes the whole window first.
        let s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        let series = s.finish(Cycle::from_ns(150), obs(9, &[]));
        assert_eq!(series.samples.len(), 2);
        assert!(!series.samples[0].partial);
        assert_eq!(series.samples[0].counts[ACTS], 9);
        assert!(series.samples[1].partial);
        assert_eq!(series.samples[1].counts[ACTS], 0);
    }

    #[test]
    fn max_samples_truncates() {
        let mut s = EpochSampler::new(Cycle::from_ns(10), 2);
        for k in 1..=5u64 {
            s.observe(Cycle::from_ns(10 * k), obs(k, &[]));
        }
        let series = s.finish(Cycle::from_ns(55), obs(9, &[]));
        assert_eq!(series.samples.len(), 2);
        assert!(series.truncated);
    }

    #[test]
    fn queue_depth_is_a_gauge() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        let mut o = obs(1, &[]);
        o.queue_depth = 17;
        s.observe(Cycle::from_ns(100), o.clone());
        o.queue_depth = 3;
        let series = s.finish(Cycle::from_ns(150), o);
        assert_eq!(series.samples[0].queue_depth, 17);
        assert_eq!(series.samples[1].queue_depth, 3);
    }

    #[test]
    fn series_json_round_trip() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        s.observe(Cycle::from_ns(100), obs(10, &[100, 200]));
        let series = s.finish(Cycle::from_ns(130), obs(12, &[150, 260]));
        let json = series.to_json();
        let back = EpochSeries::from_json(&Json::parse(&json.to_pretty()).unwrap());
        assert_eq!(back, series);
    }

    #[test]
    fn column_lookup() {
        let mut s = EpochSampler::new(Cycle::from_ns(100), DEFAULT_MAX_SAMPLES);
        s.observe(Cycle::from_ns(100), obs(10, &[200, 400]));
        let series = s.finish(Cycle::from_ns(100), obs(10, &[200, 400]));
        let sample = &series.samples[0];
        assert_eq!(sample.column("acts"), Some(10.0));
        assert_eq!(sample.column("ipc_core1"), Some(1.0));
        assert_eq!(sample.column("ipc_core2"), None);
        assert_eq!(sample.column("nope"), None);
        assert!(series.columns().contains(&"ipc_core0".to_string()));
    }

    fn sample(index: u64, acts: u64) -> EpochSample {
        EpochSample {
            index,
            start: Cycle::from_ns(index * 100),
            end: Cycle::from_ns((index + 1) * 100),
            partial: false,
            // acts, alerts, …, row_hits, row_misses.
            counts: [acts, 1, 0, 0, 0, 0, 0, 0, 3, 1],
            queue_depth: 5,
            ipc: vec![0.5, 1.0],
        }
    }

    fn csv(series: &EpochSeries) -> String {
        let mut out = Vec::new();
        series.write_csv(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn write_csv_writes_header_and_rows() {
        let series = EpochSeries {
            epoch_len: Cycle::from_ns(100),
            samples: vec![sample(0, 10), sample(1, 20)],
            truncated: false,
        };
        let text = csv(&series);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,start_ns,end_ns,acts,"));
        assert!(lines[0].contains("ipc_core0,ipc_core1,partial"));
        assert!(lines[1].starts_with("0,0,100,10,1,"));
        assert!(lines[1].contains("0.750000"), "row_hit_rate: {}", lines[1]);
        assert!(lines[2].starts_with("1,100,200,20,"));
        assert_eq!(
            lines[0],
            "index,start_ns,end_ns,acts,alerts,reads,writes,refs,rfms,mitigations,\
             victim_refreshes,row_hits,row_misses,queue_depth,row_hit_rate,total_ipc,\
             ipc_core0,ipc_core1,partial"
        );
        assert_eq!(
            lines[1],
            "0,0,100,10,1,0,0,0,0,0,0,3,1,5,0.750000,1.500000,0.500000,1,0"
        );
        assert!(text.ends_with('\n'));
        assert_eq!(
            csv(&EpochSeries::default()),
            "",
            "an empty series writes nothing"
        );
    }

    #[test]
    fn truncated_samples_never_reach_the_csv() {
        let mut s = EpochSampler::new(Cycle::from_ns(10), 3);
        for k in 1..=9u64 {
            s.observe(Cycle::from_ns(10 * k), obs(k, &[]));
        }
        let series = s.finish(Cycle::from_ns(95), obs(9, &[]));
        assert!(series.truncated);
        let text = csv(&series);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 3, "only the stored samples: {text}");
        assert!(rows[2].starts_with("2,20,30,"), "{}", rows[2]);
    }

    #[test]
    fn write_column_csv_projects_write_csv() {
        let series = EpochSeries {
            epoch_len: Cycle::from_ns(100),
            samples: vec![sample(0, 10), sample(1, 20)],
            truncated: false,
        };
        let full = csv(&series);
        let header: Vec<&str> = full.lines().next().unwrap().split(',').collect();
        for name in series.columns() {
            let at = header.iter().position(|h| *h == name).unwrap();
            let projected: String = full
                .lines()
                .map(|line| {
                    let cells: Vec<&str> = line.split(',').collect();
                    format!("{},{}\n", cells[..3].join(","), cells[at])
                })
                .collect();
            let mut out = Vec::new();
            series.write_column_csv(&name, &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), projected, "{name}");
        }
        let mut out = Vec::new();
        let err = series.write_column_csv("nope", &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    /// A writer whose writes, or only its flush, fail.
    struct Failing {
        on_write: bool,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.on_write {
                Err(io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush failed"))
        }
    }

    #[test]
    fn write_csv_returns_write_and_flush_errors() {
        let series = EpochSeries {
            epoch_len: Cycle::from_ns(100),
            samples: vec![sample(0, 10)],
            truncated: false,
        };
        let err = series.write_csv(Failing { on_write: true }).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        let err = series.write_csv(Failing { on_write: false }).unwrap_err();
        assert_eq!(err.to_string(), "flush failed");
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_panics() {
        EpochSampler::new(Cycle::ZERO, DEFAULT_MAX_SAMPLES);
    }
}

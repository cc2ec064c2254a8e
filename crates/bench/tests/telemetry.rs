//! Telemetry guarantees: the disabled (default) path is bitwise identical to
//! a harness without telemetry, the enabled path records epoch series and
//! full metric registries without perturbing results, and a target's
//! manifest keeps each cell's series.

use autorfm::experiments::Scenario;
use autorfm::telemetry::{EpochSeries, RunManifest};
use autorfm::{KernelKind, System};
use autorfm_bench::experiments::{self, Ctx, Experiment};
use autorfm_bench::{telemetry_config, ResultCache, RunOpts, SimJob, BASELINE_ZEN};
use autorfm_workloads::WorkloadSpec;

fn quick_opts(telemetry: bool) -> RunOpts {
    RunOpts {
        cores: 2,
        instructions: 2_500,
        workloads: ["mcf", "bwaves"]
            .iter()
            .map(|n| WorkloadSpec::by_name(n).unwrap())
            .collect(),
        jobs: 2,
        telemetry,
        ..RunOpts::default()
    }
}

fn matrix(opts: &RunOpts) -> Vec<SimJob> {
    opts.workloads
        .iter()
        .flat_map(|&spec| {
            [BASELINE_ZEN, Scenario::AutoRfm { th: 4 }].map(|sc| SimJob::new(spec, sc, opts))
        })
        .collect()
}

/// Telemetry off (the default) must leave every statistic bitwise identical
/// to the telemetry-on run — the sampler only reads counters — and attach no
/// series or registry to the results.
#[test]
fn disabled_path_is_bitwise_identical_to_enabled() {
    let off_opts = quick_opts(false);
    let on_opts = quick_opts(true);
    let jobs = matrix(&off_opts);

    let off = ResultCache::new(&off_opts).run(&jobs, off_opts.jobs);
    let on = ResultCache::new(&on_opts).run(&matrix(&on_opts), on_opts.jobs);

    assert_eq!(off.len(), on.len());
    for ((a, b), job) in off.iter().zip(&on).zip(&jobs) {
        assert_eq!(a.elapsed, b.elapsed, "elapsed differs for {}", job.label);
        assert_eq!(a.dram.acts.get(), b.dram.acts.get());
        assert_eq!(a.dram.alerts.get(), b.dram.alerts.get());
        assert_eq!(a.dram.victim_refreshes.get(), b.dram.victim_refreshes.get());
        assert_eq!(a.per_core_ipc, b.per_core_ipc);
        assert_eq!(a.act_pki, b.act_pki);
        assert_eq!(a.row_hit_rate, b.row_hit_rate);

        assert!(a.series.is_none(), "telemetry off must not record a series");
        assert!(a.metrics.is_none());
        let series = b.series.as_ref().expect("telemetry on records a series");
        assert!(!series.samples.is_empty());
        // `counts[0]` is the window's ACTs (`COUNTERS[0]`).
        let acts: u64 = series.samples.iter().map(|s| s.counts[0]).sum();
        assert_eq!(
            acts,
            b.dram.acts.get(),
            "epoch deltas must tally to the cumulative total"
        );
        assert!(b.metrics.is_some());
    }
}

/// The disabled path stays deterministic run-to-run (the golden guarantee the
/// `.txt` reports rely on).
#[test]
fn disabled_path_is_deterministic() {
    let opts = quick_opts(false);
    let jobs = matrix(&opts);
    let a = ResultCache::new(&opts).run(&jobs, opts.jobs);
    let b = ResultCache::new(&opts).run(&jobs, opts.jobs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.elapsed, y.elapsed);
        assert_eq!(x.dram.acts.get(), y.dram.acts.get());
        assert_eq!(x.per_core_ipc, y.per_core_ipc);
    }
}

/// `--epoch-ns` shrinks the window and multiplies the sample count without
/// changing any cumulative statistic.
#[test]
fn epoch_length_controls_resolution_only() {
    let coarse_opts = quick_opts(true);
    let mut fine_opts = quick_opts(true);
    fine_opts.epoch_ns = Some(100);
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    let coarse_jobs = [SimJob::new(spec, BASELINE_ZEN, &coarse_opts)];
    let fine_jobs = [SimJob::new(spec, BASELINE_ZEN, &fine_opts)];

    let coarse = &ResultCache::new(&coarse_opts).run(&coarse_jobs, coarse_opts.jobs)[0];
    let fine = &ResultCache::new(&fine_opts).run(&fine_jobs, fine_opts.jobs)[0];

    assert_eq!(coarse.elapsed, fine.elapsed);
    assert_eq!(coarse.dram.acts.get(), fine.dram.acts.get());
    let cs = coarse.series.as_ref().unwrap();
    let fs = fine.series.as_ref().unwrap();
    assert!(
        fs.samples.len() > cs.samples.len(),
        "100 ns epochs must out-sample tREFI epochs ({} vs {})",
        fs.samples.len(),
        cs.samples.len()
    );
    // `counts[0]` is the window's ACTs (`COUNTERS[0]`).
    let coarse_acts: u64 = cs.samples.iter().map(|s| s.counts[0]).sum();
    let fine_acts: u64 = fs.samples.iter().map(|s| s.counts[0]).sum();
    assert_eq!(coarse_acts, fine_acts);
}

/// Telemetry runs go through the batched lanes like every other run: each
/// lane keeps its own sampler, so its epoch series equals a standalone
/// `System` run's series sample for sample.
#[test]
fn batched_lanes_record_the_standalone_series() {
    let opts = quick_opts(true);
    let jobs = matrix(&opts);
    let batched = ResultCache::new(&opts).run(&jobs, opts.jobs);
    for (job, lane) in jobs.iter().zip(&batched) {
        let mut cfg = job.cfg.clone();
        cfg.telemetry = telemetry_config(&opts);
        assert!(cfg.telemetry.is_some(), "telemetry on");
        let standalone = System::new(cfg).unwrap().run_with(KernelKind::Event);
        let want = &standalone
            .series
            .as_ref()
            .expect("standalone series")
            .samples;
        let got = &lane.series.as_ref().expect("lane series").samples;
        assert_eq!(want.len(), got.len(), "sample count for {}", job.label);
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(a, b, "sample {i} diverged for {}", job.label);
        }
        assert_eq!(format!("{standalone:?}"), format!("{lane:?}"));
    }
}

/// An experiment that runs the cells [`matrix`] lists for its options.
fn matrix_cells(ctx: &mut Ctx) {
    let jobs = matrix(&ctx.opts);
    ctx.run(&jobs);
}

/// A target's manifest carries each cell's epoch series: rendered with
/// `EpochSeries::write_csv` (what `telemetry_report series <manifest>
/// <label>` prints), it is the simulated result's CSV byte for byte.
#[test]
fn manifest_series_renders_the_simulated_csv() {
    let dir = std::env::temp_dir().join(format!("autorfm-manifest-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = quick_opts(true);
    opts.workloads.truncate(1);
    let mut cache = ResultCache::default();
    let entries: [(&str, Experiment); 1] = [("cells", matrix_cells)];
    assert!(experiments::run(&entries, &opts, &mut cache, &dir).is_empty());
    let manifest = RunManifest::load(&dir.join("cells.json")).unwrap();

    let jobs = matrix(&opts);
    assert_eq!(jobs.len(), 2);
    let results = cache.run(&jobs, opts.jobs);
    let csv = |series: &EpochSeries| {
        let mut out = Vec::new();
        series.write_csv(&mut out).unwrap();
        out
    };
    for (job, result) in jobs.iter().zip(&results) {
        let series = result
            .series
            .as_ref()
            .expect("telemetry on records a series");
        let entry = manifest
            .run(&job.label)
            .expect("the manifest lists the cell");
        let got = csv(entry
            .series
            .as_ref()
            .expect("the manifest keeps the series"));
        assert_eq!(got, csv(series), "CSV of {}", job.label);
        let lines = String::from_utf8(got).unwrap().lines().count();
        assert_eq!(
            lines,
            series.samples.len() + 1,
            "header + one row per sample"
        );
    }

    for job in jobs {
        let key = job.cfg.key();
        let restated = job.variant("same", |_| {});
        assert_eq!(restated.cfg.key(), key, "a no-op variant is the same cell");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

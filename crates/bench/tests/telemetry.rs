//! ISSUE-2 telemetry guarantees: the disabled (default) path is bitwise
//! identical to a harness without telemetry, and the enabled path records
//! epoch series and full metric registries without perturbing results.

use autorfm::experiments::Scenario;
use autorfm::{KernelKind, SimConfig, System};
use autorfm_bench::{run_matrix, telemetry_config, RunOpts, SimJob, BASELINE_ZEN};
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
        .flat_map(|&spec| [(spec, BASELINE_ZEN), (spec, Scenario::AutoRfm { th: 4 })])
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

    let off = run_matrix(&jobs, &off_opts);
    let on = run_matrix(&jobs, &on_opts);

    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        let (spec, scenario) = jobs[i];
        assert_eq!(
            a.elapsed, b.elapsed,
            "elapsed differs for {} / {scenario}",
            spec.name
        );
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
        let acts: u64 = series.samples.iter().map(|s| s.acts).sum();
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
    let a = run_matrix(&jobs, &opts);
    let b = run_matrix(&jobs, &opts);
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
    let jobs = [(spec, BASELINE_ZEN)];

    let coarse = &run_matrix(&jobs, &coarse_opts)[0];
    let fine = &run_matrix(&jobs, &fine_opts)[0];

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
    let coarse_acts: u64 = cs.samples.iter().map(|s| s.acts).sum();
    let fine_acts: u64 = fs.samples.iter().map(|s| s.acts).sum();
    assert_eq!(coarse_acts, fine_acts);
}

/// Telemetry runs go through the batched lanes like every other run: each
/// lane keeps its own sink, so its epoch series equals a standalone
/// `System` run's series sample for sample.
#[test]
fn batched_lanes_record_the_standalone_series() {
    let opts = quick_opts(true);
    let jobs = matrix(&opts);
    let batched = run_matrix(&jobs, &opts);
    for (&(spec, scenario), lane) in jobs.iter().zip(&batched) {
        let cfg = SimConfig::builder(spec)
            .scenario(scenario)
            .cores(opts.cores)
            .instructions(opts.instructions)
            .telemetry(telemetry_config(&opts, "standalone").expect("telemetry on"))
            .build()
            .unwrap();
        let standalone = System::new(cfg).unwrap().run_with(KernelKind::Event);
        let want = &standalone
            .series
            .as_ref()
            .expect("standalone series")
            .samples;
        let got = &lane.series.as_ref().expect("lane series").samples;
        assert_eq!(
            want.len(),
            got.len(),
            "sample count for {} / {scenario}",
            spec.name
        );
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(a, b, "sample {i} diverged for {} / {scenario}", spec.name);
        }
        assert_eq!(format!("{standalone:?}"), format!("{lane:?}"));
    }
}

//! Exactly-once execution across concurrent overlapping campaigns.
//!
//! Two campaigns submitted at the same time share two cells. The daemon
//! must compute each distinct cell once — the overlap shows up as dedup
//! hits, never as recomputation — and the stored bytes must be bitwise
//! identical to a standalone `System` run of the same cell.

use autorfm::snapshot::{digest64, Snapshot, Writer};
use autorfm::telemetry::Json;
use autorfm::{KernelKind, System};
use autorfm_campaign::{Daemon, DaemonConfig, SweepRequest};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autorfm-once-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_complete(daemon: &Daemon, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(600);
    while !daemon.is_complete(id).unwrap_or(false) {
        assert!(Instant::now() < deadline, "campaign {id} timed out");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn overlapping_campaigns_compute_shared_cells_once() {
    let dir = scratch("overlap");
    let daemon = Daemon::start(DaemonConfig {
        store: dir.clone(),
        workers: 4,
        batch: 4,
        kernel: KernelKind::Event,
    })
    .unwrap();

    // Campaign A: mcf × {baseline-zen, AutoRFM-4, RFM-8, AutoRFM-8}.
    // Campaign B: mcf × {AutoRFM-4, RFM-8} ∪ wrf × {AutoRFM-4, RFM-8}.
    // Overlap: the two mcf cells of B. Distinct cells overall: 6.
    let base = SweepRequest {
        cores: 2,
        instructions: 4_000,
        ..SweepRequest::default()
    };
    let req_a = SweepRequest {
        name: "a".into(),
        workloads: vec!["mcf".into()],
        scenarios: vec![
            "baseline-zen".into(),
            "AutoRFM-4".into(),
            "RFM-8".into(),
            "AutoRFM-8".into(),
        ],
        ..base.clone()
    };
    let req_b = SweepRequest {
        name: "b".into(),
        workloads: vec!["mcf".into(), "wrf".into()],
        scenarios: vec!["AutoRFM-4".into(), "RFM-8".into()],
        ..base
    };
    let overlap: usize = {
        let keys_a: Vec<u64> = req_a.expand().unwrap().iter().map(|c| c.key()).collect();
        req_b
            .expand()
            .unwrap()
            .iter()
            .filter(|c| keys_a.contains(&c.key()))
            .count()
    };
    assert_eq!(overlap, 2, "the fixture is meant to share exactly 2 cells");

    // Submit both concurrently. Submission is serialized inside the daemon,
    // so whichever lands second takes the dedup hits for the shared cells.
    let (outcome_a, outcome_b) = std::thread::scope(|scope| {
        let da = daemon.clone();
        let db = daemon.clone();
        let ra = &req_a;
        let rb = &req_b;
        let ha = scope.spawn(move || da.submit(ra).unwrap());
        let hb = scope.spawn(move || db.submit(rb).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    wait_complete(&daemon, &outcome_a.id);
    wait_complete(&daemon, &outcome_b.id);

    // 6 distinct cells computed, 2 dedup hits — no matter who won the race.
    assert_eq!(daemon.cells_computed(), 6);
    assert_eq!(daemon.dedup_hits(), 2);
    assert_eq!(outcome_a.deduped + outcome_b.deduped, 2);
    assert_eq!(outcome_a.scheduled + outcome_b.scheduled, 6);
    assert_eq!(daemon.store().len(), 6);

    // Every stored cell is bitwise identical to a standalone run.
    for cell in req_a
        .expand()
        .unwrap()
        .iter()
        .chain(req_b.expand().unwrap().iter())
    {
        let record = daemon.store().get(cell.key()).expect("cell stored");
        let stored = record.outcome.clone().expect("cell completed");
        let standalone = System::new(cell.config().unwrap())
            .unwrap()
            .run_with(KernelKind::Event);
        let mut w = Writer::new();
        standalone.encode(&mut w);
        assert_eq!(
            stored,
            w.into_bytes(),
            "stored bytes differ from standalone for {} / {}",
            cell.workload.name,
            cell.scenario
        );
        assert_eq!(record.result_digest(), Some(digest64(&stored)));
    }

    // The dedup counter is also visible through the metrics registry.
    let metrics = daemon.metrics_json();
    let deduped = metrics
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some("cells_deduped")
                && m.get("labels").is_none()
        })
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64);
    assert_eq!(deduped, Some(2));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon pointed at a store that the `attack_fuzz` experiment populated
/// adopts the fuzz records next to its sweep cells: `/stats` reports them,
/// they survive the daemon's own sweep traffic, and sweep cells never
/// collide with fuzz records even at equal keys.
#[test]
fn daemon_adopts_fuzz_store_records() {
    use autorfm::analysis::{AttackFuzzer, FuzzConfig, FuzzStore};
    use autorfm::trackers::TrackerKind;

    let dir = scratch("fuzz-adopt");
    // Populate the store the way a fuzz campaign would.
    let cfg = FuzzConfig {
        activations: 2_000,
        generations: 1,
        population: 4,
        ..FuzzConfig::smoke(TrackerKind::NaiveTrr)
    };
    let fuzz = FuzzStore::open(&dir, &cfg).unwrap();
    let results: Vec<_> = AttackFuzzer::seed_patterns(&cfg)
        .iter()
        .map(|p| AttackFuzzer::evaluate(&cfg, p))
        .collect();
    for r in &results {
        fuzz.put(r).unwrap();
    }
    assert!(!results.is_empty());

    let daemon = Daemon::start(DaemonConfig {
        store: dir.clone(),
        workers: 2,
        batch: 2,
        kernel: KernelKind::Event,
    })
    .unwrap();
    let stats = daemon.stats();
    assert_eq!(
        stats.get("fuzz_records").and_then(Json::as_u64),
        Some(results.len() as u64),
        "stats must report adopted fuzz records"
    );

    // Sweep traffic shares the root without disturbing the fuzz family.
    let req = SweepRequest {
        name: "beside-fuzz".into(),
        workloads: vec!["mcf".into()],
        scenarios: vec!["AutoRFM-4".into()],
        cores: 2,
        instructions: 4_000,
        ..SweepRequest::default()
    };
    let outcome = daemon.submit(&req).unwrap();
    wait_complete(&daemon, &outcome.id);
    let stats = daemon.stats();
    assert_eq!(
        stats.get("fuzz_records").and_then(Json::as_u64),
        Some(results.len() as u64),
        "sweep traffic must not disturb fuzz records"
    );
    assert!(stats.get("cells_done").and_then(Json::as_u64) >= Some(1));

    // Reopening the store in a later daemon life still sees both families.
    daemon.stop();
    let daemon = Daemon::start(DaemonConfig {
        store: dir.clone(),
        workers: 1,
        batch: 1,
        kernel: KernelKind::Event,
    })
    .unwrap();
    assert_eq!(
        daemon.stats().get("fuzz_records").and_then(Json::as_u64),
        Some(results.len() as u64)
    );
    // And the records themselves still decode through a fresh FuzzStore.
    let reopened = FuzzStore::open(&dir, &cfg).unwrap();
    for r in &results {
        assert_eq!(reopened.get(r.digest).as_ref(), Some(r));
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

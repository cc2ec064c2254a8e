//! Security integration tests: attack patterns driven through the *full*
//! simulated machine (controller + device + audit oracle), not just the
//! tracker harness — plus the cross-layer pin that the tracker harness is
//! the device's mitigation machinery minus timing.

use autorfm::analysis::{AttackPattern, AttackSim, PatternCursor};
use autorfm::dram::{ActOutcome, DeviceMitigation, DramConfig, DramDevice, RowhammerAudit};
use autorfm::mitigation::{MitigationEngine, MitigationKind};
use autorfm::sim_core::{BankId, Cycle, DetRng, Geometry, RowAddr};
use autorfm::trackers::TrackerKind;
use std::collections::BTreeSet;

/// Hammers one bank of a full device with `pattern` for `acts` activations,
/// returning the worst damage the audit observed.
fn hammer_device(mitigation: DeviceMitigation, pattern: AttackPattern, acts: u32) -> u64 {
    let cfg = DramConfig {
        geometry: Geometry::paper_baseline(),
        mitigation,
        audit: true,
        ..DramConfig::default()
    };
    let mut dev = DramDevice::new(cfg, 99).unwrap();
    let bank = BankId(7);
    let mut now = Cycle::from_ns(100);
    let mut done = 0u32;
    let mut step = 0u64;
    while done < acts {
        dev.tick(now);
        let row = pattern.row_at(step);
        step += 1;
        now = now.max(dev.earliest_act(bank));
        match dev.try_act(bank, row, now) {
            ActOutcome::Accepted => {
                done += 1;
                let pre = dev.earliest_pre(bank);
                dev.precharge(bank, pre);
                now = pre;
            }
            ActOutcome::Alerted { retry_at } => {
                // The attacker must wait out the SAUM, like any other agent;
                // the declined row is simply retried on the next iteration of
                // the (circular) pattern.
                now = retry_at;
            }
        }
    }
    dev.audit().unwrap().max_damage()
}

const AUTORFM4: DeviceMitigation = DeviceMitigation::AutoRfm {
    tracker: TrackerKind::Mint,
    policy: MitigationKind::Fractal,
    window: 4,
};

#[test]
fn device_holds_single_sided_hammer() {
    let damage = hammer_device(AUTORFM4, AttackPattern::single(RowAddr(5000)), 40_000);
    assert!(damage < 148, "single-sided beat AutoRFM-4: damage {damage}");
}

#[test]
fn device_holds_double_sided_hammer() {
    let damage = hammer_device(AUTORFM4, AttackPattern::double_sided(RowAddr(9000)), 40_000);
    assert!(damage < 148, "double-sided beat AutoRFM-4: damage {damage}");
}

#[test]
fn device_holds_circular_mint_adversarial_pattern() {
    let damage = hammer_device(
        AUTORFM4,
        AttackPattern::circular(RowAddr(20_000), 4),
        40_000,
    );
    assert!(
        damage < 148,
        "circular pattern beat AutoRFM-4: damage {damage}"
    );
}

#[test]
fn device_holds_half_double_with_fractal() {
    let damage = hammer_device(
        AUTORFM4,
        AttackPattern::half_double(RowAddr(30_000), 2),
        40_000,
    );
    assert!(
        damage < 148,
        "Half-Double beat Fractal Mitigation: damage {damage}"
    );
}

#[test]
fn half_double_breaks_plain_blast_radius_on_device() {
    let broken = DeviceMitigation::AutoRfm {
        tracker: TrackerKind::Mint,
        policy: MitigationKind::Baseline,
        window: 4,
    };
    let fixed = hammer_device(
        broken,
        AttackPattern::half_double(RowAddr(30_000), 2),
        40_000,
    );
    let fractal = hammer_device(
        AUTORFM4,
        AttackPattern::half_double(RowAddr(30_000), 2),
        40_000,
    );
    assert!(
        fixed > 4 * fractal,
        "blast-radius-2 should leak transitive damage: fixed {fixed} vs fractal {fractal}"
    );
}

#[test]
fn unmitigated_device_accumulates_unbounded_damage() {
    let damage = hammer_device(
        DeviceMitigation::None,
        AttackPattern::double_sided(RowAddr(9000)),
        10_000,
    );
    assert!(
        damage >= 9_000,
        "without mitigation, damage tracks activations: {damage}"
    );
}

#[test]
fn attacker_cannot_stall_forever_on_alerts() {
    // Denial-of-service check (Section IV contribution 4): even when the
    // attacker always targets the SAUM's subarray, every ACT completes within
    // t_M of its ALERT, so forward progress is guaranteed.
    let cfg = DramConfig {
        geometry: Geometry::paper_baseline(),
        mitigation: AUTORFM4,
        audit: false,
        ..DramConfig::default()
    };
    let mut dev = DramDevice::new(cfg, 5).unwrap();
    let bank = BankId(0);
    let mut now = Cycle::from_ns(100);
    // All rows in subarray 0 to maximize conflicts.
    for i in 0..5_000u32 {
        dev.tick(now);
        let row = RowAddr(i * 17 % 512);
        now = now.max(dev.earliest_act(bank));
        match dev.try_act(bank, row, now) {
            ActOutcome::Accepted => {
                let pre = dev.earliest_pre(bank);
                dev.precharge(bank, pre);
                now = pre;
            }
            ActOutcome::Alerted { retry_at } => {
                // Retry is bounded by t_M (~192 ns).
                assert!(
                    retry_at - now <= Cycle::from_ns(200),
                    "retry window exceeded t_M"
                );
                now = retry_at;
                let at = now.max(dev.earliest_act(bank));
                assert_eq!(
                    dev.try_act(bank, row, at),
                    ActOutcome::Accepted,
                    "retry after t_M must succeed (deterministic latency)"
                );
                let pre = dev.earliest_pre(bank);
                dev.precharge(bank, pre);
                now = pre;
            }
        }
    }
    assert!(
        dev.stats().alerts.get() > 0,
        "the pattern should have conflicted at least once"
    );
}

/// The tracker-only `AttackSim` agrees with a hand-driven device bank — its
/// `MitigationEngine` plus the `RowhammerAudit`, mitigating as soon as each
/// window completes — for every registered tracker and shape: worst damage,
/// mitigation and victim-refresh counts, and per-row damage where it reached.
#[test]
fn attack_sim_matches_device_engine_and_audit() {
    const ROWS: u32 = 131_072;
    const ACTS: u64 = 20_000;
    let (fractal, bank) = (MitigationKind::Fractal, BankId(0));
    let shapes = [
        AttackPattern::circular(RowAddr(5000), 4),
        AttackPattern::half_double(RowAddr(8000), 2),
        AttackPattern::decoy(RowAddr(3000), 3),
    ];
    for kind in TrackerKind::ALL {
        for (seed, shape) in (21u64..).zip(&shapes) {
            let mut engine = MitigationEngine::new(kind, fractal, 4, DetRng::seeded(seed)).unwrap();
            let mut audit = RowhammerAudit::new(1, ROWS);
            let (mut mitigations, mut refreshes, mut touched) = (0, 0, BTreeSet::new());
            for row in (0..ACTS).map(|step| shape.row_at(step)) {
                touched.insert(row.0);
                audit.on_act(bank, row);
                let executed = engine.on_act(row).then(|| engine.execute_pending(ROWS));
                if let Some(m) = executed.flatten() {
                    mitigations += 1;
                    for v in &m.victims {
                        refreshes += 1;
                        touched.insert(v.row.0);
                        audit.on_victim_refresh(bank, v.row);
                    }
                }
            }
            let mut sim = AttackSim::new(kind, fractal, 4, ROWS, seed).unwrap();
            let report = sim.run_pattern(&mut PatternCursor::new(shape.clone()), ACTS);
            let ctx = format!("{kind} {shape:?}");
            assert_eq!(report.max_damage, audit.max_damage(), "{ctx}: max damage");
            assert_eq!(report.mitigations, mitigations, "{ctx}: mitigations");
            assert_eq!(report.victim_refreshes, refreshes, "{ctx}: refreshes");
            for r in touched
                .iter()
                .flat_map(|&r| [r.saturating_sub(1), r, r + 1])
            {
                let want = audit.damage_of(bank, RowAddr(r));
                assert_eq!(sim.damage_of(RowAddr(r)), want, "{ctx}: row {r}");
            }
        }
    }
}

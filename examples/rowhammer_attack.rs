//! Rowhammer attack demo: drive adversarial activation patterns against the
//! tracker + mitigation stack and watch the damage oracle.
//!
//! Shows (1) Fractal Mitigation holding against Half-Double, (2) the baseline
//! blast-radius policy failing against the same pattern, and (3) a naive
//! deterministic tracker being evaded by a decoy pattern.
//!
//! Run with: `cargo run --release --example rowhammer_attack`

use autorfm::analysis::{AttackPattern, AttackSim, MintModel, PatternCursor};
use autorfm::mitigation::MitigationKind;
use autorfm::sim_core::RowAddr;
use autorfm::trackers::TrackerKind;

fn attack(
    label: &str,
    tracker: TrackerKind,
    policy: MitigationKind,
    pattern: &AttackPattern,
    bound: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let window = 4;
    let mut sim = AttackSim::new(tracker, policy, window, 131_072, 2024)?;
    let report = sim.run_pattern(&mut PatternCursor::new(pattern.clone()), 500_000);
    let verdict = if (report.max_damage as f64) < bound {
        "HELD"
    } else {
        "BROKEN"
    };
    println!(
        "{label:<42} worst damage {:>6} (bound {bound:>4.0})  -> {verdict}",
        report.max_damage
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("500K adversarial activations against each configuration\n");
    let bound = 2.0 * MintModel::auto_rfm(4, false).tolerated_trh_d();

    let half_double = AttackPattern::half_double(RowAddr(40_000), 2);
    attack(
        "MINT + Fractal vs Half-Double",
        TrackerKind::Mint,
        MitigationKind::Fractal,
        &half_double,
        bound,
    )?;
    attack(
        "MINT + fixed blast-radius vs Half-Double",
        TrackerKind::Mint,
        MitigationKind::Baseline,
        &half_double,
        bound,
    )?;

    let decoy = AttackPattern::decoy(RowAddr(30_000), 3);
    attack(
        "MINT + Fractal vs decoy pattern",
        TrackerKind::Mint,
        MitigationKind::Fractal,
        &decoy,
        bound,
    )?;
    attack(
        "naive TRR + Fractal vs decoy pattern",
        TrackerKind::NaiveTrr,
        MitigationKind::Fractal,
        &decoy,
        bound,
    )?;

    let circular = AttackPattern::circular(RowAddr(10_000), 4);
    attack(
        "MINT + Fractal vs circular (optimal)",
        TrackerKind::Mint,
        MitigationKind::Fractal,
        &circular,
        bound,
    )?;
    println!("\n(The fixed blast-radius policy and the naive tracker are expected to break;");
    println!(" that is precisely why the paper needs Fractal Mitigation and MINT.)");
    Ok(())
}

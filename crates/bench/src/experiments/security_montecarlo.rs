//! Security validation: Monte-Carlo attacks against the real tracker +
//! mitigation implementations, compared with the analytical bounds.
//!
//! For each configuration we run the full adversarial pattern suite and report
//! the worst damage any row accumulated; the attack *fails* as long as that
//! stays below `T = 2 × TRH-D` of the Appendix-A model.

use super::Ctx;
use crate::render_table;
use autorfm::analysis::{worst_damage, AttackPattern, FractalModel, MintModel};
use autorfm::mitigation::MitigationKind;
use autorfm::sim_core::RowAddr;
use autorfm::trackers::TrackerKind;

/// The worst damage over the full adversarial suite, and the pattern that
/// reached it.
fn suite_worst_damage(
    tracker: TrackerKind,
    policy: MitigationKind,
    window: u32,
    acts: u64,
) -> (u64, &'static str) {
    let patterns = [
        ("circular", AttackPattern::circular(RowAddr(10_000), window)),
        ("double-sided", AttackPattern::double_sided(RowAddr(20_000))),
        ("single-sided", AttackPattern::single(RowAddr(25_000))),
        (
            "half-double",
            AttackPattern::half_double(RowAddr(40_000), 2),
        ),
        ("decoy", AttackPattern::decoy(RowAddr(30_000), 3)),
    ];
    worst_damage(tracker, policy, window, &patterns, 1234, acts).expect("valid config")
}

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Security Monte-Carlo: worst-case damage vs analytic bound ===\n");
    let acts = 1_000_000;
    let mut rows = Vec::new();
    for (label, tracker, policy, window, bound) in [
        (
            "MINT-4 + Fractal (AutoRFM-4)",
            TrackerKind::Mint,
            MitigationKind::Fractal,
            4u32,
            2.0 * MintModel::auto_rfm(4, false).tolerated_trh_d(),
        ),
        (
            "MINT-8 + Fractal (AutoRFM-8)",
            TrackerKind::Mint,
            MitigationKind::Fractal,
            8,
            2.0 * MintModel::auto_rfm(8, false).tolerated_trh_d(),
        ),
        (
            "MINT-4 + Recursive",
            TrackerKind::MintRecursive,
            MitigationKind::Recursive,
            4,
            2.0 * MintModel::auto_rfm(4, true).tolerated_trh_d(),
        ),
        (
            "naive TRR + Fractal (broken)",
            TrackerKind::NaiveTrr,
            MitigationKind::Fractal,
            4,
            2.0 * MintModel::auto_rfm(4, false).tolerated_trh_d(),
        ),
    ] {
        let (damage, pattern) = suite_worst_damage(tracker, policy, window, acts);
        let verdict = if (damage as f64) < bound {
            "SAFE"
        } else {
            "BROKEN"
        };
        rows.push(vec![
            label.to_string(),
            format!("{damage}"),
            format!("{bound:.0}"),
            pattern.to_string(),
            verdict.to_string(),
        ]);
    }
    ctx.print(render_table(
        &[
            "configuration",
            "worst damage",
            "bound (2xTRH-D)",
            "worst pattern",
            "verdict",
        ],
        &rows,
    ));
    ctx.println(format!(
        "\nFractal-only attack bound (Appendix B): TRH-D {:.0} — below AutoRFM's minimum 74.",
        FractalModel::default().tolerated_trh_d()
    ));
    ctx.println(
        "The naive deterministic tracker must show BROKEN (motivates probabilistic trackers).",
    );
}

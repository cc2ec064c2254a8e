//! Figure 18 (Appendix D): TRH-D tolerated by PrIDE, MINT, and Mithril when
//! paired with AutoRFM.
//!
//! MINT's threshold comes from the Appendix-A closed form; PrIDE's from the
//! paper's relation (MINT tolerates ~25% lower thresholds than PrIDE, Section
//! II-D); Mithril's deterministic tracking is estimated empirically with the
//! Monte-Carlo harness (worst damage over adversarial patterns). Paper: all
//! three tolerate sub-125 TRH-D at AutoRFMTH-4; MINT beats PrIDE; Mithril
//! needs >30K counter entries per bank.

use super::Ctx;
use crate::{par_map, render_table};
use autorfm::analysis::{worst_damage, AttackPattern, MintModel};
use autorfm::mitigation::MitigationKind;
use autorfm::sim_core::RowAddr;
use autorfm::trackers::TrackerKind;

/// Empirical worst-case damage for a tracker under its adversarial patterns.
fn empirical_worst_damage(tracker: TrackerKind, window: u32) -> u64 {
    let patterns = [
        ("circular", AttackPattern::circular(RowAddr(10_000), window)),
        ("double-sided", AttackPattern::double_sided(RowAddr(20_000))),
        ("decoy", AttackPattern::decoy(RowAddr(30_000), 3)),
        (
            "half-double",
            AttackPattern::half_double(RowAddr(40_000), 2),
        ),
    ];
    worst_damage(
        tracker,
        MitigationKind::Fractal,
        window,
        &patterns,
        77,
        500_000,
    )
    .expect("valid tracker")
    .0
}

pub fn run(ctx: &mut Ctx) {
    let opts = ctx.opts.clone();
    ctx.println("=== Figure 18: TRH-D tolerated by PrIDE / MINT / Mithril with AutoRFM ===\n");
    // Each (threshold, tracker) Monte-Carlo sweep is independent: fan the six
    // combinations out and re-assemble rows in threshold order.
    let ths = [4u32, 8];
    // `--tracker NAME` (any name from `autorfm::trackers::names()`) narrows
    // the sweep to one tracker; default is the figure's PrIDE/MINT/Mithril
    // trio plus the tracker-zoo comparison columns (Graphene, ABACuS, Hydra,
    // OracleRH).
    let trackers: Vec<TrackerKind> = match opts.tracker {
        Some(t) => vec![t],
        None => vec![
            TrackerKind::Mithril,
            TrackerKind::Mint,
            TrackerKind::Pride,
            TrackerKind::Graphene,
            TrackerKind::Abacus,
            TrackerKind::Hydra,
            TrackerKind::Oracle,
        ],
    };
    let combos: Vec<(u32, TrackerKind)> = ths
        .iter()
        .flat_map(|&th| trackers.iter().map(move |&t| (th, t)))
        .collect();
    let damages = par_map(&combos, opts.jobs, |&(th, tracker)| {
        empirical_worst_damage(tracker, th)
    });

    let note = "Mithril simulated with 32 counter entries/bank.";
    let mut rows = Vec::new();
    for (i, &th) in ths.iter().enumerate() {
        let mint = MintModel::auto_rfm(th, false).tolerated_trh_d();
        let pride = mint / 0.75; // MINT tolerates ~25% lower than PrIDE [37]
        let base = i * trackers.len();
        let per_tracker = &damages[base..base + trackers.len()];
        let mithril_mc = trackers
            .iter()
            .position(|&t| t == TrackerKind::Mithril)
            .map(|j| per_tracker[j]);
        let mc = trackers
            .iter()
            .zip(per_tracker)
            .map(|(t, d)| format!("{t}={d}"))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            format!("AutoRFM-{th}"),
            format!("{pride:.0}"),
            format!("{mint:.0}"),
            mithril_mc.map_or_else(|| "-".into(), |d| format!("~{}", d / 2)),
            mc,
        ]);
    }
    ctx.print(render_table(
        &[
            "config",
            "PrIDE TRH-D",
            "MINT TRH-D",
            "Mithril TRH-D (MC)",
            "MC worst damage",
        ],
        &rows,
    ));
    ctx.println(format!("\n{note}"));
    ctx.println("paper: all three trackers tolerate sub-125 TRH-D at AutoRFMTH-4;");
    ctx.println("MINT needs the least storage (4 B/bank); Mithril needs >30K entries/bank.");

    for (&(th, tracker), &damage) in combos.iter().zip(&damages) {
        let th = th.to_string();
        let tracker = tracker.to_string();
        ctx.gauge(
            "mc_worst_damage",
            &[("th", &th), ("tracker", &tracker)],
            damage as f64,
        );
    }
}

//! Figure 16: escape probability as a function of damage, for Fractal
//! Mitigation and MINT-4 (Appendix-B model), plus the mixed-attack example.

use super::Ctx;
use crate::render_table;
use autorfm::analysis::FractalModel;

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Figure 16: escape probability vs damage (Appendix B) ===\n");
    let fm = FractalModel::default();
    let rows: Vec<Vec<String>> = (0..=15)
        .map(|i| {
            let d = i as f64 * 10.0;
            vec![
                format!("{d:.0}"),
                format!("{:.2e}", fm.escape_probability(d)),
                format!("{:.2e}", FractalModel::mint_escape_probability(4, d)),
            ]
        })
        .collect();
    ctx.print(render_table(
        &["damage", "escape (FM)", "escape (MINT-4)"],
        &rows,
    ));

    ctx.println(format!(
        "\nThresholds at escape 1e-18: FM TRH-D = {:.0} (paper 52)",
        fm.tolerated_trh_d()
    ));
    let mixed = fm.mixed_escape_probability(40.0, 4, 80.0);
    let pure = FractalModel::mint_escape_probability(4, 120.0);
    ctx.println(format!(
        "Mixed attack (40 FM + 80 MINT): escape {mixed:.1e} vs {pure:.1e} all-MINT"
    ));
    ctx.println("=> combining attacks is strictly weaker; direct attacks remain optimal.");
}

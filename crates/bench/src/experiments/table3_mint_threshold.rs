//! Table III: threshold tolerated by MINT (Appendix-A model).
//!
//! Paper values (MINT with recursive transitive handling under RFM):
//! W=4 → 96, W=8 → 182, W=16 → 356, W=32 → 702.

use super::Ctx;
use crate::render_table;
use autorfm::analysis::MintModel;

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Table III: TRH-D tolerated by MINT vs window (Appendix A) ===\n");
    let paper = [(4u32, 96u32), (8, 182), (16, 356), (32, 702)];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(w, p)| {
            let model = MintModel::rfm(w, true).tolerated_trh_d();
            vec![
                format!("{w}"),
                format!("{model:.0}"),
                format!("{p}"),
                format!("{:+.1}%", (model - p as f64) / p as f64 * 100.0),
            ]
        })
        .collect();
    ctx.print(render_table(
        &["window (W)", "model TRH-D", "paper TRH-D", "delta"],
        &rows,
    ));
}

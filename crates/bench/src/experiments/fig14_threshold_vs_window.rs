//! Figure 14: TRH-D tolerated by MINT vs window size, for Recursive and
//! Fractal Mitigation (Appendix-A closed form).

use super::Ctx;
use crate::render_table;
use autorfm::analysis::MintModel;

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Figure 14: MINT tolerated TRH-D vs window (Appendix A) ===\n");
    let rows: Vec<Vec<String>> = (2..=32u32)
        .step_by(2)
        .map(|w| {
            let rm = MintModel::auto_rfm(w, true).tolerated_trh_d();
            let fm = MintModel::auto_rfm(w, false).tolerated_trh_d();
            vec![format!("{w}"), format!("{rm:.0}"), format!("{fm:.0}")]
        })
        .collect();
    ctx.print(render_table(
        &["window (W)", "recursive TRH-D", "fractal TRH-D"],
        &rows,
    ));
    ctx.println("\nFractal sits below recursive at every window: FM selects from N slots");
    ctx.println("instead of N+1, so MINT mitigates each row more often.");
}

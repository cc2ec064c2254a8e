//! Table II: Rowhammer thresholds over DRAM generations.

use super::Ctx;
use crate::render_table;
use autorfm::analysis::TRH_HISTORY;

pub fn run(ctx: &mut Ctx) {
    ctx.println("=== Table II: Rowhammer threshold over time ===\n");
    let rows: Vec<Vec<String>> = TRH_HISTORY
        .iter()
        .map(|e| {
            vec![
                e.generation.to_string(),
                e.trh_s.map_or("-".into(), |v| format!("{v}")),
                e.trh_d.map_or("-".into(), |(lo, hi)| {
                    if lo == hi {
                        format!("{lo}")
                    } else {
                        format!("{lo} - {hi}")
                    }
                }),
            ]
        })
        .collect();
    ctx.print(render_table(&["generation", "TRH-S", "TRH-D"], &rows));
}

//! Worker entry point: fallible batched execution.
//!
//! Workers run a same-shape group of cells as lanes built from one
//! [`Warm`] value, so warmup runs at most once per unit (never, when the
//! caller already holds the shape's warm state). Each lane runs to
//! completion under its own unwind catch, so a panicking lane becomes one
//! structured per-cell error while the rest still produce their
//! (bitwise-identical) results.
//!
//! [`shape_units`] is the one grouping step in front of it, shared by the
//! daemon's scheduler and the experiment harness's `ResultCache::run`.

use autorfm::{warm_digest, KernelKind, SimConfig, SimResult, System, Warm};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The most lanes one work unit runs: the daemon's default batch width and
/// the cap on the harness's derived lane count.
pub const LANES: usize = 8;

/// Groups cells by shape (the [`warm_digest`] of their configuration) and
/// splits each group into work units of at most `lanes` cells, ready for
/// [`run_batch_fallible`]. Groups come out in first-seen order and cells
/// keep their input order, so the split is deterministic. `tag` rides along
/// with each configuration (a cell key, a job) to route its outcome back.
///
/// Returns `(shape, unit)` pairs.
pub fn shape_units<T: Clone>(
    cells: Vec<(T, SimConfig)>,
    lanes: usize,
) -> Vec<(u64, Vec<(T, SimConfig)>)> {
    let mut shapes: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<(T, SimConfig)>> = HashMap::new();
    for (tag, cfg) in cells {
        let shape = warm_digest(&cfg);
        if !groups.contains_key(&shape) {
            shapes.push(shape);
        }
        groups.entry(shape).or_default().push((tag, cfg));
    }
    shapes
        .into_iter()
        .flat_map(|shape| {
            groups[&shape]
                .chunks(lanes.max(1))
                .map(|unit| (shape, unit.to_vec()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// What one batched work unit produced.
pub struct BatchOutcome {
    /// Per-input outcome, in input order: the result, or the panic/config
    /// error message for that cell alone.
    pub results: Vec<Result<SimResult, String>>,
    /// The warm state the lanes were built from: the `warm` given, else
    /// lane 0's, warmed up cold (`None` when lane 0 cannot be built). Feed
    /// it back as `warm` for the next same-shape unit.
    pub warm: Option<Arc<Warm>>,
}

/// Renders a panic payload as the error string stored with the cell.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Runs `cfgs` to completion, one lane at a time, each built from one
/// [`Warm`] value: `warm` when given, else the one lane 0's machine gives up
/// straight after warmup ([`System::into_warm`]). Each lane is built
/// ([`System::from_warm`]) only when it is about to run and dropped before
/// the next is built, so at most the warm state and one lane are alive. A
/// lane the warm state cannot serve (none could be built, or a different
/// shape) is built standalone. Every lane runs under its own unwind catch: a
/// bad cell costs one error record, not the unit.
///
/// Results are bitwise-identical however the cell ends up executed —
/// built from warm state or standalone — which is what lets the store hold
/// one canonical record per cell.
pub fn run_batch_fallible(
    cfgs: &[SimConfig],
    warm: Option<Arc<Warm>>,
    kernel: KernelKind,
) -> BatchOutcome {
    let warm = warm.or_else(|| {
        let first = cfgs.first()?.clone();
        catch_unwind(AssertUnwindSafe(|| {
            System::new(first).ok()?.into_warm().ok()
        }))
        .ok()
        .flatten()
        .map(Arc::new)
    });
    let results = cfgs
        .iter()
        .map(|cfg| {
            catch_unwind(AssertUnwindSafe(|| -> Result<SimResult, String> {
                let mut lane = match warm.as_deref().map(|w| System::from_warm(cfg.clone(), w)) {
                    Some(Ok(lane)) => lane,
                    _ => System::new(cfg.clone()).map_err(|e| e.to_string())?,
                };
                Ok(lane.run_with(kernel))
            }))
            .map_err(panic_message)
            .and_then(|r| r)
        })
        .collect();
    BatchOutcome { results, warm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autorfm::experiments::Scenario;
    use autorfm::workloads::WorkloadSpec;

    fn cfg(scenario: Scenario) -> SimConfig {
        SimConfig::builder(WorkloadSpec::by_name("mcf").unwrap())
            .scenario(scenario)
            .cores(2)
            .instructions(4_000)
            .build()
            .unwrap()
    }

    /// Asserts each outcome is `Ok` and bitwise equal to a standalone run.
    fn assert_standalone(cfgs: &[SimConfig], results: &[Result<SimResult, String>]) {
        assert_eq!(cfgs.len(), results.len());
        for (c, r) in cfgs.iter().zip(results) {
            let standalone = System::new(c.clone()).unwrap().run_with(KernelKind::Event);
            assert_eq!(
                format!("{standalone:?}"),
                format!("{:?}", r.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn batch_results_match_standalone() {
        let cfgs = [
            cfg(Scenario::AutoRfm { th: 4 }),
            cfg(Scenario::Rfm { th: 8 }),
        ];
        let out = run_batch_fallible(&cfgs, None, KernelKind::Event);
        assert_standalone(&cfgs, &out.results);
        // Feeding the warm state back reproduces the same results.
        let warm = out.warm.unwrap();
        let again = run_batch_fallible(&cfgs, Some(Arc::clone(&warm)), KernelKind::Event);
        assert!(
            Arc::ptr_eq(&warm, again.warm.as_ref().unwrap()),
            "the given warm state is returned"
        );
        assert_standalone(&cfgs, &again.results);
    }

    #[test]
    fn mixed_shapes_degrade_to_per_lane_outcomes() {
        // Different seeds = different shapes: lane 1 cannot be built from
        // lane 0's warm state, so it is built standalone; both cells get
        // results.
        let a = cfg(Scenario::AutoRfm { th: 4 });
        let b = SimConfig {
            seed: 99,
            ..cfg(Scenario::AutoRfm { th: 4 })
        };
        let out = run_batch_fallible(&[a.clone(), b.clone()], None, KernelKind::Event);
        assert_standalone(&[a.clone(), b], &out.results);
        // The warm state is lane 0's: fed back, it reproduces lane 0.
        let warm = out.warm.expect("lane 0's warm state");
        let again = run_batch_fallible(&[a], Some(warm), KernelKind::Event);
        assert_eq!(
            format!("{:?}", out.results[0].as_ref().unwrap()),
            format!("{:?}", again.results[0].as_ref().unwrap())
        );
    }

    #[test]
    fn garbage_warm_state_falls_back_to_standalone_lanes() {
        let cfgs = [
            cfg(Scenario::AutoRfm { th: 4 }),
            cfg(Scenario::Rfm { th: 8 }),
        ];
        // Warm state of another shape (another seed) serves no lane.
        let other = SimConfig {
            seed: 99,
            ..cfg(Scenario::AutoRfm { th: 4 })
        };
        let foreign = Arc::new(System::new(other).unwrap().into_warm().unwrap());
        let out = run_batch_fallible(&cfgs, Some(foreign), KernelKind::Event);
        assert_standalone(&cfgs, &out.results);
    }

    #[test]
    fn empty_input_yields_empty_results() {
        let out = run_batch_fallible(&[], None, KernelKind::Event);
        assert!(out.results.is_empty());
        assert!(out.warm.is_none());
    }

    #[test]
    fn invalid_lane_zero_costs_only_its_own_record() {
        // No warm state can be built from lane 0, so its batchmates run
        // standalone and still match standalone runs.
        let bad = cfg(Scenario::AutoRfm { th: 0 });
        let good = [
            cfg(Scenario::AutoRfm { th: 4 }),
            cfg(Scenario::Rfm { th: 8 }),
        ];
        let cfgs = [bad, good[0].clone(), good[1].clone()];
        let out = run_batch_fallible(&cfgs, None, KernelKind::Event);
        assert!(out.results[0].is_err());
        assert!(out.warm.is_none());
        assert_standalone(&good, &out.results[1..]);
    }

    #[test]
    fn shape_units_group_by_shape_and_chunk_in_order() {
        let other_shape = |th| SimConfig {
            seed: 99,
            ..cfg(Scenario::Rfm { th })
        };
        let cells = vec![
            (0, cfg(Scenario::AutoRfm { th: 4 })),
            (1, other_shape(4)),
            (2, cfg(Scenario::Rfm { th: 8 })),
            (3, cfg(Scenario::Rfm { th: 16 })),
            (4, other_shape(8)),
        ];
        let units = shape_units(cells, 2);
        let tags: Vec<Vec<i32>> = units
            .iter()
            .map(|(_, unit)| unit.iter().map(|(tag, _)| *tag).collect())
            .collect();
        assert_eq!(tags, vec![vec![0, 2], vec![3], vec![1, 4]]);
        for (shape, unit) in &units {
            assert!(unit.iter().all(|(_, c)| warm_digest(c) == *shape));
        }
        assert_ne!(units[0].0, units[2].0);
    }

    #[test]
    fn invalid_cells_become_per_cell_errors() {
        // Window 0 is rejected by every tracker: a config error, not a panic,
        // and it must not take the valid lane down with it.
        let good = cfg(Scenario::AutoRfm { th: 4 });
        let bad = cfg(Scenario::AutoRfm { th: 0 });
        let out = run_batch_fallible(&[good, bad], None, KernelKind::Event);
        assert!(out.results[0].is_ok());
        assert!(out.results[1].is_err());
    }
}

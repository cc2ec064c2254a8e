//! Worker entry point: fallible batched execution.
//!
//! Workers run a same-shape group of cells as [`SimBatch`] lockstep lanes —
//! the warm-fork + trace-memo fast path from the batch harness. A panic in
//! one lane must not poison its batchmates, so this wrapper catches the
//! unwind and degrades to standalone per-lane runs, each under its own
//! catch, turning a panicking lane into one structured per-cell error while
//! the rest still produce their (bitwise-identical) results.

use autorfm::{KernelKind, SimBatch, SimConfig, SimResult, System};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one batched work unit produced.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-input outcome, in input order: the result, or the panic/config
    /// error message for that cell alone.
    pub results: Vec<Result<SimResult, String>>,
    /// Lane 0's post-warmup state, when capture was requested and the batch
    /// was built cold — feed it back as `warm` for the next same-shape batch.
    pub warm_state: Option<Vec<u8>>,
}

/// Renders a panic payload as the error string stored with the cell.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Runs each configuration standalone under its own unwind catch.
fn run_lanes_standalone(cfgs: &[SimConfig], kernel: KernelKind) -> Vec<Result<SimResult, String>> {
    cfgs.iter()
        .map(|cfg| {
            let cfg = cfg.clone();
            catch_unwind(AssertUnwindSafe(move || -> Result<SimResult, String> {
                Ok(System::new(cfg)
                    .map_err(|e| e.to_string())?
                    .run_with(kernel))
            }))
            .map_err(panic_message)
            .and_then(|r| r)
        })
        .collect()
}

/// Runs `cfgs` to completion as one lockstep batch (seeded from `warm` when
/// given), falling back to standalone per-lane runs if the batch cannot be
/// built or any lane panics mid-batch. Every cell therefore gets an
/// individual outcome; a single bad cell costs one error record, not the
/// batch. With `capture_warm` set (and no `warm` input), lane 0's warm state
/// is captured before stepping so the caller can seed future batches of the
/// same shape.
///
/// Results are bitwise-identical however the cell ends up executed —
/// batched, warm-forked, or standalone — which is what lets the store hold
/// one canonical record per cell.
pub fn run_batch_fallible(
    cfgs: &[SimConfig],
    warm: Option<&[u8]>,
    kernel: KernelKind,
    capture_warm: bool,
) -> BatchOutcome {
    let built = match warm {
        Some(bytes) => SimBatch::new_from_warm(cfgs.to_vec(), bytes),
        None => SimBatch::new(cfgs.to_vec()),
    };
    match built {
        Ok(mut batch) => {
            let warm_state = (capture_warm && warm.is_none()).then(|| batch.lane(0).warm_state());
            match catch_unwind(AssertUnwindSafe(move || batch.run_with(kernel))) {
                Ok(results) => BatchOutcome {
                    results: results.into_iter().map(Ok).collect(),
                    warm_state,
                },
                // A lane blew up mid-batch; the whole batch state is gone.
                // Re-run each cell alone so only the culprit reports an error.
                Err(_) => BatchOutcome {
                    results: run_lanes_standalone(cfgs, kernel),
                    warm_state,
                },
            }
        }
        Err(_) => BatchOutcome {
            results: run_lanes_standalone(cfgs, kernel),
            warm_state: None,
        },
    }
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

    #[test]
    fn batch_results_match_standalone() {
        let cfgs = [
            cfg(Scenario::AutoRfm { th: 4 }),
            cfg(Scenario::Rfm { th: 8 }),
        ];
        let out = run_batch_fallible(&cfgs, None, KernelKind::Event, true);
        assert!(out.warm_state.is_some());
        for (c, r) in cfgs.iter().zip(&out.results) {
            let standalone = System::new(c.clone()).unwrap().run_with(KernelKind::Event);
            assert_eq!(
                format!("{standalone:?}"),
                format!("{:?}", r.as_ref().unwrap())
            );
        }
        // Feeding the captured warm state back reproduces the same results.
        let warm = out.warm_state.unwrap();
        let again = run_batch_fallible(&cfgs, Some(&warm), KernelKind::Event, true);
        assert!(again.warm_state.is_none(), "no capture when warm was given");
        for (a, b) in out.results.iter().zip(&again.results) {
            assert_eq!(
                format!("{:?}", a.as_ref().unwrap()),
                format!("{:?}", b.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn mixed_shapes_degrade_to_per_lane_outcomes() {
        // Different seeds = different shapes: the batch build fails, but each
        // cell still gets its own standalone result.
        let a = cfg(Scenario::AutoRfm { th: 4 });
        let b = SimConfig {
            seed: 99,
            ..cfg(Scenario::AutoRfm { th: 4 })
        };
        let out = run_batch_fallible(&[a, b], None, KernelKind::Event, true);
        assert!(out.warm_state.is_none());
        assert_eq!(out.results.len(), 2);
        assert!(out.results.iter().all(Result::is_ok));
    }

    #[test]
    fn invalid_cells_become_per_cell_errors() {
        // Window 0 is rejected by every tracker: a config error, not a panic,
        // and it must not take the valid lane down with it.
        let good = cfg(Scenario::AutoRfm { th: 4 });
        let bad = cfg(Scenario::AutoRfm { th: 0 });
        let out = run_batch_fallible(&[good, bad], None, KernelKind::Event, true);
        assert!(out.results[0].is_ok());
        assert!(out.results[1].is_err());
    }
}

//! Property tests for the dirty-tracked wake cache and the indexed-queue
//! fast paths: after *every* mutation, the cached
//! [`MemController::next_event_at`] must equal the full-scan oracle
//! (`fresh_next_event_at`), and the event-kernel tick variants
//! (`tick_or_skip` + `tick_event`) must leave the controller bitwise
//! identical to unconditional ticking. Buffered writes take the same
//! cached path as inline ones, so the sweep covers both write policies.
//!
//! Op sequences are generated from a proptest-drawn seed via the repo's own
//! [`DetRng`] (the vendored proptest shim has no collection strategies), so
//! every failure reports a `(cfg_bits, seed, op_seed)` triple that replays
//! the exact sequence.

use autorfm_dram::{DeviceMitigation, DramConfig, DramDevice, RefreshPolicy};
use autorfm_mapping::ZenMap;
use autorfm_memctrl::{McConfig, MemController, MemRequest, PagePolicy, RetryPolicy, WritePolicy};
use autorfm_mitigation::MitigationKind;
use autorfm_sim_core::{Cycle, DetRng, DramTimings, Geometry, LineAddr};
use autorfm_snapshot::Writer;
use proptest::prelude::*;

/// One simulation step: 1 ns (mirrors `System`'s step grid).
const STEP: Cycle = Cycle::new(4);

/// A mutation the harness can apply to a controller.
#[derive(Debug, Clone, Copy)]
enum McOp {
    /// Enqueue a read or write to a pseudo-random line.
    Enqueue { line: u64, write: bool },
    /// Advance 1–8 steps, ticking each one (services, holds, retries).
    Tick { steps: u8 },
    /// Jump far ahead (up to a few tREFI) and tick once: drives REF, the
    /// per-tREFI RAA credit, and refresh-window rollovers in one move.
    Jump { ns: u64 },
    /// Drain accumulated responses.
    Drain,
}

/// Draws the next op: enqueues and tick bursts dominate, with occasional
/// long jumps (REF pressure) and response drains.
fn next_op(rng: &mut DetRng) -> McOp {
    match rng.gen_range(10) {
        0..=3 => McOp::Enqueue {
            line: rng.next_u64(),
            write: rng.gen_bool(0.3),
        },
        4..=7 => McOp::Tick {
            steps: 1 + rng.gen_range(8) as u8,
        },
        8 => McOp::Jump {
            ns: 100 + rng.gen_range(7900),
        },
        _ => McOp::Drain,
    }
}

/// Decodes 5 sweep bits into a controller/device configuration: both page
/// policies, both retry policies, both refresh policies, both mitigation
/// flavors that add asynchronous per-bank wakes (RAA/RFM and PRAC/ABO), and
/// both write policies (buffered writes join each bank's cached candidates,
/// and a drain-burst toggle dirties every bank).
fn decode_config(bits: u8) -> (McConfig, DramConfig) {
    let (open_page, per_request, per_bank_ref, prac, buffered) = (
        bits & 1 != 0,
        bits & 2 != 0,
        bits & 4 != 0,
        bits & 8 != 0,
        bits & 16 != 0,
    );
    let mc = McConfig {
        page_policy: if open_page {
            PagePolicy::Open
        } else {
            PagePolicy::ClosedWithinTras
        },
        retry: if per_request {
            RetryPolicy::PerRequest
        } else {
            RetryPolicy::WholeBank
        },
        write_policy: if buffered {
            WritePolicy::Buffered {
                capacity: 8,
                high: 6,
                low: 2,
            }
        } else {
            WritePolicy::Inline
        },
        queue_capacity: 8,
        ..McConfig::default()
    };
    let dram = DramConfig {
        geometry: Geometry::small(),
        mitigation: if prac {
            DeviceMitigation::Prac {
                abo_threshold: 4,
                policy: MitigationKind::Fractal,
            }
        } else {
            DeviceMitigation::auto_rfm(4)
        },
        timings: if prac {
            DramTimings::ddr5_prac()
        } else {
            DramTimings::ddr5()
        },
        refresh: if per_bank_ref {
            RefreshPolicy::PerBank
        } else {
            RefreshPolicy::AllBank
        },
        ..DramConfig::default()
    };
    (mc, dram)
}

fn build(mc_cfg: McConfig, dram_cfg: DramConfig, seed: u64) -> MemController<ZenMap> {
    let geometry = dram_cfg.geometry;
    let device = DramDevice::new(dram_cfg, seed).expect("valid dram config");
    MemController::new(
        ZenMap::new(geometry).expect("valid geometry"),
        device,
        mc_cfg,
    )
}

/// Applies `op` to `mc` at `*now`, advancing the clock, using the stepped
/// (unconditional) tick.
fn apply(mc: &mut MemController<ZenMap>, now: &mut Cycle, lines: u64, op: McOp, id: &mut u64) {
    match op {
        McOp::Enqueue { line, write } => {
            *id += 1;
            let _ = mc.enqueue(
                MemRequest {
                    id: *id,
                    core: 0,
                    line: LineAddr(line % lines),
                    is_write: write,
                },
                *now,
            );
        }
        McOp::Tick { steps } => {
            for _ in 0..steps {
                *now += STEP;
                mc.tick(*now);
            }
        }
        McOp::Jump { ns } => {
            *now += Cycle::from_ns(ns);
            mc.tick(*now);
        }
        McOp::Drain => {
            let _ = mc.take_responses();
        }
    }
}

fn snapshot_bytes(mc: &MemController<ZenMap>) -> Vec<u8> {
    let mut w = Writer::new();
    mc.snapshot_state(&mut w);
    w.bytes().to_vec()
}

proptest! {
    // 32 configurations: 256 cases keep about 8 op sequences per config.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cached wake equals a fresh full scan after every single mutation,
    /// across the config sweep. This is the wake-cache coherence invariant:
    /// any missing invalidation shows up as a stale (late) cached wake here.
    #[test]
    fn cached_wake_matches_fresh_scan_after_every_op(
        cfg_bits in 0u8..32,
        seed in 0u64..1000,
        op_seed in any::<u64>(),
    ) {
        let (mc_cfg, dram_cfg) = decode_config(cfg_bits);
        let lines = dram_cfg.geometry.total_lines();
        let mut mc = build(mc_cfg, dram_cfg, seed);
        let mut rng = DetRng::seeded(op_seed);
        let mut now = Cycle::from_ns(50);
        let mut id = 0u64;
        for i in 0..120 {
            let op = next_op(&mut rng);
            apply(&mut mc, &mut now, lines, op, &mut id);
            let fresh = mc.fresh_next_event_at(now);
            let cached = mc.next_event_at(now);
            prop_assert_eq!(
                cached, fresh,
                "cached wake diverged from full scan after op {} ({:?}) \
                 [cfg_bits={}, seed={}, op_seed={}]",
                i, op, cfg_bits, seed, op_seed
            );
            // Immediately re-querying (cache now clean) must agree too.
            prop_assert_eq!(mc.next_event_at(now), fresh);
        }
    }

    /// Driving the same op sequence through the stepped tick and through the
    /// event-kernel fast paths (`tick_or_skip`, then `tick_event`) leaves two
    /// controllers in bitwise-identical state with identical responses: the
    /// work the fast paths elide is provably dead.
    ///
    /// The event side queries its wake after only a random subset of steps,
    /// as the kernel does (a step with a hot core never asks): the ticks
    /// must keep the cache coherent on their own, without a query clearing
    /// the dirty banks in between.
    #[test]
    fn event_tick_variants_are_bitwise_identical_to_stepped_tick(
        cfg_bits in 0u8..32,
        seed in 0u64..1000,
        op_seed in any::<u64>(),
    ) {
        let (mc_cfg, dram_cfg) = decode_config(cfg_bits);
        let lines = dram_cfg.geometry.total_lines();
        let mut stepped = build(mc_cfg, dram_cfg.clone(), seed);
        let mut event = build(mc_cfg, dram_cfg, seed);
        let mut rng = DetRng::seeded(op_seed);
        let mut query_rng = DetRng::seeded(!op_seed);
        let mut now_s = Cycle::from_ns(50);
        let mut now_e = Cycle::from_ns(50);
        let (mut id_s, mut id_e) = (0u64, 0u64);
        let mut event_step = |mc: &mut MemController<ZenMap>, now: Cycle| {
            if !mc.tick_or_skip(now) {
                mc.tick_event(now);
            }
            if query_rng.gen_bool(0.3) {
                let _ = mc.next_event_at(now);
            }
        };
        for _ in 0..100 {
            let op = next_op(&mut rng);
            apply(&mut stepped, &mut now_s, lines, op, &mut id_s);
            match op {
                McOp::Tick { steps } => {
                    for _ in 0..steps {
                        now_e += STEP;
                        event_step(&mut event, now_e);
                    }
                }
                McOp::Jump { ns } => {
                    now_e += Cycle::from_ns(ns);
                    event_step(&mut event, now_e);
                }
                other => apply(&mut event, &mut now_e, lines, other, &mut id_e),
            }
            prop_assert_eq!(stepped.take_responses(), event.take_responses());
        }
        prop_assert_eq!(snapshot_bytes(&stepped), snapshot_bytes(&event));
    }
}

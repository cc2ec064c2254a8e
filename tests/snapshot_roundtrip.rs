//! Property tests for the snapshot subsystem: encode → decode → encode must
//! be the identity for every state-bearing `Snapshot` impl, and a restored
//! object must behave bitwise identically to the original from that point on.
//! Covers the state families the checkpoint format leans on hardest: RNG
//! streams, tracker tables, per-row disturbance counters, and the LLC.

use autorfm::cpu::{AccessResult, Llc, LlcParams};
use autorfm::dram::prac::PracState;
use autorfm::dram::RowhammerAudit;
use autorfm::sim_core::{BankId, DetRng, LineAddr, RowAddr};
use autorfm::snapshot::{Reader, Snapshot, Writer};
use autorfm::trackers::{build_tracker, TrackerKind};
use proptest::prelude::*;

/// Every tracker kind the simulator can build, straight from the plugin
/// registry — a newly registered tracker enters these properties with no
/// edit here.
const KINDS: [TrackerKind; TrackerKind::ALL.len()] = TrackerKind::ALL;

/// One random LLC operation over 64 lines of an 8-set cache, and what it
/// answered: an access's hit or miss, or the dirty line a fill or
/// invalidate hands back for writeback.
fn llc_op(llc: &mut Llc, rng: &mut DetRng) -> (Option<AccessResult>, Option<LineAddr>) {
    let line = LineAddr(rng.gen_range(64));
    match rng.gen_range(5) {
        0 => (Some(llc.access(line, false)), None),
        1 => (Some(llc.access(line, true)), None),
        2 => (None, llc.fill(line, line.0 % 2 == 1)),
        3 => (None, llc.invalidate(line)),
        _ => {
            llc.mark_dirty(line);
            (None, None)
        }
    }
}

proptest! {
    /// A mid-stream RNG round-trips: same bytes re-encoded, same draws after.
    #[test]
    fn rng_stream_round_trips(seed in any::<u64>(), burn in 0usize..64) {
        let mut rng = DetRng::seeded(seed);
        for _ in 0..burn {
            rng.next_u64();
        }
        let mut w = Writer::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = DetRng::decode(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        restored.encode(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..]);
        for _ in 0..8 {
            prop_assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    /// Every tracker's mutable state round-trips into a fresh same-config
    /// tracker, which then mitigates identically to the original.
    #[test]
    fn tracker_state_round_trips(
        kind_idx in 0usize..KINDS.len(),
        window in 1u32..64,
        n_acts in 0usize..300,
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_idx];
        let mut rng = DetRng::seeded(seed);
        let mut tracker = build_tracker(kind, window).unwrap();
        for _ in 0..n_acts {
            tracker.on_activation(RowAddr(rng.gen_range(4096) as u32), &mut rng);
        }
        let mut w = Writer::new();
        tracker.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = build_tracker(kind, window).unwrap();
        fresh.load_state(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        fresh.save_state(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..], "re-encode must be identity");

        let mut rng_a = DetRng::seeded(seed ^ 0xDEAD);
        let mut rng_b = DetRng::seeded(seed ^ 0xDEAD);
        for _ in 0..4 {
            let a = tracker.select_for_mitigation(&mut rng_a).map(|m| m.row);
            let b = fresh.select_for_mitigation(&mut rng_b).map(|m| m.row);
            prop_assert_eq!(a, b, "restored tracker must mitigate identically");
        }
    }

    /// PRAC per-row activation counters round-trip, including the pending
    /// ABO alert.
    #[test]
    fn prac_counters_round_trip(seed in any::<u64>(), n_acts in 0usize..400, th in 2u32..64) {
        let mut rng = DetRng::seeded(seed);
        let mut prac = PracState::new(th);
        for _ in 0..n_acts {
            prac.on_act(RowAddr(rng.gen_range(64) as u32));
        }
        let mut w = Writer::new();
        prac.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = PracState::new(th);
        fresh.load_state(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        fresh.save_state(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..]);
        prop_assert_eq!(prac.abo_pending(), fresh.abo_pending());
        for row in 0..64u32 {
            prop_assert_eq!(prac.count_of(RowAddr(row)), fresh.count_of(RowAddr(row)));
        }
    }

    /// The Rowhammer damage oracle's per-row counters round-trip.
    #[test]
    fn audit_damage_round_trips(seed in any::<u64>(), n_acts in 0usize..400) {
        let mut rng = DetRng::seeded(seed);
        let mut audit = RowhammerAudit::new(4, 128);
        for _ in 0..n_acts {
            let bank = BankId(rng.gen_range(4) as u16);
            let row = RowAddr(rng.gen_range(128) as u32);
            if rng.gen_bool(0.1) {
                audit.on_victim_refresh(bank, row);
            } else {
                audit.on_act(bank, row);
            }
        }
        let mut w = Writer::new();
        audit.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = RowhammerAudit::new(4, 128);
        fresh.load_state(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        fresh.save_state(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..]);
        prop_assert_eq!(audit.max_damage(), fresh.max_damage());
        prop_assert_eq!(audit.max_damage_row(), fresh.max_damage_row());
    }

    /// `reset()` mid-window leaves every tracker in a buildable, serializable
    /// state: the reset tracker's snapshot round-trips, and a fresh tracker
    /// restored from it mitigates identically.
    #[test]
    fn tracker_reset_midwindow_round_trips(
        kind_idx in 0usize..KINDS.len(),
        window in 1u32..64,
        n_acts in 0usize..300,
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_idx];
        let mut rng = DetRng::seeded(seed);
        let mut tracker = build_tracker(kind, window).unwrap();
        for _ in 0..n_acts {
            tracker.on_activation(RowAddr(rng.gen_range(4096) as u32), &mut rng);
        }
        tracker.reset();
        // Post-reset activity: the tracker must keep working.
        for _ in 0..8 {
            tracker.on_activation(RowAddr(rng.gen_range(4096) as u32), &mut rng);
        }
        let mut w = Writer::new();
        tracker.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = build_tracker(kind, window).unwrap();
        fresh.load_state(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        fresh.save_state(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..], "post-reset re-encode must be identity");

        let mut rng_a = DetRng::seeded(seed ^ 0xBEEF);
        let mut rng_b = DetRng::seeded(seed ^ 0xBEEF);
        for _ in 0..4 {
            let a = tracker.select_for_mitigation(&mut rng_a).map(|m| m.row);
            let b = fresh.select_for_mitigation(&mut rng_b).map(|m| m.row);
            prop_assert_eq!(a, b, "restored tracker must mitigate identically after reset");
        }
    }

    /// A used LLC round-trips: the same bytes re-encoded, and the decoded
    /// cache answers every later operation as the original does.
    #[test]
    fn llc_state_round_trips(seed in any::<u64>(), n_ops in 0usize..600) {
        let params = LlcParams { capacity_bytes: 2048, ways: 4, line_bytes: 64 };
        let mut rng = DetRng::seeded(seed);
        let mut llc = Llc::new(params).unwrap();
        for _ in 0..n_ops {
            llc_op(&mut llc, &mut rng);
        }
        let mut w = Writer::new();
        llc.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Llc::decode(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        restored.encode(&mut w2);
        prop_assert_eq!(w2.bytes(), &bytes[..], "re-encode must be identity");

        let mut rng_b = rng.clone();
        for _ in 0..200 {
            prop_assert_eq!(llc_op(&mut llc, &mut rng), llc_op(&mut restored, &mut rng_b));
        }
        prop_assert_eq!((llc.hits(), llc.misses()), (restored.hits(), restored.misses()));
    }

    /// Truncating an encoded tracker state never panics — it errors.
    #[test]
    fn truncated_state_errors_cleanly(
        kind_idx in 0usize..KINDS.len(),
        n_acts in 1usize..100,
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_idx];
        let mut rng = DetRng::seeded(seed);
        let mut tracker = build_tracker(kind, 8).unwrap();
        for _ in 0..n_acts {
            tracker.on_activation(RowAddr(rng.gen_range(4096) as u32), &mut rng);
        }
        let mut w = Writer::new();
        tracker.save_state(&mut w);
        let bytes = w.into_bytes();
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = rng.gen_range(bytes.len() as u64) as usize;
        let mut fresh = build_tracker(kind, 8).unwrap();
        // Either a clean decode error, or (for prefix-valid cuts) success —
        // never a panic.
        let _ = fresh.load_state(&mut Reader::new(&bytes[..cut]));
    }
}

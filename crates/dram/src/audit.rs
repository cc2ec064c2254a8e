//! Rowhammer damage oracle.
//!
//! The paper's success criterion (Section II-A): *"We declare an attack to be
//! successful when any row receives more than the threshold number of
//! activations without any intervening mitigation."*
//!
//! The audit tracks, for every row, the disturbance ("damage") accumulated
//! since the row's charge was last restored — one unit per activation of an
//! immediate neighbor. A victim refresh (or the row's own activation, which
//! also restores its charge) resets the row's damage. The maximum damage ever
//! observed is compared against the tolerated double-sided threshold
//! (`2 × TRH-D` units of combined neighbor activity ≈ `T`, the single-sided
//! equivalent of Appendix A).

use autorfm_mitigation::{DamageModel, MapDamage};
use autorfm_sim_core::{BankId, RowAddr};
use autorfm_snapshot::{Reader, SnapError, Snapshot, Writer};

/// Per-bank Rowhammer damage tracker (simulation oracle, not hardware).
///
/// Each bank's damage lives in a sparse [`MapDamage`]: a device has 64 banks
/// of 128K rows, and an attack touches only a handful of them.
#[derive(Debug, Clone)]
pub struct RowhammerAudit {
    /// damage[bank] = per-row neighbor activations since last charge restore.
    damage: Vec<MapDamage>,
    rows_per_bank: u32,
    max_damage: u64,
    /// Row that experienced the maximum damage (for diagnostics).
    max_row: Option<(BankId, RowAddr)>,
}

impl RowhammerAudit {
    /// Creates an audit for `num_banks` banks of `rows_per_bank` rows.
    pub fn new(num_banks: u16, rows_per_bank: u32) -> Self {
        RowhammerAudit {
            damage: vec![MapDamage::default(); num_banks as usize],
            rows_per_bank,
            max_damage: 0,
            max_row: None,
        }
    }

    /// Records an activation of `row`: both immediate neighbors take one unit
    /// of damage; the activated row's own charge is restored.
    pub fn on_act(&mut self, bank: BankId, row: RowAddr) {
        let hit = self.damage[bank.0 as usize].hammer(row, self.rows_per_bank);
        if let Some((n, d)) = hit {
            if d > self.max_damage {
                self.max_damage = d;
                self.max_row = Some((bank, n));
            }
        }
    }

    /// Records a victim refresh of `row`: its charge is restored, but — since
    /// a refresh is internally an activation — its own neighbors take one unit
    /// of disturbance. This is exactly the transitive (Half-Double) mechanism
    /// of Section V-A.
    pub fn on_victim_refresh(&mut self, bank: BankId, row: RowAddr) {
        self.on_act(bank, row);
    }

    /// Records a full refresh of the bank (REF restores every row it covers;
    /// we model REFab conservatively as restoring nothing, since per-row REF
    /// slots are spread over tREFW — call this only on tREFW boundaries).
    pub fn on_refresh_window_end(&mut self) {
        for map in &mut self.damage {
            map.clear();
        }
    }

    /// Current damage of a row.
    pub fn damage_of(&self, bank: BankId, row: RowAddr) -> u64 {
        self.damage[bank.0 as usize].get(row.0)
    }

    /// The maximum damage any row has ever accumulated (the attack's best
    /// result); compare against `2 × TRH-D`.
    pub fn max_damage(&self) -> u64 {
        self.max_damage
    }

    /// The row that suffered the maximum damage, if any.
    pub fn max_damage_row(&self) -> Option<(BankId, RowAddr)> {
        self.max_row
    }

    /// Serializes the damage maps (sorted by row for stable bytes).
    pub fn save_state(&self, w: &mut Writer) {
        self.damage.encode(w);
        w.put_u64(self.max_damage);
        self.max_row.encode(w);
    }

    /// Restores the state saved by [`RowhammerAudit::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the bank count differs from this audit's
    /// configuration or the input is malformed.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let damage = Vec::<MapDamage>::decode(r)?;
        if damage.len() != self.damage.len() {
            return Err(SnapError::corrupt("audit bank count mismatch"));
        }
        self.damage = damage;
        self.max_damage = r.take_u64()?;
        self.max_row = Option::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_accumulate_damage() {
        let mut a = RowhammerAudit::new(2, 1024);
        for _ in 0..10 {
            a.on_act(BankId(0), RowAddr(100));
        }
        assert_eq!(a.damage_of(BankId(0), RowAddr(99)), 10);
        assert_eq!(a.damage_of(BankId(0), RowAddr(101)), 10);
        assert_eq!(a.damage_of(BankId(0), RowAddr(100)), 0);
        assert_eq!(a.max_damage(), 10);
        assert_eq!(a.max_damage_row(), Some((BankId(0), RowAddr(99))));
    }

    #[test]
    fn double_sided_damage_adds_up() {
        let mut a = RowhammerAudit::new(1, 1024);
        for _ in 0..5 {
            a.on_act(BankId(0), RowAddr(99));
            a.on_act(BankId(0), RowAddr(101));
        }
        assert_eq!(a.damage_of(BankId(0), RowAddr(100)), 10);
    }

    #[test]
    fn victim_refresh_resets_damage() {
        let mut a = RowhammerAudit::new(1, 1024);
        for _ in 0..10 {
            a.on_act(BankId(0), RowAddr(100));
        }
        a.on_victim_refresh(BankId(0), RowAddr(101));
        assert_eq!(a.damage_of(BankId(0), RowAddr(101)), 0);
        assert_eq!(a.damage_of(BankId(0), RowAddr(99)), 10);
        // max_damage is a high-water mark and does not reset.
        assert_eq!(a.max_damage(), 10);
    }

    #[test]
    fn own_activation_restores_charge() {
        let mut a = RowhammerAudit::new(1, 1024);
        a.on_act(BankId(0), RowAddr(100)); // damages 99 and 101
        a.on_act(BankId(0), RowAddr(101)); // restores 101, damages 100 and 102
        assert_eq!(a.damage_of(BankId(0), RowAddr(101)), 0);
        assert_eq!(a.damage_of(BankId(0), RowAddr(100)), 1);
    }

    #[test]
    fn edge_rows_have_one_neighbor() {
        let mut a = RowhammerAudit::new(1, 16);
        a.on_act(BankId(0), RowAddr(0));
        assert_eq!(a.damage_of(BankId(0), RowAddr(1)), 1);
        a.on_act(BankId(0), RowAddr(15));
        assert_eq!(a.damage_of(BankId(0), RowAddr(14)), 1);
    }

    /// Pins the snapshot bytes of a fixed two-bank act/refresh sequence.
    #[test]
    fn save_state_format_is_pinned() {
        let mut a = RowhammerAudit::new(2, 1024);
        for i in 0..60u32 {
            a.on_act(BankId((i % 2) as u16), RowAddr(100 + i % 5));
            if i % 7 == 0 {
                a.on_victim_refresh(BankId(1), RowAddr(101 + i % 3));
            }
        }
        a.on_act(BankId(0), RowAddr(0));
        a.on_act(BankId(1), RowAddr(1023));
        let mut w = Writer::new();
        a.save_state(&mut w);
        assert_eq!(autorfm_snapshot::digest64(w.bytes()), 0xa214_6950_d111_068e);
        let mut b = RowhammerAudit::new(2, 1024);
        b.load_state(&mut Reader::new(w.bytes())).unwrap();
        let mut again = Writer::new();
        b.save_state(&mut again);
        assert_eq!(again.bytes(), w.bytes());
    }

    #[test]
    fn damage_map_count_beyond_data_is_rejected() {
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        w.put_u32(7);
        w.put_u64(3);
        assert!(MapDamage::decode(&mut Reader::new(w.bytes())).is_err());
    }

    #[test]
    fn refresh_window_clears_all() {
        let mut a = RowhammerAudit::new(1, 1024);
        a.on_act(BankId(0), RowAddr(5));
        a.on_refresh_window_end();
        assert_eq!(a.damage_of(BankId(0), RowAddr(4)), 0);
    }
}

//! The cluster TDMA schedule (paper §5.1.2).
//!
//! After cluster coloring, protocol rounds are time-multiplexed over the `φ`
//! cluster colors: a *super-round* consists of `φ` blocks of
//! `slots_per_round` slots, and only clusters of color `i` operate during
//! block `i`. All nodes derive the same decomposition from the global slot
//! counter (synchronized start), so the schedule needs no communication.

/// Decomposition of a global slot into (round, active color, slot-in-round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdmaSlot {
    /// Protocol round index (super-round).
    pub round: u64,
    /// Cluster color whose block this slot belongs to.
    pub active_color: u16,
    /// Slot index within the active block (`0..slots_per_round`).
    pub slot_in_round: u16,
}

/// A TDMA schedule with `phi` colors and `slots_per_round` slots per
/// protocol round.
///
/// # Examples
///
/// ```
/// use mca_core::Tdma;
/// let t = Tdma::new(3, 2); // 3 colors, 2 slots per round
/// let s = t.decompose(7);  // slot 7 = round 1, color 0, slot 1
/// assert_eq!((s.round, s.active_color, s.slot_in_round), (1, 0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tdma {
    phi: u16,
    slots_per_round: u16,
}

impl Tdma {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `phi` or `slots_per_round` is zero.
    pub fn new(phi: u16, slots_per_round: u16) -> Self {
        assert!(phi >= 1, "phi must be at least 1");
        assert!(slots_per_round >= 1, "slots_per_round must be at least 1");
        Tdma {
            phi,
            slots_per_round,
        }
    }

    /// A trivial schedule (single color), for pre-coloring phases.
    pub fn trivial(slots_per_round: u16) -> Self {
        Tdma::new(1, slots_per_round)
    }

    /// Number of colors `φ`.
    pub fn phi(&self) -> u16 {
        self.phi
    }

    /// Slots per protocol round per color.
    pub fn slots_per_round(&self) -> u16 {
        self.slots_per_round
    }

    /// Slots in one super-round (`φ · slots_per_round`).
    pub fn slots_per_super_round(&self) -> u64 {
        self.phi as u64 * self.slots_per_round as u64
    }

    /// Decomposes a global slot index.
    pub fn decompose(&self, slot: u64) -> TdmaSlot {
        let spsr = self.slots_per_super_round();
        let round = slot / spsr;
        let rem = slot % spsr;
        TdmaSlot {
            round,
            active_color: (rem / self.slots_per_round as u64) as u16,
            slot_in_round: (rem % self.slots_per_round as u64) as u16,
        }
    }

    /// Whether a node of cluster color `color` is in its active block at
    /// `slot`; returns the decomposition if so.
    pub fn my_slot(&self, slot: u64, color: u16) -> Option<TdmaSlot> {
        let d = self.decompose(slot);
        (d.active_color == color).then_some(d)
    }

    /// The first slot after `slot` inside a block of cluster color
    /// `color` — the least `u > slot` with [`Tdma::my_slot`]`(u, color)`
    /// set; `None` when the schedule has no such color. What a protocol
    /// that does nothing outside its own block answers to
    /// [`Protocol::quiet_until`](mca_radio::Protocol::quiet_until).
    pub fn next_my_slot(&self, slot: u64, color: u16) -> Option<u64> {
        if color >= self.phi {
            return None;
        }
        let next = slot.checked_add(1)?;
        // A one-colour schedule is one block: no remainder to take (this
        // is asked once per node-slot by protocols that hint).
        if self.phi == 1 {
            return Some(next);
        }
        let spr = self.slots_per_round as u64;
        let spsr = self.slots_per_super_round();
        let rem = next % spsr;
        let block_start = color as u64 * spr;
        if rem < block_start {
            next.checked_add(block_start - rem)
        } else if rem < block_start + spr {
            Some(next)
        } else {
            next.checked_add(spsr - rem + block_start)
        }
    }

    /// Total slots needed for `rounds` protocol rounds.
    pub fn slots_for_rounds(&self, rounds: u64) -> u64 {
        rounds * self.slots_per_super_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_schedule_is_identity_on_rounds() {
        let t = Tdma::trivial(3);
        let d = t.decompose(10);
        assert_eq!(d.round, 3);
        assert_eq!(d.active_color, 0);
        assert_eq!(d.slot_in_round, 1);
    }

    #[test]
    fn decomposition_walkthrough() {
        let t = Tdma::new(2, 3); // super-round = 6 slots
        let expect = [
            (0, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
            (1, 0, 0),
        ];
        for (slot, &(r, c, s)) in expect.iter().enumerate() {
            let d = t.decompose(slot as u64);
            assert_eq!((d.round, d.active_color, d.slot_in_round), (r, c, s));
        }
    }

    #[test]
    fn my_slot_filters_by_color() {
        let t = Tdma::new(3, 1);
        assert!(t.my_slot(0, 0).is_some());
        assert!(t.my_slot(0, 1).is_none());
        assert!(t.my_slot(1, 1).is_some());
        assert!(t.my_slot(5, 2).is_some());
    }

    #[test]
    fn slots_for_rounds_roundtrip() {
        let t = Tdma::new(4, 2);
        let slots = t.slots_for_rounds(10);
        assert_eq!(slots, 80);
        assert_eq!(t.decompose(slots).round, 10);
        assert_eq!(t.decompose(slots - 1).round, 9);
    }

    #[test]
    #[should_panic(expected = "phi must be at least 1")]
    fn zero_phi_rejected() {
        Tdma::new(0, 1);
    }

    proptest! {
        #[test]
        fn each_color_gets_equal_share(phi in 1u16..8, spr in 1u16..6, rounds in 1u64..20) {
            let t = Tdma::new(phi, spr);
            let total = t.slots_for_rounds(rounds);
            let mut per_color = vec![0u64; phi as usize];
            for s in 0..total {
                per_color[t.decompose(s).active_color as usize] += 1;
            }
            for &c in &per_color {
                prop_assert_eq!(c, rounds * spr as u64);
            }
        }

        #[test]
        fn next_my_slot_is_the_least_later_slot_of_the_color(
            phi in 1u16..8, spr in 1u16..6, color in 0u16..9, slot in 0u64..10_000,
        ) {
            let t = Tdma::new(phi, spr);
            let horizon = slot + 1 + t.slots_per_super_round();
            let expect = (slot + 1..=horizon).find(|&u| t.my_slot(u, color).is_some());
            prop_assert_eq!(t.next_my_slot(slot, color), expect);
            prop_assert_eq!(expect.is_some(), color < phi);
        }

        #[test]
        fn round_is_monotone(phi in 1u16..8, spr in 1u16..6, s1 in 0u64..10_000, s2 in 0u64..10_000) {
            let t = Tdma::new(phi, spr);
            if s1 <= s2 {
                prop_assert!(t.decompose(s1).round <= t.decompose(s2).round);
            }
        }
    }
}

//! Run metrics: slot, transmission, and reception accounting.

use std::fmt;

/// Counters accumulated by the engine over a run.
///
/// `slots` counts engine steps; the paper's *round* is a constant number of
/// slots defined by each protocol, so experiments convert via the protocol's
/// slots-per-round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Engine steps executed.
    pub slots: u64,
    /// Transmit actions.
    pub transmissions: u64,
    /// Listen actions.
    pub listens: u64,
    /// Idle actions (includes terminated nodes).
    pub idles: u64,
    /// Successful decodes delivered to listeners.
    pub receptions: u64,
    /// Listen slots that sensed power but decoded nothing (collision or
    /// out-of-range energy).
    pub busy_failures: u64,
    /// Listen slots on a completely silent channel.
    pub silent_listens: u64,
    /// Decodes suppressed by a dynamic channel condition (deep fade) — the
    /// SINR threshold was met but the environment dropped the reception.
    pub env_drops: u64,
    /// Per-channel transmission counts (index = channel).
    pub tx_per_channel: Vec<u64>,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a transmission on `channel`.
    pub(crate) fn record_tx(&mut self, channel: usize) {
        self.transmissions += 1;
        if self.tx_per_channel.len() <= channel {
            self.tx_per_channel.resize(channel + 1, 0);
        }
        self.tx_per_channel[channel] += 1;
    }

    /// Fraction of listen slots that decoded a message.
    pub fn reception_rate(&self) -> f64 {
        if self.listens == 0 {
            0.0
        } else {
            self.receptions as f64 / self.listens as f64
        }
    }

    /// Merges another metrics block into this one, element-wise:
    /// every counter sums, and `tx_per_channel` extends to cover the
    /// longer of the two before summing per channel. Combining runs or
    /// trials this way is exact — the result equals the metrics of the
    /// concatenated run.
    pub fn merge(&mut self, other: &Metrics) {
        self.slots += other.slots;
        self.transmissions += other.transmissions;
        self.listens += other.listens;
        self.idles += other.idles;
        self.receptions += other.receptions;
        self.busy_failures += other.busy_failures;
        self.silent_listens += other.silent_listens;
        self.env_drops += other.env_drops;
        if self.tx_per_channel.len() < other.tx_per_channel.len() {
            self.tx_per_channel.resize(other.tx_per_channel.len(), 0);
        }
        for (i, &v) in other.tx_per_channel.iter().enumerate() {
            self.tx_per_channel[i] += v;
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slots={} tx={} rx={} busy={} rx-rate={:.3}",
            self.slots,
            self.transmissions,
            self.receptions,
            self.busy_failures,
            self.reception_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tx_grows_channels() {
        let mut m = Metrics::new();
        m.record_tx(3);
        m.record_tx(0);
        m.record_tx(3);
        assert_eq!(m.transmissions, 3);
        assert_eq!(m.tx_per_channel, vec![1, 0, 0, 2]);
    }

    #[test]
    fn rates() {
        let mut m = Metrics::new();
        assert_eq!(m.reception_rate(), 0.0);
        m.listens = 10;
        m.receptions = 4;
        assert!((m.reception_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_is_element_wise_over_every_counter() {
        let mut a = Metrics {
            slots: 1,
            transmissions: 2,
            listens: 3,
            idles: 4,
            receptions: 5,
            busy_failures: 6,
            silent_listens: 7,
            env_drops: 8,
            tx_per_channel: vec![1, 2],
        };
        let b = Metrics {
            slots: 10,
            transmissions: 20,
            listens: 30,
            idles: 40,
            receptions: 50,
            busy_failures: 60,
            silent_listens: 70,
            env_drops: 80,
            tx_per_channel: vec![100],
        };
        a.merge(&b);
        let want = Metrics {
            slots: 11,
            transmissions: 22,
            listens: 33,
            idles: 44,
            receptions: 55,
            busy_failures: 66,
            silent_listens: 77,
            env_drops: 88,
            tx_per_channel: vec![101, 2],
        };
        assert_eq!(a, want);
    }

    #[test]
    fn merge_extends_tx_per_channel() {
        let mut a = Metrics::new();
        a.record_tx(0);
        let mut b = Metrics::new();
        b.record_tx(3);
        a.merge(&b);
        assert_eq!(a.tx_per_channel, vec![1, 0, 0, 1]);
        // And the shorter-into-longer direction keeps the tail.
        let mut c = Metrics::new();
        c.record_tx(5);
        c.merge(&a);
        assert_eq!(c.tx_per_channel, vec![1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Metrics::new();
        a.record_tx(1);
        a.slots = 9;
        let before = a.clone();
        a.merge(&Metrics::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Metrics::new()).is_empty());
    }
}

//! Per-slot actions and observations.
//!
//! The communication interface matches the paper's model (§2): in each slot
//! a node selects one channel and either transmits or listens on it; a node
//! operating on a channel learns nothing about other channels; transmitters
//! get no feedback (no collision detection, no transmitter-side carrier
//! sense); listeners get receiver-side carrier sense (total received power,
//! plus signal strength and SINR on a successful decode).

use crate::ids::{Channel, NodeId};
use mca_sinr::{ListenOutcome, SinrParams};

/// What a node does in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Transmit `msg` on `channel`.
    Transmit {
        /// Channel to transmit on.
        channel: Channel,
        /// Message payload.
        msg: M,
    },
    /// Listen on `channel`.
    Listen {
        /// Channel to listen on.
        channel: Channel,
    },
    /// Power down for the slot (neither transmit nor listen).
    Idle,
}

impl<M> Action<M> {
    /// The channel the action operates on, if any.
    pub fn channel(&self) -> Option<Channel> {
        match self {
            Action::Transmit { channel, .. } | Action::Listen { channel } => Some(*channel),
            Action::Idle => None,
        }
    }

    /// Whether this is a transmission.
    pub fn is_transmit(&self) -> bool {
        matches!(self, Action::Transmit { .. })
    }
}

/// A successfully decoded message together with the listener's carrier-sense
/// readings for the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Reception<M> {
    /// Sender's id (from the decoded frame header).
    pub from: NodeId,
    /// The decoded payload.
    pub msg: M,
    /// Received power of the decoded signal, `P/d^α`.
    pub signal: f64,
    /// SINR of the decoded signal.
    pub sinr: f64,
    /// Total received power over all transmitters on the channel.
    pub total_power: f64,
}

impl<M> Reception<M> {
    /// Interference sensed next to the decoded signal
    /// (`total_power − signal`), the quantity of Definition 4.
    pub fn sensed_interference(&self) -> f64 {
        (self.total_power - self.signal).max(0.0)
    }

    /// RSSI-based distance estimate to the sender (uniform power known).
    pub fn distance_estimate(&self, params: &SinrParams) -> f64 {
        params.distance_from_power(self.signal)
    }

    /// Definition 4 *clear reception* for radius `r`: sender within `r`
    /// (by signal strength) and sensed interference at most the
    /// radius-dependent threshold `T_s(r)`
    /// (see [`SinrParams::clear_threshold_for`]).
    pub fn is_clear(&self, params: &SinrParams, r: f64) -> bool {
        self.signal >= params.received_power(r)
            && self.sensed_interference() <= params.clear_threshold_for(r)
    }
}

/// What a node experienced in one slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation<M> {
    /// The node transmitted. It learns nothing (no transmitter-side
    /// detection).
    Sent,
    /// The node listened and decoded a message.
    Received(Reception<M>),
    /// The node listened and decoded nothing; `total_power` is the
    /// carrier-sense reading (0 for a silent channel).
    Noise {
        /// Total received power on the listened channel.
        total_power: f64,
    },
    /// The node idled.
    Slept,
}

impl<M> Observation<M> {
    /// The reception, if this observation decoded a message.
    pub fn reception(&self) -> Option<&Reception<M>> {
        match self {
            Observation::Received(r) => Some(r),
            _ => None,
        }
    }

    /// Builds an observation from a physical-layer [`ListenOutcome`],
    /// translating the decoded transmitter through `sender_of`.
    pub fn from_outcome<F>(outcome: &ListenOutcome, msg_of: F) -> Self
    where
        F: FnOnce(usize) -> (NodeId, M),
    {
        match outcome.decoded {
            Some(i) => {
                let (from, msg) = msg_of(i as usize);
                Observation::Received(Reception {
                    from,
                    msg,
                    signal: outcome.signal,
                    sinr: outcome.sinr,
                    total_power: outcome.total_power,
                })
            }
            None => Observation::Noise {
                total_power: outcome.total_power,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_channel_access() {
        let t: Action<u8> = Action::Transmit {
            channel: Channel(2),
            msg: 7,
        };
        assert_eq!(t.channel(), Some(Channel(2)));
        assert!(t.is_transmit());
        let l: Action<u8> = Action::Listen {
            channel: Channel(1),
        };
        assert_eq!(l.channel(), Some(Channel(1)));
        assert!(!l.is_transmit());
        assert_eq!(Action::<u8>::Idle.channel(), None);
    }

    #[test]
    fn reception_interference_and_distance() {
        let params = SinrParams::default();
        let d = 2.0;
        let sig = params.received_power(d);
        let r = Reception {
            from: NodeId(1),
            msg: (),
            signal: sig,
            sinr: 100.0,
            total_power: sig + 0.5,
        };
        assert!((r.sensed_interference() - 0.5).abs() < 1e-12);
        assert!((r.distance_estimate(&params) - d).abs() < 1e-9);
    }

    #[test]
    fn clear_reception_logic() {
        let params = SinrParams::default();
        let r = 1.0;
        let sig = params.received_power(0.5);
        let clear = Reception {
            from: NodeId(0),
            msg: (),
            signal: sig,
            sinr: 1e6,
            total_power: sig,
        };
        assert!(clear.is_clear(&params, r));
        let too_far = Reception {
            signal: params.received_power(1.5),
            total_power: params.received_power(1.5),
            ..clear.clone()
        };
        assert!(!too_far.is_clear(&params, r));
        let noisy = Reception {
            total_power: sig + params.clear_threshold_for(r) * 2.0,
            ..clear
        };
        assert!(!noisy.is_clear(&params, r));
    }

    #[test]
    fn observation_from_outcome() {
        let silent = ListenOutcome::SILENT;
        let obs: Observation<u8> = Observation::from_outcome(&silent, |_| unreachable!());
        assert!(matches!(obs, Observation::Noise { total_power } if total_power == 0.0));

        let decoded = ListenOutcome {
            decoded: Some(3),
            signal: 2.0,
            sinr: 5.0,
            total_power: 2.2,
        };
        let obs: Observation<u8> = Observation::from_outcome(&decoded, |i| {
            assert_eq!(i, 3);
            (NodeId(9), 42)
        });
        let rec = obs.reception().unwrap();
        assert_eq!(rec.from, NodeId(9));
        assert_eq!(rec.msg, 42);
        assert_eq!(rec.signal, 2.0);
    }
}

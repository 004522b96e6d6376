//! The node-program abstraction.

use crate::ids::Channel;
use crate::message::{Action, Observation};
use rand::rngs::SmallRng;

/// A distributed node program driven by the engine, one call pair per slot.
///
/// The engine calls [`Protocol::act`] at the start of each slot (collecting
/// every node's action *before* resolving the physical layer — synchronized
/// slots), then [`Protocol::observe`] with what the node experienced.
///
/// Implementations are state machines; they see only their own local state,
/// their RNG, and their observations — never the topology or other nodes'
/// state. This is what makes the simulation a faithful execution of a
/// distributed algorithm.
pub trait Protocol {
    /// The message type this protocol exchanges.
    type Msg: Clone;

    /// Decide this slot's action. `slot` is the global slot counter
    /// (all nodes start synchronized, per the paper's model).
    fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<Self::Msg>;

    /// Receive the outcome of the slot.
    fn observe(&mut self, slot: u64, obs: Observation<Self::Msg>, rng: &mut SmallRng);

    /// Whether the node has terminated its protocol. A run driven by
    /// `run_until_done` may stop once every node reports `true`.
    ///
    /// The engine asks once per slot, before [`Protocol::act`]. A node that
    /// answers `true` receives no `act` and no `observe` in that slot — so
    /// nothing can change its state, it is still done in the next slot, and
    /// the engine stops polling it for good. The answer may depend on
    /// protocol state only (it is a `&self` query with no slot argument),
    /// and may flip back to `false` only through
    /// [`Engine::protocols_mut`](crate::Engine::protocols_mut), after which
    /// the engine polls every node again.
    fn is_done(&self) -> bool {
        false
    }

    /// A wake hint: `Some(t)` promises that in every slot `u` with
    /// `slot < u < t` this node would be a no-op — [`Protocol::act`]`(u)`
    /// would return [`Action::Idle`] without drawing from its RNG, and
    /// neither that call nor the [`Observation::Slept`] that follows an
    /// idle slot would change anything a later call could observe
    /// ([`Protocol::is_done`] included). The engine then skips the node
    /// until slot `t` instead of polling it, bit-identically.
    ///
    /// Asked right after every `observe` of a polled node that is not done
    /// and left no standing window: after the `Slept` of a slot it idled
    /// in, and after the `Sent` or listen outcome of a slot it transmitted
    /// or listened in when [`Protocol::listen_until`] gave no window
    /// reaching past the next slot. So a node that acts in one slot of its
    /// schedule block can be parked from that very slot. The promise must
    /// hold given the state at that moment, and it is void once anyone
    /// takes [`Engine::protocols_mut`](crate::Engine::protocols_mut).
    /// `None` (the default) and any `t <= slot + 1` mean "poll me next
    /// slot". A protocol that listens outside its own schedule block must
    /// not promise quiet for those slots.
    fn quiet_until(&self, slot: u64) -> Option<u64> {
        let _ = slot;
        None
    }

    /// A standing-listener hint: `Some((channel, t))` promises that in
    /// every slot `u` with `slot < u < t` this node is only waiting to
    /// hear something — [`Protocol::act`]`(u)` would return
    /// [`Action::Listen`]` { channel }` (that same channel every time)
    /// without drawing from its RNG or changing state, and an
    /// [`Observation::Noise`] of any `total_power` would change nothing a
    /// later call could observe ([`Protocol::is_done`] included). The
    /// engine then stops polling the node: it counts its listen every
    /// slot, resolves it only in slots where its channel carries a
    /// transmitter, and calls [`Protocol::observe`] only with an
    /// [`Observation::Received`] — bit-identically, because everything it
    /// skips is a no-op by this promise.
    ///
    /// Asked right after the `observe` of a slot in which the node
    /// transmitted or listened (never of a done node), given the state at
    /// that moment, and again after every reception the node is handed
    /// while it stands: answering the same `(channel, t)` keeps it
    /// standing, anything else returns it to per-slot polling from the
    /// next slot. At slot `t` it is polled again. The promise is void once
    /// anyone takes [`Engine::protocols_mut`](crate::Engine::protocols_mut)
    /// or the fault plan's presence entries change — the engine then
    /// polls every node again — and the engine itself ends it at the
    /// node's crash slot and ignores it for a node on a duty cycle.
    /// `None` (the default) and any `t <= slot + 1` mean "poll me next
    /// slot". A protocol whose listen channel hops, or whose `observe`
    /// counts silent slots, must not answer for those slots.
    fn listen_until(&self, slot: u64) -> Option<(Channel, u64)> {
        let _ = slot;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol that transmits its id forever — exercises the trait's
    /// default `is_done`.
    struct Chatter(u8);

    impl Protocol for Chatter {
        type Msg = u8;
        fn act(&mut self, _slot: u64, _rng: &mut SmallRng) -> Action<u8> {
            Action::Transmit {
                channel: Channel::FIRST,
                msg: self.0,
            }
        }
        fn observe(&mut self, _slot: u64, _obs: Observation<u8>, _rng: &mut SmallRng) {}
    }

    #[test]
    fn default_is_done_is_false() {
        let c = Chatter(1);
        assert!(!c.is_done());
    }
}

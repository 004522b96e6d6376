//! The `MCA_FORCE_PAR=1` override — the lever CI's determinism job pulls
//! to re-run the whole suite with every multi-unit slot on the pool: it
//! forces a 4×4 shard grid onto engines that left sharding off and zeroes
//! the pooling bar.
//!
//! Lives in its own test binary: the override is read once per process,
//! so it must be set before the first `Engine` is built and would leak
//! into unrelated tests otherwise.

use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::{Action, Observation, Protocol};
use rand::rngs::SmallRng;

/// Node `i` uses channel `i / 2`; the first of each pair transmits, the
/// second listens.
struct Beacon(u32);
impl Protocol for Beacon {
    type Msg = u32;
    fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
        let channel = Channel((self.0 / 2) as u16);
        if self.0 & 1 == 0 {
            Action::Transmit { channel, msg: 7 }
        } else {
            Action::Listen { channel }
        }
    }
    fn observe(&mut self, _s: u64, _o: Observation<u32>, _r: &mut SmallRng) {}
}

#[test]
fn mca_force_par_forces_every_fanout_axis() {
    std::env::set_var("MCA_FORCE_PAR", "1");
    rayon::set_num_threads(2);
    let positions: Vec<Point> = (0..4)
        .map(|i| Point::new(2.0 * f64::from(i), 0.0))
        .collect();
    let engine = Engine::new(
        SinrParams::default(),
        positions,
        (0..4).map(Beacon).collect(),
        42,
    );
    assert!(engine.shards() >= 2, "a shard grid must be forced on");

    // A builder call cannot switch the forced grid back off...
    let engine = engine.with_shards(0);
    assert!(engine.shards() >= 2);
    // ...and an explicit larger shard grid is respected as-is.
    let mut engine = engine.with_shards(9);
    assert_eq!(engine.shards(), 9);

    // The pooling bar is zero: two one-listener units — microseconds of
    // work no unforced engine would hand to the pool — make the slot enter
    // it (the pool spawns lazily, at its first scope).
    assert_eq!(rayon::pool_stats().workers, 0, "nothing has pooled yet");
    engine.step();
    assert_eq!(
        rayon::pool_stats().workers,
        2,
        "the two-unit slot must have been submitted to the pool"
    );
    assert_eq!(
        engine.metrics().receptions,
        2,
        "the forced engine still runs"
    );
}

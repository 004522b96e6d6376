//! The `MCA_FORCE_PAR=1` override — the lever CI's determinism job pulls
//! to re-run the whole suite with every multi-unit slot on the pool: it
//! replaces the engine's derived shard grid with a 4×4 grid at every
//! worker count and zeroes the pooling bar.
//!
//! Lives in its own test binary: the override is read once per process,
//! so it must be set before the first `Engine` is built and would leak
//! into unrelated tests otherwise.

use multichannel_adhoc::obs::SpanKind;
use multichannel_adhoc::prelude::*;
use multichannel_adhoc::radio::shard::unit_grid;
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
    // The retired shard setting is inert: no value changes the run.
    let mut engine = Engine::new(
        SinrParams::default(),
        positions,
        (0..4).map(Beacon).collect(),
        42,
    )
    .with_shards(9);

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

    // The grid is forced at every worker count — one worker included,
    // where the derived grid leaves every channel whole. 600 listeners
    // spread over a 25 × 24 lattice around one transmitter fill every
    // cell of the 4 × 4 grid.
    rayon::set_num_threads(1);
    let positions: Vec<Point> = (0..601)
        .map(|i| Point::new(f64::from(i % 25), f64::from(i / 25)))
        .collect();
    let beacons = (0..601)
        .map(|i| Beacon(if i == 0 { 0 } else { 1 }))
        .collect();
    let mut engine = Engine::new(SinrParams::default(), positions, beacons, 42);
    engine.attach_obs(multichannel_adhoc::obs::Recorder::new());
    engine.step();
    rayon::set_num_threads(0);
    assert_eq!(unit_grid(1, 600, 1), 1, "unforced, one worker is one unit");
    let spans = engine.obs().expect("attached above").spans();
    let units = spans.iter().filter(|s| s.kind == SpanKind::Unit).count();
    assert_eq!(units, 16, "a 4 × 4 grid is forced at one worker");
}

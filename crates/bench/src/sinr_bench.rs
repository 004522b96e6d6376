//! Workloads and measurement for the batched SINR resolver benchmark.
//!
//! Shared between the `sinr_resolve` criterion bench and the
//! `experiments bench-sinr` JSON emitter so both measure exactly the same
//! thing: one "slot" = resolving every listener of every channel against
//! that channel's transmitter set.
//!
//! The baseline, [`seed_scan_slot`], is a frozen copy of the seed engine's
//! per-listener scan (`dist → powf(α)` kernel, one O(tx) pass per
//! listener) so the recorded speedups stay anchored to the pre-batching
//! hot path even as the live code evolves.

use mca_geom::Point;
use mca_sinr::{ChannelResolver, ResolveMode, SinrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// One benchmark world: per-channel transmitter and listener positions.
pub struct SinrWorld {
    /// Transmitter positions, per channel.
    pub tx: Vec<Vec<Point>>,
    /// Listener positions, per channel.
    pub rx: Vec<Vec<Point>>,
}

/// Builds a world of `n` nodes (half transmitting, half listening, dealt
/// round-robin over `channels` channels) on a uniform square deployment.
/// `dense` uses 4 nodes per unit area (hundreds of in-range interferers at
/// the default `R_T = 8`); sparse uses 1/4 node per unit area.
pub fn build_world(n: usize, channels: u16, dense: bool, seed: u64) -> SinrWorld {
    let side = if dense {
        (n as f64 / 4.0).sqrt()
    } else {
        (n as f64 * 4.0).sqrt()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tx = vec![Vec::new(); channels as usize];
    let mut rx = vec![Vec::new(); channels as usize];
    for i in 0..n {
        let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let ch = i % channels as usize;
        // Alternate roles per dealing round so every channel gets both
        // transmitters and listeners regardless of the channel count.
        if (i / channels as usize).is_multiple_of(2) {
            tx[ch].push(p);
        } else {
            rx[ch].push(p);
        }
    }
    SinrWorld { tx, rx }
}

/// Frozen copy of the seed engine's scalar resolution (pre-batching):
/// `received_power = P / dist.max(min_dist).powf(α)`, summed per listener
/// over the whole transmitter set. Returns (decoded?, total power).
fn seed_resolve_listener(params: &SinrParams, tx: &[Point], listener: Point) -> (bool, f64) {
    if tx.is_empty() {
        return (false, 0.0);
    }
    let mut total = 0.0;
    let mut best_pow = f64::NEG_INFINITY;
    for &t in tx {
        let d = t.dist(listener).max(params.min_dist);
        let p = params.power / d.powf(params.alpha);
        total += p;
        if p > best_pow {
            best_pow = p;
        }
    }
    let sinr = best_pow / (params.noise + (total - best_pow));
    (sinr >= params.beta, total)
}

/// One slot under the seed per-listener scan. Returns a checksum so the
/// optimizer cannot elide the work.
pub fn seed_scan_slot(params: &SinrParams, world: &SinrWorld) -> f64 {
    let mut acc = 0.0;
    for (tx, rx) in world.tx.iter().zip(&world.rx) {
        for &l in rx {
            let (decoded, total) = seed_resolve_listener(params, tx, l);
            acc += total + f64::from(u8::from(decoded));
        }
    }
    black_box(acc)
}

/// One slot through [`ChannelResolver`] (mode taken from `params.resolve`),
/// building the per-channel resolver once and resolving all of its
/// listeners in a batch — exactly what the engine hot path does.
pub fn batch_slot(params: &SinrParams, world: &SinrWorld) -> f64 {
    let mut out = Vec::new();
    let mut acc = 0.0;
    for (tx, rx) in world.tx.iter().zip(&world.rx) {
        let resolver = ChannelResolver::new(params, tx);
        resolver.resolve_batch_into(rx, 0.0, &mut out);
        for o in &out {
            acc += o.total_power + f64::from(u8::from(o.decoded.is_some()));
        }
    }
    black_box(acc)
}

/// Median wall time of `repeats` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut() -> f64>(repeats: usize, mut f: F) -> u128 {
    black_box(f()); // warm-up, untimed
    let mut samples: Vec<u128> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The benchmark matrix: node count × channel count × density.
pub const SINR_BENCH_CASES: [(usize, u16); 4] =
    [(1_000, 1), (1_000, 16), (10_000, 1), (10_000, 16)];

/// Runs the full matrix and renders `BENCH_sinr.json`: per case, the
/// median per-slot time of the seed scan, batched `Exact`, and batched
/// `Fast`, plus the speedups over the seed scan.
pub fn bench_sinr_json(repeats: usize) -> String {
    let exact = SinrParams::default();
    let fast = SinrParams::default().with_resolve(ResolveMode::fast());
    let mut cases = Vec::new();
    for &(n, channels) in &SINR_BENCH_CASES {
        for dense in [true, false] {
            let world = build_world(n, channels, dense, 7);
            let seed_ns = median_ns(repeats, || seed_scan_slot(&exact, &world));
            let exact_ns = median_ns(repeats, || batch_slot(&exact, &world));
            let fast_ns = median_ns(repeats, || batch_slot(&fast, &world));
            let density = if dense { "dense" } else { "sparse" };
            cases.push(format!(
                concat!(
                    "    {{\"n\": {}, \"channels\": {}, \"density\": \"{}\", ",
                    "\"seed_ns_per_slot\": {}, \"exact_ns_per_slot\": {}, ",
                    "\"fast_ns_per_slot\": {}, \"exact_speedup\": {:.2}, ",
                    "\"fast_speedup\": {:.2}}}"
                ),
                n,
                channels,
                density,
                seed_ns,
                exact_ns,
                fast_ns,
                seed_ns as f64 / exact_ns.max(1) as f64,
                seed_ns as f64 / fast_ns.max(1) as f64,
            ));
        }
    }
    format!(
        concat!(
            "{{\n  \"bench\": \"sinr_resolve\",\n",
            "  \"baseline\": \"seed per-listener scan (dist + powf kernel)\",\n",
            "  \"threads\": {},\n  \"repeats\": {},\n  \"cases\": [\n{}\n  ]\n}}\n"
        ),
        rayon::current_num_threads(),
        repeats,
        cases.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_scan_and_batch_exact_agree_on_decisions() {
        let params = SinrParams::default();
        let world = build_world(400, 4, true, 3);
        let mut out = Vec::new();
        for (tx, rx) in world.tx.iter().zip(&world.rx) {
            let resolver = ChannelResolver::new(&params, tx);
            resolver.resolve_batch_into(rx, 0.0, &mut out);
            for (k, &l) in rx.iter().enumerate() {
                let (decoded, total) = seed_resolve_listener(&params, tx, l);
                assert_eq!(out[k].decoded.is_some(), decoded);
                // Seed kernel (powf) and live kernel (squared-distance) agree
                // to rounding error.
                assert!((out[k].total_power - total).abs() <= 1e-9 * total.max(1.0));
            }
        }
    }

    #[test]
    fn bench_json_is_wellformed_smoke() {
        // 1 repeat on the smallest case keeps this a fast smoke test.
        let world = build_world(200, 2, false, 1);
        let params = SinrParams::default();
        assert!(seed_scan_slot(&params, &world).is_finite());
        assert!(batch_slot(&params, &world).is_finite());
        let fast = params.with_resolve(ResolveMode::fast());
        assert!(batch_slot(&fast, &world).is_finite());
    }
}

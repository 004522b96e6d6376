//! Adversarial-interleaving properties of the proactive maintainer.
//!
//! Claim table M2 of `EXPERIMENTS.md` measures three *concrete*
//! adversaries (tracking jammer, duty-cycled sleepers, correlated
//! fading). From the maintainer's point of view every one of them
//! reduces to the same stream: detector flags (`Degraded`/`Recovered`)
//! interleaved with lifecycle churn (`Crashed`/`Joined`), arriving in an
//! order the adversary — not the maintainer — chooses. These properties
//! quantify over that space directly: *any* such interleaving must leave
//! the structure audit-clean after every proactive repair epoch, and the
//! whole evolution must be a pure function of the interleaving (the
//! determinism contract the adversary bench leans on when it compares
//! reactive and proactive arms over bit-identical worlds).

use mca_core::{
    AlgoConfig, MaintainConfig, NetworkEnv, RepairReport, StructureConfig, StructureMaintainer,
    SubstrateMode,
};
use mca_geom::Deployment;
use mca_radio::{DetectionEvent, NodeEvent, NodeId};
use mca_sinr::SinrParams;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn world(n: usize, side: f64, seed: u64) -> (NetworkEnv, StructureConfig) {
    let params = SinrParams::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let deploy = Deployment::uniform(n, side, &mut rng);
    let env = NetworkEnv::new(params, &deploy);
    let algo = AlgoConfig::practical(4, &params, n);
    let mut cfg = StructureConfig::new(algo, seed);
    cfg.substrate = SubstrateMode::Oracle;
    (env, cfg)
}

/// One adversarial op against the maintainer. The `u32` payloads are
/// reduced mod `n` at application time so any draw is a valid node.
#[derive(Debug, Clone, Copy)]
enum Op {
    Degrade(u32),
    Recover(u32),
    Crash(u32),
    Join(u32),
}

/// Degradations dominate the draw, the way a jam blast or a sleep window
/// floods the detector; churn stays a light garnish so the audit
/// tolerances are judging repair quality, not world destruction.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0u32..u32::MAX).prop_map(|(sel, raw)| match sel {
        0..=3 => Op::Degrade(raw),
        4 | 5 => Op::Recover(raw),
        6 => Op::Crash(raw),
        _ => Op::Join(raw),
    })
}

/// Applies `ops` epoch by epoch, repairing proactively after each chunk.
/// Returns the per-epoch repair reports and the final flag set.
fn evolve(
    env: &NetworkEnv,
    cfg: StructureConfig,
    ops: &[Op],
    epoch_len: usize,
    seed: u64,
) -> Result<(Vec<RepairReport>, Vec<u32>), TestCaseError> {
    let n = env.positions.len() as u32;
    let mut m = StructureMaintainer::build(env, cfg, MaintainConfig::default(), None);
    let mut down: Vec<bool> = vec![false; n as usize];
    let mut downs = 0usize;
    let mut reports = Vec::new();
    for (e, chunk) in ops.chunks(epoch_len.max(1)).enumerate() {
        let now = (e as u64 + 1) * 50;
        for (k, op) in chunk.iter().enumerate() {
            let slot = now - 50 + k as u64;
            match *op {
                Op::Degrade(raw) => m.observe_detection(&DetectionEvent::Degraded {
                    node: NodeId(raw % n),
                    slot,
                    score: 0.1,
                    since: slot.saturating_sub(5),
                }),
                Op::Recover(raw) => m.observe_detection(&DetectionEvent::Recovered {
                    node: NodeId(raw % n),
                    slot,
                    score: 0.9,
                }),
                // Cap concurrent downs at n/8 so the audit judges the
                // repair, not a world with half its nodes missing.
                Op::Crash(raw) => {
                    let id = raw % n;
                    if !down[id as usize] && downs < n as usize / 8 {
                        down[id as usize] = true;
                        downs += 1;
                        m.observe(&NodeEvent::Crashed {
                            node: NodeId(id),
                            slot,
                        });
                    }
                }
                Op::Join(raw) => {
                    let id = raw % n;
                    if down[id as usize] {
                        down[id as usize] = false;
                        downs -= 1;
                        m.observe(&NodeEvent::Joined {
                            node: NodeId(id),
                            slot,
                        });
                    }
                }
            }
        }
        let report = m.repair_at(env, seed ^ e as u64, now);
        let audit = m.audit(env);
        if let Err(msg) = audit.check(&m.tolerances()) {
            return Err(TestCaseError::fail(format!(
                "epoch {e}: structure audit failed after proactive repair: {msg}"
            )));
        }
        reports.push(report);
    }
    Ok((reports, m.flagged_nodes()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any flag/recover/crash/join interleaving, chunked into epochs of
    /// any size, leaves the structure audit-clean after every proactive
    /// repair — the core robustness claim behind the adversary bench.
    #[test]
    fn random_interleavings_stay_audit_clean_under_proactive_repair(
        world_seed in 0u64..1_000,
        repair_seed in 0u64..u64::MAX,
        n in 50usize..90,
        epoch_len in 1usize..12,
        ops in proptest::collection::vec(op_strategy(), 1..48),
    ) {
        let (env, cfg) = world(n, 10.0, world_seed);
        evolve(&env, cfg, &ops, epoch_len, repair_seed)?;
    }

    /// The evolution is a pure function of the interleaving: rebuilding
    /// the same world and replaying the same ops yields bit-identical
    /// repair reports and the same final flag set.
    #[test]
    fn interleaved_evolution_is_deterministic(
        world_seed in 0u64..1_000,
        repair_seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        let (env, cfg) = world(70, 10.0, world_seed);
        let first = evolve(&env, cfg, &ops, 8, repair_seed)?;
        let (env2, cfg2) = world(70, 10.0, world_seed);
        let second = evolve(&env2, cfg2, &ops, 8, repair_seed)?;
        prop_assert_eq!(first, second, "replaying the interleaving diverged");
    }
}

/// Flag bookkeeping mechanics, pinned without randomness: a degradation
/// flags only live nodes, a recovery clears the flag, and a crash retires
/// it so dead nodes never queue proactive work.
#[test]
fn flags_track_liveness_transitions() {
    let (env, cfg) = world(60, 10.0, 42);
    let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
    let degraded = |node: u32, slot: u64| DetectionEvent::Degraded {
        node: NodeId(node),
        slot,
        score: 0.2,
        since: slot.saturating_sub(3),
    };
    m.observe_detection(&degraded(5, 10));
    assert!(m.is_flagged(5));
    m.observe_detection(&DetectionEvent::Recovered {
        node: NodeId(5),
        slot: 20,
        score: 0.9,
    });
    assert!(!m.is_flagged(5), "recovery must clear the flag");

    m.observe(&NodeEvent::Crashed {
        node: NodeId(7),
        slot: 25,
    });
    m.observe_detection(&degraded(7, 30));
    assert!(!m.is_flagged(7), "dead nodes take no proactive work");
}

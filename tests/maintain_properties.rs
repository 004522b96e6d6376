//! `audit_structure` as the repair oracle: every maintainer operation —
//! crash, join, handover, and random interleavings of all three — must
//! leave the structure audit-clean over the live subset, and on a static
//! world repair must be (a) free and (b) in the same audit equivalence
//! class as a from-scratch rebuild.

use multichannel_adhoc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn world(n: usize, side: f64, seed: u64) -> (NetworkEnv, StructureConfig) {
    let params = SinrParams::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let deploy = Deployment::uniform(n, side, &mut rng);
    let env = NetworkEnv::new(params, &deploy);
    let algo = AlgoConfig::practical(4, &params, n);
    let mut cfg = StructureConfig::new(algo, seed);
    // Oracle substrate keeps the proptest wall-clock reasonable; the
    // repair phases themselves always run as distributed protocols.
    cfg.substrate = SubstrateMode::Oracle;
    (env, cfg)
}

/// One scripted world mutation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Crash node `(pick % live)`.
    Crash(u8),
    /// Re-join a previously crashed node (no-op if none).
    Join(u8),
    /// Teleport node `(pick % n)` towards the position of node
    /// `(to % n)` — mobility compressed into one step.
    Move(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..=255, 0u8..=255).prop_map(|(kind, a, b)| match kind {
        0 => Op::Crash(a),
        1 => Op::Join(a),
        _ => Op::Move(a, b),
    })
}

/// 12 cases, or `PROPTEST_CASES` when set, so a deep run needs no edit.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random interleavings of crashes, joins, and motion, digested over
    /// several repair epochs: the masked audit holds after every repair.
    #[test]
    fn repairs_leave_structure_audit_clean(
        world_seed in 0u64..4,
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let n = 120usize;
        let (env, cfg) = world(n, 11.0, 1000 + world_seed);
        let mut env = env;
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        m.audit(&env).assert_sound();
        let mut slot = 0u64;
        let mut crashed: Vec<u32> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            slot += 10;
            match *op {
                Op::Crash(pick) => {
                    let live: Vec<u32> =
                        (0..n as u32).filter(|&i| m.alive()[i as usize]).collect();
                    if live.len() <= 1 {
                        continue;
                    }
                    let node = live[pick as usize % live.len()];
                    crashed.push(node);
                    m.observe(&NodeEvent::Crashed { node: NodeId(node), slot });
                }
                Op::Join(pick) => {
                    if crashed.is_empty() {
                        continue;
                    }
                    let node = crashed.remove(pick as usize % crashed.len());
                    m.observe(&NodeEvent::Joined { node: NodeId(node), slot });
                }
                Op::Move(pick, to) => {
                    let node = pick as usize % n;
                    let target = to as usize % n;
                    let from = env.positions[node];
                    let dest = env.positions[target];
                    // Land next to the target, not on top of it.
                    let moved = Point::new(dest.x + 0.2, dest.y);
                    env.positions[node] = moved;
                    m.observe(&NodeEvent::Moved {
                        node: NodeId(node as u32),
                        slot,
                        from,
                        to: moved,
                    });
                }
            }
            // Repair every few ops (and always after the last), so the
            // oracle sees both batched and immediate digestion.
            if k % 3 == 2 || k + 1 == ops.len() {
                m.repair(&env, 0xA0_0000 + k as u64);
                let audit = m.audit(&env);
                prop_assert!(
                    audit.check(&m.tolerances()).is_ok(),
                    "audit violation after op {k} ({op:?}): {:?}",
                    audit.check(&m.tolerances())
                );
            }
        }
    }
}

#[test]
fn static_world_repair_is_free_and_equivalent_to_rebuild() {
    for seed in [2u64, 4, 6] {
        let (env, cfg) = world(150, 11.0, seed);
        let mut m = StructureMaintainer::build(&env, cfg, MaintainConfig::default(), None);
        // (a) No churn, no mobility: repair is a no-op with zero slot cost,
        // and the structure is untouched.
        let before = m.structure().records.clone();
        let report = m.repair(&env, 99);
        assert_eq!(report.kind, RepairKind::Clean);
        assert_eq!(report.total_slots(), 0);
        assert_eq!(m.structure().records, before);

        // (b) Repair == rebuild as an *equivalence class*: after a crash,
        // the repaired structure and a from-scratch rebuild over the same
        // live set both satisfy the same audit invariants (they need not be
        // structurally identical — repair is local, rebuild is global).
        let victim = m
            .structure()
            .dominators()
            .into_iter()
            .max_by_key(|&d| m.structure().members_of(d).len())
            .unwrap();
        m.observe(&NodeEvent::Crashed {
            node: victim,
            slot: 10,
        });
        let report = m.repair(&env, 101);
        assert_ne!(report.kind, RepairKind::Clean);
        let repaired = m.audit(&env);
        repaired.check(&m.tolerances()).unwrap();

        let alive: Vec<bool> = m.alive().to_vec();
        let rebuilt = build_structure_masked(&env, &cfg, Some(&alive));
        let rebuilt_audit =
            audit_structure_masked(&env, &rebuilt, cfg.cluster_radius, Some(&alive));
        rebuilt_audit.check(&AuditTolerances::default()).unwrap();

        // Same world, same invariant class: node counts agree, both fully
        // clustered, and both within the certified attachment bound.
        assert_eq!(repaired.n, rebuilt_audit.n);
        assert_eq!(repaired.unclustered, 0);
        assert_eq!(rebuilt_audit.unclustered, 0);
        assert_eq!(repaired.dangling_members, 0);
    }
}

#[test]
fn masked_build_equals_unmasked_when_everyone_lives() {
    let (env, cfg) = world(100, 10.0, 21);
    let full = build_structure(&env, &cfg);
    let masked = build_structure_masked(&env, &cfg, Some(&[true; 100]));
    assert_eq!(full.records, masked.records);
    assert_eq!(full.report, masked.report);
    assert_eq!(full.phi, masked.phi);
}

#[test]
fn members_index_matches_record_scan() {
    let (env, cfg) = world(140, 11.0, 23);
    let s = build_structure(&env, &cfg);
    for d in s.dominators() {
        let via_index: Vec<NodeId> = s.members_of(d).to_vec();
        let via_scan: Vec<NodeId> = s
            .records
            .iter()
            .filter(|r| r.cluster == Some(d))
            .map(|r| r.id)
            .collect();
        assert_eq!(via_index, via_scan, "index drifted for cluster {d}");
    }
    // Non-dominator ids index an empty member list.
    let follower = s
        .records
        .iter()
        .find(|r| !r.role.is_dominator())
        .map(|r| r.id)
        .unwrap();
    assert!(s.members_of(follower).is_empty());
}

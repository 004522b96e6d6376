//! The paper's claims as tables: one registry on one trial runner.
//!
//! The source paper is a theory paper, so its "tables and figures" are the
//! complexity claims of Theorems 22/24 and Lemmas 2-16, reproduced here as
//! scaling tables at reduced size. [`claim_tables`] lists them in print
//! order; a [`ClaimTable`] renders its tables for a trial count. Each row
//! of a table is an *arm* with its own master seed, and a table runs every
//! (arm, seed) trial as one enumeration of [`run_seeded_rows`], so the
//! numbers do not depend on the thread count. M1 and M2 (repair vs rebuild,
//! reactive vs proactive repair) come from one maintained-world harness,
//! [`maintained`], which runs seeds 1-3 of named worlds through one
//! [`TrialSet`](mca_scenario::TrialSet) per table, the same batch
//! executor.
//!
//! A render returns `Err` when a gate of its entry fails; the committed
//! file then fails as a `GATE`, and `experiments <id>` exits non-zero.
//! `experiments <id> [trials]` prints one entry and `experiments all
//! [trials]` every entry; the committed `EXPERIMENTS.md`
//! ([`experiments_md`]) is every entry at [`CLAIM_TRIALS`] trials.

use crate::maintained;
use mca_analysis::{Summary, Table, TrialOutcome};
use mca_baselines as baselines;
use mca_core::ruling::{self, ProbPolicy, RulingConfig, RulingOutcome, RulingSet, TimeoutRule};
use mca_core::{
    aggregate, audit_structure, build_structure, color_nodes, AlgoConfig, Constants,
    InterclusterMode, MaxAgg, NetworkEnv, StructureConfig, SubstrateMode, Tdma,
};
use mca_geom::{Deployment, Point};
use mca_radio::{Channel, Engine, NodeId};
use mca_scenario::run_seeded_rows;
use mca_sinr::SinrParams;
use rand::{rngs::SmallRng, SeedableRng};

/// One entry of the registry: an experiment id and the tables it renders.
pub struct ClaimTable {
    /// The id on the `experiments` command line (`e1`, `t1`, `a3`, …).
    pub id: &'static str,
    /// Renders the entry's tables at `trials` trials per arm, or says
    /// which of the entry's gates failed.
    pub render: fn(trials: usize) -> Result<Vec<Table>, String>,
}

impl ClaimTable {
    /// The entry as printed: each table followed by a blank line, or the
    /// reason its gate failed.
    pub fn section(&self, trials: usize) -> Result<String, String> {
        let tables = (self.render)(trials)?;
        Ok(tables.iter().map(|t| format!("{t}\n")).collect())
    }
}

/// Trials per arm of the committed `EXPERIMENTS.md`, and the default of
/// `experiments all`.
pub const CLAIM_TRIALS: usize = 2;

const CLAIMS: &[ClaimTable] = &[
    ClaimTable {
        id: "e1",
        render: e1_speedup,
    },
    ClaimTable {
        id: "e2",
        render: e2_scaling_n,
    },
    ClaimTable {
        id: "e3",
        render: e3_delta,
    },
    ClaimTable {
        id: "e4",
        render: e4_coloring,
    },
    ClaimTable {
        id: "e5",
        render: e5_ruling,
    },
    ClaimTable {
        id: "e6",
        render: e6_dominate,
    },
    ClaimTable {
        id: "e7",
        render: e7_csa,
    },
    ClaimTable {
        id: "e8",
        render: e8_reporters,
    },
    ClaimTable {
        id: "e10",
        render: e10_lower_bounds,
    },
    ClaimTable {
        id: "e11",
        render: e11_lemmas,
    },
    ClaimTable {
        id: "e12",
        render: e12_applications,
    },
    ClaimTable {
        id: "e13",
        render: e13_multimessage,
    },
    ClaimTable {
        id: "e14",
        render: e14_compressibility,
    },
    ClaimTable {
        id: "e15",
        render: e15_mis,
    },
    ClaimTable {
        id: "e16",
        render: e16_mobility,
    },
    ClaimTable {
        id: "t1",
        render: t1_comparison,
    },
    ClaimTable {
        id: "a1",
        render: a1_ablations,
    },
    ClaimTable {
        id: "a2",
        render: a2_faults,
    },
    ClaimTable {
        id: "a3",
        render: a3_gossip,
    },
    ClaimTable {
        id: "m1",
        render: maintained::m1_repair,
    },
    ClaimTable {
        id: "m2",
        render: maintained::m2_adversary,
    },
];

/// Every claim table, in print order.
pub fn claim_tables() -> &'static [ClaimTable] {
    CLAIMS
}

/// The committed `EXPERIMENTS.md`: a preamble, then every entry of
/// [`claim_tables`] at [`CLAIM_TRIALS`] trials, or the first failed gate
/// as `<id>: <reason>`.
pub fn experiments_md() -> Result<String, String> {
    let mut md = format!(
        "# EXPERIMENTS\n\n\
         The source paper's claims (Theorems 22 and 24, Lemmas 2-16 and the\n\
         lower bounds) as scaling tables at reduced size: E1-E11 probe the\n\
         theorems and lemmas, E12-E16 the applications and dynamic worlds,\n\
         T1 compares the related-work baselines, A1-A3 are ablations, and\n\
         M1-M2 keep the hierarchy under churn, mobility and adversaries.\n\
         Every cell is simulated (slots, counts, rates) and summarizes the\n\
         row's seeds: the median, or the mean for fractional counts. M1-M2\n\
         are the exception: their cells are sums over seeds 1-3, and their\n\
         latencies are the worst seed's, not medians. No cell is a host\n\
         time.\n\n\
         Generated from `crates/bench/src/claims.rs` by `experiments\n\
         artifacts --write` at {CLAIM_TRIALS} trials per row (E11 runs 3);\n\
         `experiments <id> [trials]` prints one section. Do not edit.\n\n"
    );
    for claim in claim_tables() {
        let section = claim.section(CLAIM_TRIALS);
        md.push_str(&section.map_err(|why| format!("{}: {why}", claim.id))?);
    }
    Ok(md)
}

/// Runs `trials` seeds of every arm as one enumeration: arm `a` derives
/// its seeds from `master(a)`, and its results come back in seed order.
fn sweep<A: Sync, T: Send>(
    arms: &[A],
    master: impl Fn(&A) -> u64,
    trials: usize,
    trial: impl Fn(&A, u64) -> T + Sync,
) -> Vec<TrialOutcome<T>> {
    let masters: Vec<u64> = arms.iter().map(master).collect();
    run_seeded_rows(&masters, trials, true, |row, seed| trial(&arms[row], seed))
}

/// One full build+aggregate measurement.
#[derive(Debug, Clone)]
struct AggMeasurement {
    /// Construction slots.
    build_slots: u64,
    /// Follower-to-reporter slots.
    follower_slots: u64,
    /// Total aggregation slots.
    agg_slots: u64,
    /// Max degree of the communication graph.
    delta: usize,
    /// Approximate diameter.
    diameter: u32,
    /// Whether the sink learned the true maximum.
    correct: bool,
    /// Peak of the Lemma-19 contention trace (`P_c(v)/f_v`).
    contention_peak: f64,
}

/// Standard workload: uniform deployment, max-aggregation via the flood
/// inter-cluster mode.
fn measure_aggregation(
    n: usize,
    side: f64,
    channels: u16,
    cluster_radius: f64,
    substrate: SubstrateMode,
    consts: Constants,
    seed: u64,
) -> AggMeasurement {
    let params = SinrParams::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let deploy = Deployment::uniform(n, side, &mut rng);
    let env = NetworkEnv::new(params, &deploy);
    let graph = env.comm_graph();
    let algo = AlgoConfig::new(channels, mca_sinr::NodeKnowledge::exact(&params, n), consts);
    let mut cfg = StructureConfig::new(algo, seed);
    cfg.substrate = substrate;
    cfg.cluster_radius = cluster_radius;
    let structure = build_structure(&env, &cfg);

    let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
    let expect = *inputs.iter().max().unwrap();
    let d_hat = graph.diameter_approx() + 2;
    let out = aggregate(
        &env,
        &structure,
        &algo,
        MaxAgg,
        &inputs,
        InterclusterMode::Flood,
        d_hat,
        seed ^ 0xA66,
    );
    AggMeasurement {
        build_slots: structure.report.total_slots(),
        follower_slots: out.follower_slots,
        agg_slots: out.total_slots(),
        delta: graph.max_degree(),
        diameter: graph.diameter_approx(),
        correct: out.values[0] == Some(expect),
        contention_peak: out.contention_peak,
    }
}

fn med(xs: &[u64]) -> f64 {
    Summary::of_counts(xs.iter().copied()).median()
}

/// E1 — Theorem 22 headline: aggregation slots vs `F` (dense regime).
fn e1_speedup(trials: usize) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "E1 (Theorem 22): aggregation slots vs channels -- n=500, dense",
        [
            "F",
            "follower slots",
            "agg slots",
            "speedup",
            "contention peak",
        ],
    );
    let fs = [1u16, 2, 4, 8, 16];
    let outs = sweep(
        &fs,
        |&f| 100 + f as u64,
        trials,
        |&f, seed| {
            measure_aggregation(
                500,
                6.5,
                f,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        },
    );
    let mut base: Option<f64> = None;
    for (f, out) in fs.iter().zip(&outs) {
        let fol: Vec<u64> = out.results.iter().map(|m| m.follower_slots).collect();
        let tot: Vec<u64> = out.results.iter().map(|m| m.agg_slots).collect();
        let peak = out.summarize(|m| m.contention_peak).median();
        let b = *base.get_or_insert(med(&fol));
        t.row([
            f.to_string(),
            format!("{:.0}", med(&fol)),
            format!("{:.0}", med(&tot)),
            format!("{:.2}x", b / med(&fol)),
            format!("{peak:.2}"),
        ]);
    }
    Ok(vec![t])
}

/// E2 — Theorem 22: slots vs `n` at fixed density, `F = 8`.
fn e2_scaling_n(trials: usize) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "E2 (Theorem 22): slots vs n at fixed density, F = 8",
        ["n", "delta", "D", "build slots", "agg slots"],
    );
    let ns = [150usize, 300, 600, 1200];
    let outs = sweep(
        &ns,
        |&n| 200 + n as u64,
        trials,
        |&n, seed| {
            let side = (n as f64 / 8.0).sqrt();
            measure_aggregation(
                n,
                side,
                8,
                1.5,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        },
    );
    for (n, out) in ns.iter().zip(&outs) {
        t.row([
            n.to_string(),
            format!("{:.0}", out.summarize(|m| m.delta as f64).median()),
            format!("{:.0}", out.summarize(|m| m.diameter as f64).median()),
            format!("{:.0}", out.summarize(|m| m.build_slots as f64).median()),
            format!("{:.0}", out.summarize(|m| m.agg_slots as f64).median()),
        ]);
    }
    Ok(vec![t])
}

/// E3 — Theorem 22: slots vs `delta` at fixed `n`, `F` in {1, 8}.
fn e3_delta(trials: usize) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "E3 (Theorem 22): follower slots vs delta at n = 400 -- F=1 vs F=8",
        ["side", "delta", "F=1 slots", "F=8 slots", "ratio"],
    );
    // Both arms of a side run the same seeds (one master for the table).
    let arms: Vec<(f64, u16)> = [11.0, 8.0, 6.0, 4.5]
        .into_iter()
        .flat_map(|side| [(side, 1), (side, 8)])
        .collect();
    let outs = sweep(
        &arms,
        |_| 300,
        trials,
        |&(side, f), seed| {
            measure_aggregation(
                400,
                side,
                f,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        },
    );
    for (arm, out) in arms.chunks(2).zip(outs.chunks(2)) {
        let (one, eight) = (&out[0], &out[1]);
        let f1 = one.summarize(|m| m.follower_slots as f64).median();
        let f8 = eight.summarize(|m| m.follower_slots as f64).median();
        t.row([
            format!("{:.1}", arm[0].0),
            format!("{:.0}", one.summarize(|m| m.delta as f64).median()),
            format!("{f1:.0}"),
            format!("{f8:.0}"),
            format!("{:.2}x", f1 / f8),
        ]);
    }
    Ok(vec![t])
}

/// E4 — Theorem 24: coloring slots and palette vs `F` (`Some(F)`), with
/// the single-channel baseline (`None`).
fn e4_coloring(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E4 (Theorem 24): coloring -- n=300, dense",
        ["algorithm", "F", "slots", "colors / (delta+1)", "proper"],
    );
    let arms = [Some(1u16), Some(4), Some(16), None];
    let master = |arm: &Option<u16>| arm.map_or(444, |f| 400 + f as u64);
    let outs = sweep(&arms, master, trials, |&arm, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(300, 6.0, &mut rng);
        let Some(f) = arm else {
            let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
            let algo = AlgoConfig::practical(1, &params, 300);
            let b = baselines::run_single_coloring(&params, deploy.points(), &algo, 1024, seed);
            let colors: Vec<u32> = b.colors.iter().map(|c| c.unwrap()).collect();
            return (
                b.slots,
                b.palette_size() as f64 / (graph.max_degree() + 1) as f64,
                graph.coloring_violation(&colors).is_none(),
            );
        };
        let env = NetworkEnv::new(params, &deploy);
        let graph = env.comm_graph();
        let algo = AlgoConfig::practical(f, &params, 300);
        let mut cfg = StructureConfig::new(algo, seed);
        cfg.substrate = SubstrateMode::Oracle;
        // Coloring correctness requires the paper's r_c ≤ ε·R_T/4.
        cfg.cluster_radius = 1.0;
        let structure = build_structure(&env, &cfg);
        let col = color_nodes(&env, &structure, &algo, seed);
        let proper = col.uncolored == 0 && {
            let colors: Vec<u32> = col.colors.iter().map(|c| c.unwrap_or(u32::MAX)).collect();
            graph.coloring_violation(&colors).is_none()
        };
        (
            col.total_slots(),
            col.palette_size() as f64 / (graph.max_degree() + 1) as f64,
            proper,
        )
    });
    for (arm, out) in arms.iter().zip(&outs) {
        let (algorithm, f) = match arm {
            Some(f) => ("structure coloring (paper s7)", f.to_string()),
            None => ("single-channel ruling phases", "1".to_string()),
        };
        t.row([
            algorithm.to_string(),
            f,
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.2}", out.summarize(|r| r.1).median()),
            format!("{:.0}%", out.fraction(|r| r.2) * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// E5 — Lemma 6: ruling-set rounds vs `n` on constant-density sets.
fn e5_ruling(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E5 (Lemma 6): ruling-set rounds vs n (constant-density inputs)",
        [
            "n (field)",
            "participants",
            "median halt round",
            "independent",
            "dominating",
        ],
    );
    let exps = [8u32, 10, 12];
    let outs = sweep(
        &exps,
        |&exp| 500 + (1u64 << exp),
        trials,
        |&exp, seed| {
            let n = 1usize << exp;
            let mut rng = SmallRng::seed_from_u64(seed);
            let side = (n as f64 / 2.0).sqrt();
            let d = Deployment::uniform(n, side, &mut rng);
            let dom = mca_core::dominate::oracle(d.points(), 1.5, seed);
            let positions: Vec<Point> = dom
                .dominators()
                .iter()
                .map(|id| d.points()[id.index()])
                .collect();
            let k = positions.len();
            let r = 3.0;
            let rcfg = RulingConfig {
                radius: r,
                prob: ProbPolicy::Adaptive {
                    start: 0.5 / k as f64,
                    busy_threshold: params.clear_threshold_for(r),
                },
                p_cap: 0.25,
                rounds: 60 * (exp as u64),
                channel: Channel::FIRST,
                group: None,
                tdma: Tdma::trivial(ruling::SLOTS_PER_ROUND),
                color: 0,
                params,
                timeout_join: TimeoutRule::Join, // the paper's §4 rule
            };
            let protocols: Vec<RulingSet> = (0..k)
                .map(|i| RulingSet::new(NodeId(i as u32), rcfg))
                .collect();
            let mut engine = Engine::new(params, positions.clone(), protocols, seed);
            engine.run_until_done(rcfg.tdma.slots_for_rounds(rcfg.rounds) + 3);
            let out = engine.into_protocols();
            let members: Vec<usize> = (0..k).filter(|&i| out[i].in_set()).collect();
            let mut independent = true;
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if positions[i].dist(positions[j]) <= r {
                        independent = false;
                    }
                }
            }
            let dominated = out
                .iter()
                .all(|p| p.in_set() || matches!(p.outcome(), RulingOutcome::Dominated { .. }));
            let halt = Summary::of_counts(out.iter().filter_map(|p| p.halt_round()));
            (k, halt.median(), independent, dominated)
        },
    );
    for (exp, out) in exps.iter().zip(&outs) {
        t.row([
            format!("{}", 1usize << exp),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1).median()),
            format!("{:.0}%", out.fraction(|r| r.2) * 100.0),
            format!("{:.0}%", out.fraction(|r| r.3) * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// E6 — Lemma 7: distributed dominating set, rounds and density vs `n`.
fn e6_dominate(trials: usize) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "E6 (Lemma 7): distributed dominating set (r_c = 1.5, fixed density)",
        ["n", "slots", "density", "coverage", "timeout joins"],
    );
    let ns = [200usize, 400, 800, 1600];
    let outs = sweep(
        &ns,
        |&n| 600 + n as u64,
        trials,
        |&n, seed| {
            let params = SinrParams::default();
            let mut rng = SmallRng::seed_from_u64(seed);
            let side = (n as f64 / 6.0).sqrt();
            let d = Deployment::uniform(n, side, &mut rng);
            let algo = AlgoConfig::practical(4, &params, n);
            let mut dc = mca_core::dominate::DominateConfig::from_algo(&algo);
            dc.radius = 1.5;
            dc.busy_threshold = params.received_power(3.0);
            let protocols: Vec<mca_core::dominate::DominateProtocol> = (0..n)
                .map(|i| mca_core::dominate::DominateProtocol::new(NodeId(i as u32), dc))
                .collect();
            let mut engine = Engine::new(params, d.points().to_vec(), protocols, seed);
            engine.run_until_done(dc.rounds * mca_core::dominate::SLOTS_PER_ROUND as u64 + 3);
            let slots = engine.slot();
            let out = mca_core::dominate::collect(engine.protocols(), slots);
            let doms: Vec<Point> = out
                .dominators()
                .iter()
                .map(|id| d.points()[id.index()])
                .collect();
            let density = if doms.is_empty() {
                0
            } else {
                mca_geom::SpatialGrid::build(&doms, 1.5).max_ball_occupancy(&doms, 1.5)
            };
            (
                slots,
                density,
                1.0 - out.uncovered() as f64 / n as f64,
                out.timeout_joins,
            )
        },
    );
    for (n, out) in ns.iter().zip(&outs) {
        t.row([
            n.to_string(),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.1}%", out.summarize(|r| r.2).median() * 100.0),
            format!("{:.0}", out.summarize(|r| r.3 as f64).median()),
        ]);
    }
    Ok(vec![t])
}

/// E7 — Lemmas 12 vs 13: CSA variants across the crossover.
fn e7_csa(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E7 (Lemmas 12/13): CSA large vs small -- one cluster, F = 16",
        [
            "cluster size",
            "large slots",
            "small slots",
            "large est ratio",
            "small est ratio",
        ],
    );
    let ms = [12usize, 24, 48, 96];
    let outs = sweep(
        &ms,
        |&m| 700 + m as u64,
        trials,
        |&m, seed| {
            let mut positions = vec![Point::ORIGIN];
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..m {
                let theta = i as f64 / m as f64 * std::f64::consts::TAU;
                let rad = 0.2 + 0.75 * rand::Rng::gen::<f64>(&mut rng);
                positions.push(Point::unit(theta) * rad);
            }
            let algo = AlgoConfig::practical(16, &params, (m + 1).max(64));

            let csa_cfg = mca_core::csa::CsaConfig {
                delta_hat: (m as u64 * 4).max(8),
                lambda: 0.5,
                rounds_per_phase: algo.csa_rounds_per_phase(),
                settle_threshold: algo.csa_settle_threshold(),
                channel: Channel::FIRST,
                tdma: Tdma::new(1, 1),
            };
            let protocols: Vec<mca_core::csa::CsaProtocol> = (0..=m)
                .map(|i| {
                    let role = if i == 0 {
                        mca_core::csa::CsaRole::Coordinator
                    } else {
                        mca_core::csa::CsaRole::Member
                    };
                    mca_core::csa::CsaProtocol::new(role, NodeId(0), 0, csa_cfg)
                })
                .collect();
            let env = NetworkEnv { params, positions };
            let cap = csa_cfg.tdma.slots_for_rounds(csa_cfg.total_rounds()) + 1;
            let (large, large_slots) = env.run_phase(protocols, None, seed, cap, |_, ps| {
                ps.iter().all(|p| p.is_satisfied())
            });
            let large_est = large[0].coordinator_estimate().unwrap_or(0);

            let seats: Vec<Option<mca_core::csa_small::SmallSeat>> = (0..=m)
                .map(|i| {
                    Some(mca_core::csa_small::SmallSeat {
                        cluster: NodeId(0),
                        color: 0,
                        is_dominator: i == 0,
                    })
                })
                .collect();
            let small = mca_core::csa_small::run_csa_small(
                &env,
                &seats,
                &algo,
                1,
                1.0,
                (m as u64 * 4).max(8),
                seed,
            );
            let small_est = small.estimate[0].unwrap_or(0);
            (
                large_slots,
                small.total_slots(),
                large_est as f64 / (m + 1) as f64,
                small_est as f64 / (m + 1) as f64,
            )
        },
    );
    for (m, out) in ms.iter().zip(&outs) {
        t.row([
            (m + 1).to_string(),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.2}", out.summarize(|r| r.2).median()),
            format!("{:.2}", out.summarize(|r| r.3).median()),
        ]);
    }
    Ok(vec![t])
}

/// E8 — Lemmas 15/16: reporter election quality and convergecast cost.
fn e8_reporters(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E8 (Lemmas 15/16): reporter election + tree -- n=400 dense, F sweep",
        [
            "F",
            "channel fill",
            "multi-reporter channels",
            "tree slots/phi",
            "Lemma-16 send slots",
        ],
    );
    let fs = [2u16, 4, 8, 16];
    let outs = sweep(
        &fs,
        |&f| 800 + f as u64,
        trials,
        |&f, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(400, 6.0, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(f, &params, 400);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            cfg.cluster_radius = 2.0;
            let structure = build_structure(&env, &cfg);
            let audit = audit_structure(&env, &structure, cfg.cluster_radius);
            let inputs = vec![1i64; 400];
            let agg = aggregate(
                &env,
                &structure,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                env.comm_graph().diameter_approx() + 2,
                seed,
            );
            (
                audit.channel_fill,
                audit.multi_reporter_channels,
                agg.tree_slots / structure.phi.max(1) as u64,
            )
        },
    );
    for (&f, out) in fs.iter().zip(&outs) {
        let tree = mca_core::tree::HeapTree::new(f);
        t.row([
            f.to_string(),
            format!("{:.0}%", out.summarize(|r| r.0).median() * 100.0),
            format!("{:.1}", out.summarize(|r| r.1 as f64).mean()),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
            format!("{}", tree.lemma16_slots()),
        ]);
    }
    Ok(vec![t])
}

/// E10 — lower bounds: the exponential chain and the `D` term.
fn e10_lower_bounds(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut chain = Table::new(
        "E10a (lower bound): exponential chain -- max concurrent descending successes",
        ["n", "max successes (exhaustive)", "beta >= 2^(1/alpha)"],
    );
    for n in [6usize, 8, 10, 12] {
        let worst = baselines::max_concurrent_successes_exhaustive(&params, n);
        chain.row([
            n.to_string(),
            worst.to_string(),
            params.chain_lower_bound_applies().to_string(),
        ]);
    }
    let mut dterm = Table::new(
        "E10b (lower bound): inter-cluster slots vs D -- corridors, F = 4",
        ["length", "D", "inter rounds (slots/phi)", "follower slots"],
    );
    let lens = [25.0, 50.0, 100.0];
    let outs = sweep(
        &lens,
        |&len| 1000 + len as u64,
        trials,
        |&len, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::corridor(240, len, 4.0, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let graph = env.comm_graph();
            let algo = AlgoConfig::practical(4, &params, 240);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            let structure = build_structure(&env, &cfg);
            let inputs = vec![1i64; 240];
            let agg = aggregate(
                &env,
                &structure,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                graph.diameter_approx() + 2,
                seed,
            );
            (
                graph.diameter_approx(),
                agg.inter_slots / structure.phi.max(1) as u64,
                agg.follower_slots,
            )
        },
    );
    for (len, out) in lens.iter().zip(&outs) {
        dterm.row([
            format!("{len:.0}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
        ]);
    }
    Ok(vec![chain, dterm])
}

/// E11 — Lemma 2: guaranteed reception radius under `r1`-separation.
fn e11_lemmas(trials: usize) -> Result<Vec<Table>, String> {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E11 (Lemma 2): reception at r2 = t*r1 under r1-separated transmitters",
        [
            "r1",
            "analytic r2",
            "reception rate at r2",
            "rate at min(2*r2, r1/2)",
        ],
    );
    let arms = [3.0f64, 6.0, 12.0].map(|r1| (r1, mca_sinr::bounds::lemma2_max_r2(&params, r1)));
    let master = |&(r1, _): &(f64, f64)| 1100 + r1 as u64;
    let outs = sweep(&arms, master, trials.max(3), |&(r1, r2), seed| {
        let mut txs = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                txs.push(Point::new(i as f64 * r1, j as f64 * r1));
            }
        }
        let mut ok_r2 = 0;
        let mut ok_far = 0;
        let total = txs.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        for (k, &tx) in txs.iter().enumerate() {
            let theta = rand::Rng::gen::<f64>(&mut rng) * std::f64::consts::TAU;
            let l1 = tx + Point::unit(theta) * r2;
            let l2 = tx + Point::unit(theta) * (2.0 * r2).min(r1 * 0.49);
            let o1 = mca_sinr::resolve_listener(&params, &txs, l1);
            let o2 = mca_sinr::resolve_listener(&params, &txs, l2);
            if o1.decoded == Some(k as u32) {
                ok_r2 += 1;
            }
            if o2.decoded == Some(k as u32) {
                ok_far += 1;
            }
        }
        (ok_r2 as f64 / total as f64, ok_far as f64 / total as f64)
    });
    for ((r1, r2), out) in arms.iter().zip(&outs) {
        t.row([
            format!("{r1:.0}"),
            format!("{r2:.2}"),
            format!("{:.0}%", out.summarize(|r| r.0).median() * 100.0),
            format!("{:.0}%", out.summarize(|r| r.1).median() * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// An arm of T1: one algorithm on the same dense workload.
#[derive(Clone, Copy)]
enum T1Arm {
    Structure(u16),
    DecayTree,
    NaiveTdma,
    GraphFlood,
}

/// T1 — related-work comparison at one dense configuration.
fn t1_comparison(trials: usize) -> Result<Vec<Table>, String> {
    use T1Arm::*;
    let params = SinrParams::default();
    let n = 400;
    let side = 6.0;
    let mut t = Table::new(
        "T1: max-aggregation comparison -- n=400, dense, SINR unless noted",
        ["algorithm", "slots (median)", "correct"],
    );
    let world = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
        let expect = *inputs.iter().max().unwrap();
        (deploy, inputs, expect)
    };
    let arms = [Structure(8), Structure(1), DecayTree, NaiveTdma, GraphFlood];
    let master = |arm: &T1Arm| match *arm {
        Structure(f) => 1200 + f as u64,
        DecayTree => 1250,
        NaiveTdma => 1260,
        GraphFlood => 1270,
    };
    let outs = sweep(&arms, master, trials, |&arm, seed| match arm {
        Structure(f) => {
            let m = measure_aggregation(
                n,
                side,
                f,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            );
            (m.build_slots + m.agg_slots, m.correct)
        }
        DecayTree => {
            let (deploy, inputs, expect) = world(seed);
            let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
            let b = baselines::run_single_channel(
                &params,
                deploy.points(),
                &inputs,
                NodeId(0),
                graph.diameter_approx() + 2,
                graph.max_degree() as u64,
                n,
                seed,
            );
            (b.slots, b.results[0] == Some(expect))
        }
        NaiveTdma => {
            let (deploy, inputs, expect) = world(seed);
            let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
            let (values, slots) = baselines::run_naive_tdma(
                &params,
                deploy.points(),
                &inputs,
                graph.diameter_approx() + 2,
                seed,
            );
            (slots, values.iter().all(|&v| v == expect))
        }
        GraphFlood => {
            let (deploy, inputs, expect) = world(seed);
            let g =
                baselines::run_graph_flood(deploy.points(), 4.0, &inputs, 8, 0.2, 400_000, seed);
            (g.slots, g.values.iter().all(|&v| v == expect))
        }
    });
    for (arm, out) in arms.iter().zip(&outs) {
        let algorithm = match arm {
            Structure(f) => format!("aggregation structure (F = {f}, incl. build)"),
            DecayTree => "single-channel decay tree ([24]-style)".into(),
            NaiveTdma => "naive deterministic TDMA".into(),
            GraphFlood => "graph-model multichannel flood ([4]-style, F = 8)".into(),
        };
        t.row([
            algorithm,
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}%", out.fraction(|r| r.1) * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// A1 — ablations: substrate, backoff, channel-allocation constant.
fn a1_ablations(trials: usize) -> Result<Vec<Table>, String> {
    let mut t = Table::new(
        "A1: ablations -- n=400 dense, F=8",
        [
            "variant",
            "build slots",
            "agg slots",
            "contention peak",
            "correct",
        ],
    );
    let mut no_backoff = Constants::practical();
    no_backoff.omega2 = 1e6;
    let mut coarse = Constants::practical();
    coarse.c1 = 8.0;
    let arms = [
        (
            "baseline (oracle substrate)",
            SubstrateMode::Oracle,
            Constants::practical(),
        ),
        (
            "distributed substrate",
            SubstrateMode::Distributed,
            Constants::practical(),
        ),
        (
            "backoff disabled (omega2 huge)",
            SubstrateMode::Oracle,
            no_backoff,
        ),
        (
            "coarse channel allocation (c1 = 8)",
            SubstrateMode::Oracle,
            coarse,
        ),
    ];
    let master = |(name, _, _): &(&str, SubstrateMode, Constants)| 1300 + name.len() as u64;
    let outs = sweep(&arms, master, trials, |&(_, substrate, consts), seed| {
        measure_aggregation(400, 6.0, 8, 2.0, substrate, consts, seed)
    });
    for ((name, _, _), out) in arms.iter().zip(&outs) {
        t.row([
            name.to_string(),
            format!("{:.0}", out.summarize(|m| m.build_slots as f64).median()),
            format!("{:.0}", out.summarize(|m| m.agg_slots as f64).median()),
            format!("{:.2}", out.summarize(|m| m.contention_peak).median()),
            format!("{:.0}%", out.fraction(|m| m.correct) * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// A2 — fault injection: jamming and crashes on the backbone flood.
fn a2_faults(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
    use mca_radio::{FaultPlan, JamSpec};
    let params = SinrParams::default();
    let mut t = Table::new(
        "A2: flood-combine under faults -- 24-dominator backbone",
        ["scenario", "nodes with global max", "slots"],
    );
    let arms = [
        ("fault-free", 0.0f64, 1u16, 0usize, 0u16),
        ("25%-duty jammer (100x noise)", 100.0, 4, 0, 0),
        ("constant jammer (100x noise)", 100.0, 1, 0, 0),
        ("3 crashed dominators", 0.0, 1, 3, 0),
        ("constant jammer + 4-ch hopping", 100.0, 1, 0, 4),
    ];
    let master = |&(_, jam, _, crashes, hop): &(&str, f64, u16, usize, u16)| {
        1400 + crashes as u64 + jam as u64 + hop as u64
    };
    let outs = sweep(
        &arms,
        master,
        trials,
        |&(_, jam, duty, crashes, hop), seed| {
            let k = 24;
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(k, 25.0, &mut rng);
            let cfg = FloodCfg {
                q: 0.2,
                flood_rounds: 600,
                tail_rounds: 100,
                tdma: Tdma::new(1, 1),
                hop_channels: hop,
            };
            let protocols: Vec<FloodCombine<MaxAgg>> = (0..k)
                .map(|i| FloodCombine::dominator(MaxAgg, cfg, 0, i as i64))
                .collect();
            let mut faults = FaultPlan::none();
            if jam > 0.0 {
                // The flood lives on channel 0; `duty` of 4 means the
                // adversary hits it one slot in four.
                faults.jam(JamSpec::Random {
                    t: 1,
                    total: duty,
                    power: jam,
                    seed: seed ^ 0xBAD,
                });
            }
            for c in 0..crashes {
                faults.crash_at(c as u32, 150);
            }
            let mut engine =
                Engine::new(params, deploy.points().to_vec(), protocols, seed).with_faults(faults);
            engine.run_until_done(cfg.flood_rounds + cfg.tail_rounds + 1);
            let expect = (k - 1) as i64;
            let holders = engine
                .protocols()
                .iter()
                .enumerate()
                .filter(|(i, p)| *i >= crashes && *p.value() == expect)
                .count();
            (holders, k - crashes, engine.slot())
        },
    );
    for ((name, ..), out) in arms.iter().zip(&outs) {
        t.row([
            name.to_string(),
            format!(
                "{:.0}/{}",
                out.summarize(|r| r.0 as f64).median(),
                out.results[0].1
            ),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
        ]);
    }
    Ok(vec![t])
}

/// E12 — applications of the structure: leader election and single-source
/// broadcast inherit Theorem 22's cost and channel speedup.
fn e12_applications(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::{broadcast, elect_leader};
    let mut t = Table::new(
        "E12: leader election + broadcast on the structure -- n=300, dense",
        ["F", "leader slots", "agreement", "bcast slots", "coverage"],
    );
    let params = SinrParams::default();
    let fs = [1u16, 4, 8];
    let outs = sweep(
        &fs,
        |&f| 1500 + f as u64,
        trials,
        |&channels, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(300, 6.0, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(channels, &params, 300);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            cfg.cluster_radius = 2.0;
            let s = build_structure(&env, &cfg);
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let lead = elect_leader(&env, &s, &algo, d_hat, seed ^ 0x1EAD);
            let bc = broadcast(&env, &s, &algo, NodeId(1), 0xCAFE, d_hat, seed ^ 0xBC);
            (
                lead.total_slots(),
                lead.agreement as f64 / 300.0,
                bc.total_slots(),
                bc.coverage as f64 / 300.0,
            )
        },
    );
    for (channels, out) in fs.iter().zip(&outs) {
        t.row([
            format!("{channels}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.1).median() * 100.0),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.3).median() * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// E13 — multiple-message broadcast: the gossip phase grows linearly in
/// `k` (each node must *receive* `k` distinct packets — incompressible).
fn e13_multimessage(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::broadcast_many;
    let mut t = Table::new(
        "E13: k-message broadcast (hoist + backbone gossip) -- n=150, F=4",
        [
            "k",
            "hoist slots",
            "gossip slots",
            "gossip slots/k",
            "full coverage",
        ],
    );
    let params = SinrParams::default();
    let ks = [1usize, 2, 4, 8, 16];
    let outs = sweep(
        &ks,
        |&k| 1600 + k as u64,
        trials,
        |&k, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(150, 10.0, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(4, &params, 150);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            let s = build_structure(&env, &cfg);
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let messages: Vec<(NodeId, u64)> = (0..k)
                .map(|i| (NodeId((i * 150 / k) as u32), i as u64))
                .collect();
            let out = broadcast_many(&env, &s, &algo, &messages, d_hat, seed ^ 0x60551);
            (
                out.hoist_slots,
                out.gossip_slots,
                out.full_coverage as f64 / 150.0,
            )
        },
    );
    for (k, out) in ks.iter().zip(&outs) {
        let gossip = out.summarize(|r| r.1 as f64).median();
        t.row([
            format!("{k}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{gossip:.0}"),
            format!("{:.0}", gossip / *k as f64),
            format!("{:.0}%", out.summarize(|r| r.2).median() * 100.0),
        ]);
    }
    Ok(vec![t])
}

/// E14 — the compressibility limit (paper's contrast with its reference
/// \[37\]): on the same single-hop instance, aggregation speeds up
/// linearly with `F` while local information exchange is flat — a
/// listener decodes one packet per slot no matter how many channels exist.
fn e14_compressibility(trials: usize) -> Result<Vec<Table>, String> {
    use baselines::{run_info_exchange, ExchangeConfig};
    let mut t = Table::new(
        "E14: exchange vs aggregation on a 100-node clique (Delta = 99)",
        [
            "F",
            "exchange slots",
            "exchange speedup",
            "agg follower slots",
            "agg speedup",
        ],
    );
    let params = SinrParams::default();
    let n = 100usize;
    let fs = [1u16, 2, 4, 8, 16];
    let outs = sweep(
        &fs,
        |&f| 1700 + f as u64,
        trials,
        |&channels, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::disk(n, params.r_eps() / 4.0, &mut rng);
            // Exchange on the clique.
            let ex = run_info_exchange(
                &params,
                deploy.points(),
                ExchangeConfig::new(channels, n),
                seed ^ 0xE8,
            );
            let ex_slots = ex
                .median_completion()
                .unwrap_or(ExchangeConfig::new(channels, n).max_slots);
            // Aggregation on the same instance.
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(channels, &params, n);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            let s = build_structure(&env, &cfg);
            let inputs: Vec<i64> = (0..n as i64).collect();
            let agg = aggregate(
                &env,
                &s,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                3,
                seed ^ 0xA6,
            );
            (ex_slots, agg.follower_slots)
        },
    );
    let mut ex_base = 0.0f64;
    let mut agg_base = 0.0f64;
    for (&channels, out) in fs.iter().zip(&outs) {
        let ex_med = out.summarize(|r| r.0 as f64).median();
        let agg_med = out.summarize(|r| r.1 as f64).median();
        if channels == 1 {
            ex_base = ex_med;
            agg_base = agg_med;
        }
        t.row([
            format!("{channels}"),
            format!("{ex_med:.0}"),
            format!("{:.2}x", ex_base / ex_med),
            format!("{agg_med:.0}"),
            format!("{:.2}x", agg_base / agg_med),
        ]);
    }
    Ok(vec![t])
}

/// E15 — ruling sets and MIS via §4 network-wide (the \[4\] comparison):
/// per density, the two-phase pipeline's median member count and slots,
/// and for it and the direct (phase-two-only) MIS the mean independence
/// violations (member pairs within `r`) and domination holes (nodes with
/// no member within the construction's domination radius: `2r` for the
/// pipeline, `r` for the direct MIS). Neither is sound at every density:
/// the pipeline's violations rise with `n` where Lemma 6 says they should
/// fall — the round budget, not chance (ROADMAP item 1) — and the direct
/// MIS's are worse still at the densest row, which shows why the paper
/// runs the dominating set first.
fn e15_mis(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::{maximal_independent_set, ruling_set, MisConfig};
    let mut t = Table::new(
        "E15: (r,2r)-ruling set vs direct MIS (Sec. 4, r = R_T/4)",
        [
            "n",
            "2-phase members",
            "2-phase viol/holes",
            "slots",
            "direct-MIS viol/holes",
        ],
    );
    let params = SinrParams::default();
    let ns = [128usize, 512, 2048];
    let outs = sweep(
        &ns,
        |&n| 1800 + n as u64,
        trials,
        |&n, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let side = (n as f64 / 2.0).sqrt();
            let deploy = Deployment::uniform(n, side, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let algo = AlgoConfig::practical(4, &params, n);
            let r = params.transmission_range() / 4.0;
            let two = ruling_set(&env, &algo, MisConfig::new(r), seed ^ 0x315);
            let direct = maximal_independent_set(&env, &algo, MisConfig::new(r), seed ^ 0x316);
            (
                two.members().len(),
                two.independence_violations(&env.positions),
                two.domination_holes(&env.positions),
                two.total_slots(),
                direct.independence_violations(&env.positions),
                direct.domination_holes(&env.positions),
            )
        },
    );
    for (n, out) in ns.iter().zip(&outs) {
        t.row([
            format!("{n}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!(
                "{:.1} / {:.1}",
                out.summarize(|r| r.1 as f64).mean(),
                out.summarize(|r| r.2 as f64).mean()
            ),
            format!("{:.0}", out.summarize(|r| r.3 as f64).median()),
            format!(
                "{:.1} / {:.1}",
                out.summarize(|r| r.4 as f64).mean(),
                out.summarize(|r| r.5 as f64).mean()
            ),
        ]);
    }
    Ok(vec![t])
}

/// E16 — dynamic environments: aggregation success vs node speed.
///
/// The flood-combine max-aggregation backbone runs end-to-end inside
/// `mca-scenario` worlds whose nodes roam by random waypoint at increasing
/// speeds, plus one Gilbert–Elliot fading world as a channel-dynamics
/// reference point. Every world runs the same seeds, so the rows are
/// paired trials.
fn e16_mobility(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
    use mca_scenario::{DeploymentSpec, FadingSpec, MobilitySpec, Scenario, ScenarioSim};
    let n = 60usize;
    let channels = 4u16;
    let slots = 400u64;
    let base = |name: &str| {
        Scenario::builder(name)
            .deployment(DeploymentSpec::Uniform { n, side: 30.0 })
            .channels(channels)
            .max_slots(slots)
            .sinr(SinrParams::default())
    };
    let mut scenarios = vec![base("static").build()];
    for speed in [0.05f64, 0.15, 0.4, 1.0] {
        scenarios.push(
            base(&format!("waypoint v={speed}"))
                .mobility(MobilitySpec::RandomWaypoint {
                    speed_min: speed / 2.0,
                    speed_max: speed,
                    pause: 5,
                })
                .build(),
        );
    }
    scenarios.push(
        base("GE fading (25% bad)")
            .fading(FadingSpec::interference(0.05, 0.15, 500.0))
            .build(),
    );

    let cfg = FloodCfg {
        q: 0.2,
        flood_rounds: slots - 100,
        tail_rounds: 100,
        tdma: Tdma::new(1, 1),
        hop_channels: channels,
    };
    let expect = (n - 1) as i64;
    let outs = sweep(
        &scenarios,
        |_| 1600,
        trials.max(2),
        |scenario, seed| {
            let mut sim = ScenarioSim::new(scenario, seed, |i, _| {
                FloodCombine::dominator(MaxAgg, cfg, 0, i as i64)
            });
            sim.run_until_done(scenario.max_slots);
            let holders = sim
                .protocols()
                .iter()
                .filter(|p| *p.value() == expect)
                .count();
            (holders as f64 / n as f64, sim.metrics().reception_rate())
        },
    );

    let mut t = Table::new(
        "E16: flood aggregation in dynamic environments -- n=60, F=4",
        ["scenario", "coverage (median)", "full coverage", "rx rate"],
    );
    for (scenario, out) in scenarios.iter().zip(&outs) {
        t.row([
            scenario.name.clone(),
            format!("{:.0}%", out.summarize(|r| r.0).median() * 100.0),
            format!("{:.0}%", out.fraction(|r| r.0 >= 1.0) * 100.0),
            format!("{:.3}", out.summarize(|r| r.1).median()),
        ]);
    }
    Ok(vec![t])
}

/// A3 — ablation of the multi-message gossip: the backbone transmission
/// probability `q` (the paper's "constant probability" sketch) trades
/// collision losses against idle slots; completion is measured because the
/// harness stops the run the moment every node holds every message.
fn a3_gossip(trials: usize) -> Result<Vec<Table>, String> {
    use mca_core::broadcast_many;
    let mut t = Table::new(
        "A3: gossip probability ablation -- n=120, F=4, k=8",
        ["q", "gossip slots", "hoist slots", "full coverage"],
    );
    let params = SinrParams::default();
    let qs = [0.05f64, 0.2, 0.35, 0.5];
    let outs = sweep(
        &qs,
        |&q| 1900 + (q * 100.0) as u64,
        trials,
        |&q, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(120, 9.0, &mut rng);
            let env = NetworkEnv::new(params, &deploy);
            let mut consts = Constants::practical();
            consts.flood_prob = q;
            let algo = AlgoConfig::new(4, mca_sinr::NodeKnowledge::exact(&params, 120), consts);
            let mut cfg = StructureConfig::new(algo, seed);
            cfg.substrate = SubstrateMode::Oracle;
            cfg.cluster_radius = 2.0;
            let s = build_structure(&env, &cfg);
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let messages: Vec<(NodeId, u64)> = (0..8).map(|i| (NodeId(i * 14), i as u64)).collect();
            let out = broadcast_many(&env, &s, &algo, &messages, d_hat, seed ^ 0xA3);
            (
                out.gossip_slots,
                out.hoist_slots,
                out.full_coverage as f64 / 120.0,
            )
        },
    );
    for (q, out) in qs.iter().zip(&outs) {
        t.row([
            format!("{q:.2}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.2).median() * 100.0),
        ]);
    }
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_gate_is_the_sections_error() {
        let gated = ClaimTable {
            id: "x1",
            render: |_| Err("`world`: repair 9 vs rebuild 8 slots".into()),
        };
        assert_eq!(
            gated.section(CLAIM_TRIALS),
            Err("`world`: repair 9 vs rebuild 8 slots".into())
        );
        let passing = ClaimTable {
            id: "x2",
            render: |trials| {
                let mut t = Table::new("X2: trials", ["trials"]);
                t.row([trials.to_string()]);
                Ok(vec![t])
            },
        };
        assert_eq!(
            passing.section(3),
            Ok("### X2: trials\n\n| trials |\n|---|\n| 3 |\n\n".into())
        );
    }
}

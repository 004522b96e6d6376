//! # `mca-bench` — experiment harness
//!
//! One function per experiment of `EXPERIMENTS.md` (the paper is a theory
//! paper: its "tables and figures" are the complexity claims of Theorems
//! 22/24 and Lemmas 6-21, reproduced here as scaling tables). The
//! `experiments` binary prints any subset; host time is tracked by the
//! repository's benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary_bench;
pub mod artifacts;
pub mod flip_audit;
pub mod golden;
pub mod profile;
pub mod repair_bench;
pub mod scenario_run;
pub mod serve;
pub mod sweep;

pub use adversary_bench::adversary_bench_json;
pub use golden::{golden_trials_json, golden_trials_json_observed};
pub use profile::{
    default_profile_scenario, profile_scenario, profile_table, ProfileRun, ResolveCost,
    COVERAGE_GATE, PROFILE_SEED,
};
pub use repair_bench::repair_bench_json;
pub use scenario_run::{
    run_scenario, scenario_flood_trial, scenario_flood_trial_observed, ScenarioTrial,
};
pub use serve::{pending_inputs, serve, serve_once, ServeConfig, ServeReport};
pub use sweep::{run_sweep, run_sweep_file, SweepConfig, SweepError, SweepSummary};

/// Verbosity of the `experiments` binary's progress stream (stderr).
/// Set once via the global `--log-level {off,summary,verbose}` flag;
/// tables (stdout) are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// No progress output: stdout carries the results (`artifacts` prints
    /// only its failures), stderr only errors.
    Off,
    /// End-of-run summaries (`[wrote ...]`, `[... done in Ns]`) — the default.
    #[default]
    Summary,
    /// Summaries plus per-table timing lines.
    Verbose,
}

impl LogLevel {
    /// Parses a `--log-level` argument.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "summary" => Some(LogLevel::Summary),
            "verbose" => Some(LogLevel::Verbose),
            _ => None,
        }
    }
}

static LOG_LEVEL: std::sync::OnceLock<LogLevel> = std::sync::OnceLock::new();

/// Pins the progress verbosity for the process (first caller wins; later
/// calls are ignored, mirroring how thread-pool pinning behaves).
pub fn set_log_level(level: LogLevel) {
    let _ = LOG_LEVEL.set(level);
}

/// The pinned progress verbosity ([`LogLevel::Summary`] until
/// [`set_log_level`] runs).
pub fn log_level() -> LogLevel {
    LOG_LEVEL.get().copied().unwrap_or_default()
}

use mca_analysis::{run_trials, Summary, Table};
use mca_baselines as baselines;
use mca_core::ruling::{self, ProbPolicy, RulingConfig, RulingOutcome, RulingSet, TimeoutRule};
use mca_core::{
    aggregate, audit_structure, build_structure, color_nodes, AlgoConfig, Constants,
    InterclusterMode, MaxAgg, NetworkEnv, StructureConfig, SubstrateMode, Tdma,
};
use mca_geom::{Deployment, Point};
use mca_radio::{Channel, Engine, NodeId};
use mca_sinr::SinrParams;
use rand::{rngs::SmallRng, SeedableRng};

/// One full build+aggregate measurement.
#[derive(Debug, Clone)]
pub struct AggMeasurement {
    /// Construction slots.
    pub build_slots: u64,
    /// Follower-to-reporter slots.
    pub follower_slots: u64,
    /// Tree + inter-cluster slots.
    pub rest_slots: u64,
    /// Total aggregation slots.
    pub agg_slots: u64,
    /// Measured TDMA color count.
    pub phi: u16,
    /// Max degree of the communication graph.
    pub delta: usize,
    /// Approximate diameter.
    pub diameter: u32,
    /// Whether the sink learned the true maximum.
    pub correct: bool,
    /// Fraction of nodes holding the true maximum at the end.
    pub coverage: f64,
    /// Peak of the Lemma-19 contention trace (`P_c(v)/f_v`).
    pub contention_peak: f64,
    /// Same-color separation violations (audit).
    pub color_violations: usize,
}

/// Standard workload: uniform deployment, max-aggregation via the flood
/// inter-cluster mode.
pub fn measure_aggregation(
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
    let audit = audit_structure(&env, &structure, cfg.cluster_radius);

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
    let holders = out.values.iter().filter(|v| **v == Some(expect)).count();
    AggMeasurement {
        build_slots: structure.report.total_slots(),
        follower_slots: out.follower_slots,
        rest_slots: out.tree_slots + out.inter_slots,
        agg_slots: out.total_slots(),
        phi: structure.phi,
        delta: graph.max_degree(),
        diameter: graph.diameter_approx(),
        correct: out.values[0] == Some(expect),
        coverage: holders as f64 / n as f64,
        contention_peak: out.contention_peak,
        color_violations: audit.color_violations,
    }
}

fn med(xs: &[u64]) -> f64 {
    Summary::of_counts(xs.iter().copied()).median()
}

/// E1 — Theorem 22 headline: aggregation slots vs `F` (dense regime).
pub fn e1_speedup(trials: usize) -> Table {
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
    let mut base: Option<f64> = None;
    for f in [1u16, 2, 4, 8, 16] {
        let out = run_trials(100 + f as u64, trials, |seed| {
            measure_aggregation(
                500,
                6.5,
                f,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        });
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
    t
}

/// E2 — Theorem 22: slots vs `n` at fixed density, `F = 8`.
pub fn e2_scaling_n(trials: usize) -> Table {
    let mut t = Table::new(
        "E2 (Theorem 22): slots vs n at fixed density, F = 8",
        ["n", "delta", "D", "build slots", "agg slots"],
    );
    for n in [150usize, 300, 600, 1200] {
        let side = (n as f64 / 8.0).sqrt();
        let out = run_trials(200 + n as u64, trials, |seed| {
            measure_aggregation(
                n,
                side,
                8,
                1.5,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        });
        t.row([
            n.to_string(),
            format!("{:.0}", out.summarize(|m| m.delta as f64).median()),
            format!("{:.0}", out.summarize(|m| m.diameter as f64).median()),
            format!("{:.0}", out.summarize(|m| m.build_slots as f64).median()),
            format!("{:.0}", out.summarize(|m| m.agg_slots as f64).median()),
        ]);
    }
    t
}

/// E3 — Theorem 22: slots vs `delta` at fixed `n`, `F` in {1, 8}.
pub fn e3_delta(trials: usize) -> Table {
    let mut t = Table::new(
        "E3 (Theorem 22): follower slots vs delta at n = 400 -- F=1 vs F=8",
        ["side", "delta", "F=1 slots", "F=8 slots", "ratio"],
    );
    for side in [11.0, 8.0, 6.0, 4.5] {
        let one = run_trials(300, trials, |seed| {
            measure_aggregation(
                400,
                side,
                1,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        });
        let eight = run_trials(300, trials, |seed| {
            measure_aggregation(
                400,
                side,
                8,
                2.0,
                SubstrateMode::Oracle,
                Constants::practical(),
                seed,
            )
        });
        let f1 = one.summarize(|m| m.follower_slots as f64).median();
        let f8 = eight.summarize(|m| m.follower_slots as f64).median();
        t.row([
            format!("{side:.1}"),
            format!("{:.0}", one.summarize(|m| m.delta as f64).median()),
            format!("{f1:.0}"),
            format!("{f8:.0}"),
            format!("{:.2}x", f1 / f8),
        ]);
    }
    t
}

/// E4 — Theorem 24: coloring slots and palette vs `F`, with the
/// single-channel baseline.
pub fn e4_coloring(trials: usize) -> Table {
    let params = SinrParams::default();
    let mut t = Table::new(
        "E4 (Theorem 24): coloring -- n=300, dense",
        ["algorithm", "F", "slots", "colors / (delta+1)", "proper"],
    );
    for f in [1u16, 4, 16] {
        let out = run_trials(400 + f as u64, trials, |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let deploy = Deployment::uniform(300, 6.0, &mut rng);
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
        t.row([
            "structure coloring (paper s7)".to_string(),
            f.to_string(),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.2}", out.summarize(|r| r.1).median()),
            format!("{:.0}%", out.fraction(|r| r.2) * 100.0),
        ]);
    }
    let out = run_trials(444, trials, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(300, 6.0, &mut rng);
        let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
        let algo = AlgoConfig::practical(1, &params, 300);
        let b = baselines::run_single_coloring(&params, deploy.points(), &algo, 1024, seed);
        let colors: Vec<u32> = b.colors.iter().map(|c| c.unwrap()).collect();
        (
            b.slots,
            b.palette_size() as f64 / (graph.max_degree() + 1) as f64,
            graph.coloring_violation(&colors).is_none(),
        )
    });
    t.row([
        "single-channel ruling phases".to_string(),
        "1".to_string(),
        format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
        format!("{:.2}", out.summarize(|r| r.1).median()),
        format!("{:.0}%", out.fraction(|r| r.2) * 100.0),
    ]);
    t
}

/// E5 — Lemma 6: ruling-set rounds vs `n` on constant-density sets.
pub fn e5_ruling(trials: usize) -> Table {
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
    for exp in [8u32, 10, 12] {
        let n = 1usize << exp;
        let out = run_trials(500 + n as u64, trials, |seed| {
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
        });
        t.row([
            format!("{n}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1).median()),
            format!("{:.0}%", out.fraction(|r| r.2) * 100.0),
            format!("{:.0}%", out.fraction(|r| r.3) * 100.0),
        ]);
    }
    t
}

/// E6 — Lemma 7: distributed dominating set, rounds and density vs `n`.
pub fn e6_dominate(trials: usize) -> Table {
    let mut t = Table::new(
        "E6 (Lemma 7): distributed dominating set (r_c = 1.5, fixed density)",
        ["n", "slots", "density", "coverage", "timeout joins"],
    );
    for n in [200usize, 400, 800, 1600] {
        let out = run_trials(600 + n as u64, trials, |seed| {
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
        });
        t.row([
            n.to_string(),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.1}%", out.summarize(|r| r.2).median() * 100.0),
            format!("{:.0}", out.summarize(|r| r.3 as f64).median()),
        ]);
    }
    t
}

/// E7 — Lemmas 12 vs 13: CSA variants across the crossover.
pub fn e7_csa(trials: usize) -> Table {
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
    for m in [12usize, 24, 48, 96] {
        let out = run_trials(700 + m as u64, trials, |seed| {
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
                params,
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
            let mut engine = Engine::new(params, positions.clone(), protocols, seed);
            let cap = csa_cfg.tdma.slots_for_rounds(csa_cfg.total_rounds()) + 1;
            engine.run_until(cap, |ps: &[mca_core::csa::CsaProtocol]| {
                ps.iter().all(|p| p.is_satisfied())
            });
            let large_slots = engine.slot();
            let large_est = engine.protocols()[0].coordinator_estimate().unwrap_or(0);

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
                &params,
                &positions,
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
        });
        t.row([
            (m + 1).to_string(),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.2}", out.summarize(|r| r.2).median()),
            format!("{:.2}", out.summarize(|r| r.3).median()),
        ]);
    }
    t
}

/// E8 — Lemmas 15/16: reporter election quality and convergecast cost.
pub fn e8_reporters(trials: usize) -> Table {
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
    for f in [2u16, 4, 8, 16] {
        let out = run_trials(800 + f as u64, trials, |seed| {
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
        });
        let tree = mca_core::tree::HeapTree::new(f);
        t.row([
            f.to_string(),
            format!("{:.0}%", out.summarize(|r| r.0).median() * 100.0),
            format!("{:.1}", out.summarize(|r| r.1 as f64).mean()),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
            format!("{}", tree.lemma16_slots()),
        ]);
    }
    t
}

/// E10 — lower bounds: the exponential chain and the `D` term.
pub fn e10_lower_bounds(trials: usize) -> (Table, Table) {
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
    for len in [25.0, 50.0, 100.0] {
        let out = run_trials(1000 + len as u64, trials, |seed| {
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
        });
        dterm.row([
            format!("{len:.0}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
        ]);
    }
    (chain, dterm)
}

/// E11 — Lemma 2: guaranteed reception radius under `r1`-separation.
pub fn e11_lemmas(trials: usize) -> Table {
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
    for r1 in [3.0f64, 6.0, 12.0] {
        let r2 = mca_sinr::bounds::lemma2_max_r2(&params, r1);
        let out = run_trials(1100 + r1 as u64, trials.max(3), |seed| {
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
                if o1.decoded == Some(k) {
                    ok_r2 += 1;
                }
                if o2.decoded == Some(k) {
                    ok_far += 1;
                }
            }
            (ok_r2 as f64 / total as f64, ok_far as f64 / total as f64)
        });
        t.row([
            format!("{r1:.0}"),
            format!("{r2:.2}"),
            format!("{:.0}%", out.summarize(|r| r.0).median() * 100.0),
            format!("{:.0}%", out.summarize(|r| r.1).median() * 100.0),
        ]);
    }
    t
}

/// T1 — related-work comparison at one dense configuration.
pub fn t1_comparison(trials: usize) -> Table {
    let params = SinrParams::default();
    let n = 400;
    let side = 6.0;
    let mut t = Table::new(
        "T1: max-aggregation comparison -- n=400, dense, SINR unless noted",
        ["algorithm", "slots (median)", "correct"],
    );
    for f in [8u16, 1] {
        let out = run_trials(1200 + f as u64, trials, |seed| {
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
        });
        t.row([
            format!("aggregation structure (F = {f}, incl. build)"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}%", out.fraction(|r| r.1) * 100.0),
        ]);
    }
    let out = run_trials(1250, trials, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
        let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
        let expect = *inputs.iter().max().unwrap();
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
    });
    t.row([
        "single-channel decay tree ([24]-style)".to_string(),
        format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
        format!("{:.0}%", out.fraction(|r| r.1) * 100.0),
    ]);
    let out = run_trials(1260, trials, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let graph = mca_geom::CommGraph::build(deploy.points(), 4.0);
        let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
        let expect = *inputs.iter().max().unwrap();
        let (values, slots) = baselines::run_naive_tdma(
            &params,
            deploy.points(),
            &inputs,
            graph.diameter_approx() + 2,
            seed,
        );
        (slots, values.iter().all(|&v| v == expect))
    });
    t.row([
        "naive deterministic TDMA".to_string(),
        format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
        format!("{:.0}%", out.fraction(|r| r.1) * 100.0),
    ]);
    let out = run_trials(1270, trials, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let deploy = Deployment::uniform(n, side, &mut rng);
        let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
        let expect = *inputs.iter().max().unwrap();
        let g = baselines::run_graph_flood(deploy.points(), 4.0, &inputs, 8, 0.2, 400_000, seed);
        (g.slots, g.values.iter().all(|&v| v == expect))
    });
    t.row([
        "graph-model multichannel flood ([4]-style, F = 8)".to_string(),
        format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
        format!("{:.0}%", out.fraction(|r| r.1) * 100.0),
    ]);
    t
}

/// A1 — ablations: substrate, backoff, channel-allocation constant.
pub fn a1_ablations(trials: usize) -> Table {
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
    let run_variant = |t: &mut Table, name: &str, substrate: SubstrateMode, consts: Constants| {
        let out = run_trials(1300 + name.len() as u64, trials, |seed| {
            measure_aggregation(400, 6.0, 8, 2.0, substrate, consts, seed)
        });
        t.row([
            name.to_string(),
            format!("{:.0}", out.summarize(|m| m.build_slots as f64).median()),
            format!("{:.0}", out.summarize(|m| m.agg_slots as f64).median()),
            format!("{:.2}", out.summarize(|m| m.contention_peak).median()),
            format!("{:.0}%", out.fraction(|m| m.correct) * 100.0),
        ]);
    };
    run_variant(
        &mut t,
        "baseline (oracle substrate)",
        SubstrateMode::Oracle,
        Constants::practical(),
    );
    run_variant(
        &mut t,
        "distributed substrate",
        SubstrateMode::Distributed,
        Constants::practical(),
    );
    let mut no_backoff = Constants::practical();
    no_backoff.omega2 = 1e6;
    run_variant(
        &mut t,
        "backoff disabled (omega2 huge)",
        SubstrateMode::Oracle,
        no_backoff,
    );
    let mut coarse = Constants::practical();
    coarse.c1 = 8.0;
    run_variant(
        &mut t,
        "coarse channel allocation (c1 = 8)",
        SubstrateMode::Oracle,
        coarse,
    );
    t
}

/// A2 — fault injection: jamming and crashes on the backbone flood.
pub fn a2_faults(trials: usize) -> Table {
    use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
    use mca_radio::{FaultPlan, JamSpec};
    let params = SinrParams::default();
    let mut t = Table::new(
        "A2: flood-combine under faults -- 24-dominator backbone",
        ["scenario", "nodes with global max", "slots"],
    );
    for (name, jam, duty, crashes, hop) in [
        ("fault-free", 0.0f64, 1u16, 0usize, 0u16),
        ("25%-duty jammer (100x noise)", 100.0, 4, 0, 0),
        ("constant jammer (100x noise)", 100.0, 1, 0, 0),
        ("3 crashed dominators", 0.0, 1, 3, 0),
        ("constant jammer + 4-ch hopping", 100.0, 1, 0, 4),
    ] {
        let out = run_trials(
            1400 + crashes as u64 + jam as u64 + hop as u64,
            trials,
            |seed| {
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
                let mut engine = Engine::new(params, deploy.points().to_vec(), protocols, seed)
                    .with_faults(faults);
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
    t
}

/// E12 — applications of the structure: leader election and single-source
/// broadcast inherit Theorem 22's cost and channel speedup.
pub fn e12_applications(trials: usize) -> Table {
    use mca_core::{broadcast, elect_leader};
    let mut t = Table::new(
        "E12: leader election + broadcast on the structure -- n=300, dense",
        ["F", "leader slots", "agreement", "bcast slots", "coverage"],
    );
    let params = SinrParams::default();
    for channels in [1u16, 4, 8] {
        let out = run_trials(1500 + channels as u64, trials, |seed| {
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
        });
        t.row([
            format!("{channels}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.1).median() * 100.0),
            format!("{:.0}", out.summarize(|r| r.2 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.3).median() * 100.0),
        ]);
    }
    t
}

/// E13 — multiple-message broadcast: the gossip phase grows linearly in
/// `k` (each node must *receive* `k` distinct packets — incompressible).
pub fn e13_multimessage(trials: usize) -> Table {
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
    for k in [1usize, 2, 4, 8, 16] {
        let out = run_trials(1600 + k as u64, trials, |seed| {
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
        });
        let gossip = out.summarize(|r| r.1 as f64).median();
        t.row([
            format!("{k}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{gossip:.0}"),
            format!("{:.0}", gossip / k as f64),
            format!("{:.0}%", out.summarize(|r| r.2).median() * 100.0),
        ]);
    }
    t
}

/// E14 — the compressibility limit (paper's contrast with its reference
/// \[37\]): on the same single-hop instance, aggregation speeds up
/// linearly with `F` while local information exchange is flat — a
/// listener decodes one packet per slot no matter how many channels exist.
pub fn e14_compressibility(trials: usize) -> Table {
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
    let mut ex_base = 0.0f64;
    let mut agg_base = 0.0f64;
    for channels in [1u16, 2, 4, 8, 16] {
        let out = run_trials(1700 + channels as u64, trials, |seed| {
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
        });
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
    t
}

/// E15 — ruling sets and MIS via §4 network-wide (the \[4\] comparison):
/// the two-phase pipeline stays sound at every density; the direct
/// (phase-two-only) MIS is sound while the input density is moderate and
/// shows why the paper runs the dominating set first.
pub fn e15_mis(trials: usize) -> Table {
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
    for n in [128usize, 512, 2048] {
        let out = run_trials(1800 + n as u64, trials, |seed| {
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
        });
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
    t
}

/// E16 — dynamic environments: aggregation success vs node speed.
///
/// The flood-combine max-aggregation backbone runs end-to-end inside
/// `mca-scenario` worlds whose nodes roam by random waypoint at increasing
/// speeds, plus one Gilbert–Elliot fading world as a channel-dynamics
/// reference point. All (scenario × seed) trials execute in parallel via
/// `ScenarioRunner`; results are identical to a sequential run.
pub fn e16_mobility(trials: usize) -> Table {
    use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
    use mca_scenario::{
        DeploymentSpec, FadingSpec, MobilitySpec, Scenario, ScenarioRunner, ScenarioSim,
    };
    let n = 60usize;
    let channels = 4u16;
    let slots = 400u64;
    let base = |name: &str| {
        let mut b = Scenario::builder(name)
            .deployment(DeploymentSpec::Uniform { n, side: 30.0 })
            .channels(channels)
            .max_slots(slots);
        b = b.sinr(SinrParams::default());
        b
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
    let results = ScenarioRunner::sweep(scenarios)
        .trials(trials.max(2))
        .master_seed(1600)
        .run(move |scenario, seed| {
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
        });

    let mut t = Table::new(
        "E16: flood aggregation in dynamic environments -- n=60, F=4",
        ["scenario", "coverage (median)", "full coverage", "rx rate"],
    );
    for st in &results {
        t.row([
            st.name.clone(),
            format!("{:.0}%", st.outcome.summarize(|r| r.0).median() * 100.0),
            format!("{:.0}%", st.outcome.fraction(|r| r.0 >= 1.0) * 100.0),
            format!("{:.3}", st.outcome.summarize(|r| r.1).median()),
        ]);
    }
    t
}

/// A3 — ablation of the multi-message gossip: the backbone transmission
/// probability `q` (the paper's "constant probability" sketch) trades
/// collision losses against idle slots; completion is measured because the
/// harness stops the run the moment every node holds every message.
pub fn a3_gossip(trials: usize) -> Table {
    use mca_core::broadcast_many;
    let mut t = Table::new(
        "A3: gossip probability ablation -- n=120, F=4, k=8",
        ["q", "gossip slots", "hoist slots", "full coverage"],
    );
    let params = SinrParams::default();
    for q in [0.05f64, 0.2, 0.35, 0.5] {
        let out = run_trials(1900 + (q * 100.0) as u64, trials, |seed| {
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
        });
        t.row([
            format!("{q:.2}"),
            format!("{:.0}", out.summarize(|r| r.0 as f64).median()),
            format!("{:.0}", out.summarize(|r| r.1 as f64).median()),
            format!("{:.0}%", out.summarize(|r| r.2).median() * 100.0),
        ]);
    }
    t
}

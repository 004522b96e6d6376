//! The paper's claims as tables: one registry, one harness, one trial runner.
//!
//! The source paper is a theory paper, so its "tables and figures" are the
//! complexity claims of Theorems 22/24 and Lemmas 2-16, reproduced here as
//! scaling tables at reduced size. [`claim_tables`] lists them in print
//! order; a [`ClaimTable`] renders its tables for a trial count, never
//! fewer than its `floor`.
//!
//! A seeded table is a declaration, a `ClaimSpec`: its title and columns;
//! its arms, one row each, every arm with its knob, its master seed (a
//! literal), its world and its substrate; the cluster radius of its
//! structure builds; what one trial measures; and how an arm's trials print
//! as cells. The measurement and the cells are the only per-table code. The
//! harness, `ClaimSpec::render`, owns the policy:
//! - *seeds*: it runs every (arm, seed) trial as one enumeration of
//!   [`run_seeded_rows`], arm `i` on `trial_seed(master_i, 0..trials)`, so
//!   the numbers do not depend on the thread count;
//! - *worlds*: it draws each trial's uniform, corridor or disk deployment
//!   from the trial seed (`World::draw`);
//! - *substrate*: `Trial::structure_config` is the one place a
//!   `StructureConfig` is made, with the arm's substrate and the spec's
//!   cluster radius, and `arm` gives every arm the tables' substrate (the
//!   oracle; A1 declares each arm's own);
//! - *trial floor*: the registry entry's `floor`, applied by
//!   [`ClaimTable::section`].
//!
//! M1 and M2 (repair vs rebuild, reactive vs proactive repair) come from one
//! maintained-world harness, [`maintained`], which runs seeds 1-3 of named
//! worlds through one [`TrialSet`](mca_scenario::TrialSet) per table, the
//! same batch executor.
//!
//! A render returns `Err` when a gate of its entry fails; the committed
//! file then fails as a `GATE`, and `experiments <id>` exits non-zero.
//! `experiments <id> [trials]` prints one entry and `experiments all
//! [trials]` every entry; the committed `EXPERIMENTS.md`
//! ([`experiments_md`]) is every entry at [`CLAIM_TRIALS`] trials.

use crate::maintained;
use mca_analysis::{Summary, Table, TrialOutcome};
use mca_baselines as baselines;
use mca_core::reporter::ElectionSeat;
use mca_core::ruling::{Budget, Election, RulingConfig, RulingOutcome, RulingSet, TimeoutRule};
use mca_core::structure::all_done;
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
    /// The fewest trials per arm the entry runs, whatever it is asked for.
    /// (M1 and M2 keep their own floor of 3 seeds in [`maintained`].)
    pub floor: usize,
    /// Renders the entry's tables at `trials` trials per arm, or says
    /// which of the entry's gates failed.
    pub render: fn(trials: usize) -> Result<Vec<Table>, String>,
}

impl ClaimTable {
    /// The entry as printed at `trials` trials per arm (at least
    /// [`ClaimTable::floor`]): each table followed by a blank line, or the
    /// reason its gate failed.
    pub fn section(&self, trials: usize) -> Result<String, String> {
        let tables = (self.render)(trials.max(self.floor))?;
        Ok(tables.iter().map(|t| format!("{t}\n")).collect())
    }
}

/// Trials per arm of the committed `EXPERIMENTS.md`, and the default of
/// `experiments all`.
pub const CLAIM_TRIALS: usize = 2;

/// A registry entry.
const fn entry(
    id: &'static str,
    floor: usize,
    render: fn(usize) -> Result<Vec<Table>, String>,
) -> ClaimTable {
    ClaimTable { id, floor, render }
}

const CLAIMS: &[ClaimTable] = &[
    entry("e1", 1, |t| Ok(vec![e1_speedup().render(t)])),
    entry("e2", 1, |t| Ok(vec![e2_scaling_n().render(t)])),
    entry("e3", 1, |t| Ok(vec![e3_delta().render(t)])),
    entry("e4", 1, |t| Ok(vec![e4_coloring().render(t)])),
    entry("e5", 1, |t| Ok(vec![e5_ruling().render(t)])),
    entry("e6", 1, |t| Ok(vec![e6_dominate().render(t)])),
    entry("e7", 1, |t| Ok(vec![e7_csa().render(t)])),
    entry("e8", 1, |t| Ok(vec![e8_reporters().render(t)])),
    entry("e10", 1, |t| Ok(vec![e10a_chain(), e10b_dterm().render(t)])),
    entry("e11", 3, |t| Ok(vec![e11_lemmas().render(t)])),
    entry("e12", 1, |t| Ok(vec![e12_applications().render(t)])),
    entry("e13", 1, |t| Ok(vec![e13_multimessage().render(t)])),
    entry("e14", 1, |t| Ok(vec![e14_compressibility().render(t)])),
    entry("e15", 1, |t| Ok(vec![e15_mis().render(t)])),
    entry("e16", 2, |t| Ok(vec![e16_mobility().render(t)])),
    entry("t1", 1, |t| Ok(vec![t1_comparison().render(t)])),
    entry("a1", 1, |t| Ok(vec![a1_ablations().render(t)])),
    entry("a2", 1, |t| Ok(vec![a2_faults().render(t)])),
    entry("a3", 1, |t| Ok(vec![a3_gossip().render(t)])),
    entry("m1", 1, maintained::m1_repair),
    entry("m2", 1, maintained::m2_adversary),
];

/// Every claim table, in print order.
pub fn claim_tables() -> &'static [ClaimTable] {
    CLAIMS
}

/// The committed `EXPERIMENTS.md`: a preamble, then every entry of
/// [`claim_tables`] at [`CLAIM_TRIALS`] trials, or the first failed gate
/// as `<id>: <reason>`.
pub fn experiments_md() -> Result<String, String> {
    let floors: Vec<String> = claim_tables()
        .iter()
        .filter(|c| c.floor > CLAIM_TRIALS)
        .map(|c| format!("{} runs {}", c.id.to_uppercase(), c.floor))
        .collect();
    let floors = match floors.is_empty() {
        true => String::new(),
        false => format!(" ({})", floors.join(", ")),
    };
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
         artifacts --write` at {CLAIM_TRIALS} trials per row{floors};\n\
         `experiments <id> [trials]` prints one section. Do not edit.\n\n"
    );
    for claim in claim_tables() {
        let section = claim.section(CLAIM_TRIALS);
        md.push_str(&section.map_err(|why| format!("{}: {why}", claim.id))?);
    }
    Ok(md)
}

/// A seeded claim table, declared: [`ClaimSpec::render`] is its harness.
struct ClaimSpec<K, T> {
    /// The table's title.
    title: &'static str,
    /// Column headers; each arm's row has one cell per column.
    columns: &'static [&'static str],
    /// One row each, in print order.
    arms: Vec<Arm<K>>,
    /// The cluster radius of the table's structure builds; `None` keeps
    /// the default, `ε·R_T/4`.
    cluster_radius: Option<f64>,
    /// What one trial measures.
    measure: fn(&Trial<K>) -> T,
    /// An arm's row from its knob and its trials; the third argument is
    /// the first arm's trials, the base of a speedup column.
    cells: fn(&K, &TrialOutcome<T>, &TrialOutcome<T>) -> Vec<String>,
}

/// One arm (row) of a seeded table.
struct Arm<K> {
    /// What the arm varies: channels, size, algorithm, fault, …
    knob: K,
    /// The arm's master seed: its trials run `trial_seed(master, 0..trials)`.
    master: u64,
    /// The world each trial draws from its seed.
    world: World,
    /// The dominating-set substrate of the arm's structure builds.
    substrate: SubstrateMode,
}

/// An arm on the claim tables' substrate: the oracle, which factors §4's
/// distributed dominating set out of every build (an ablation).
fn arm<K>(knob: K, master: u64, world: World) -> Arm<K> {
    Arm {
        knob,
        master,
        world,
        substrate: SubstrateMode::Oracle,
    }
}

/// The deployment a trial draws from its seed.
#[derive(Debug, Clone, Copy)]
enum World {
    /// `n` nodes uniform on a `side × side` square.
    Uniform { n: usize, side: f64 },
    /// `n` nodes uniform on a `len × width` corridor.
    Corridor { n: usize, len: f64, width: f64 },
    /// `n` nodes uniform in a disk of radius `radius`.
    Disk { n: usize, radius: f64 },
    /// No deployment: the measurement places its own nodes (E7, E11) or
    /// runs a scenario (E16).
    Own,
}

impl World {
    /// Arms that all draw this world, one per `(knob, master)`.
    fn arms<K, const N: usize>(self, arms: [(K, u64); N]) -> Vec<Arm<K>> {
        arms.into_iter()
            .map(|(knob, master)| arm(knob, master, self))
            .collect()
    }

    /// The deployment of trial `seed` (empty for [`World::Own`]).
    fn draw(self, seed: u64) -> Deployment {
        let rng = &mut SmallRng::seed_from_u64(seed);
        match self {
            World::Uniform { n, side } => Deployment::uniform(n, side, rng),
            World::Corridor { n, len, width } => Deployment::corridor(n, len, width, rng),
            World::Disk { n, radius } => Deployment::disk(n, radius, rng),
            World::Own => Deployment::from_points("own", Vec::new()),
        }
    }
}

/// One trial as its measurement sees it.
struct Trial<'a, K> {
    knob: &'a K,
    seed: u64,
    /// The arm's world, drawn from `seed`.
    deploy: Deployment,
    substrate: SubstrateMode,
    cluster_radius: Option<f64>,
}

impl<K> Trial<'_, K> {
    /// The network over the trial's world at the default SINR parameters.
    fn env(&self) -> NetworkEnv {
        NetworkEnv::new(SinrParams::default(), &self.deploy)
    }

    /// Every claim table's structure build configuration: the arm's
    /// substrate and the spec's cluster radius, seeded by the trial.
    fn structure_config(&self, algo: AlgoConfig) -> StructureConfig {
        let mut cfg = StructureConfig::new(algo, self.seed);
        cfg.substrate = self.substrate;
        cfg.cluster_radius = self.cluster_radius.unwrap_or(cfg.cluster_radius);
        cfg
    }
}

impl<K: Sync, T: Send> ClaimSpec<K, T> {
    /// Trial `seed` of arm `row`.
    fn trial(&self, row: usize, seed: u64) -> Trial<'_, K> {
        let arm = &self.arms[row];
        Trial {
            knob: &arm.knob,
            seed,
            deploy: arm.world.draw(seed),
            substrate: arm.substrate,
            cluster_radius: self.cluster_radius,
        }
    }

    /// Runs `trials` seeds of every arm as one enumeration: arm `i` on
    /// `trial_seed(master_i, 0..trials)`, its results in seed order.
    fn run(&self, trials: usize) -> Vec<TrialOutcome<T>> {
        let masters: Vec<u64> = self.arms.iter().map(|a| a.master).collect();
        run_seeded_rows(&masters, trials, true, |row, seed| {
            (self.measure)(&self.trial(row, seed))
        })
    }

    /// The table at `trials` trials per arm, one row per arm.
    fn render(&self, trials: usize) -> Table {
        let outs = self.run(trials);
        let mut t = Table::new(self.title, self.columns.iter().copied());
        for (arm, out) in self.arms.iter().zip(&outs) {
            t.row((self.cells)(&arm.knob, out, &outs[0]));
        }
        t
    }
}

/// The median of `f` over an arm's trials.
fn median<T>(out: &TrialOutcome<T>, f: impl Fn(&T) -> f64) -> f64 {
    out.summarize(f).median()
}

/// The median of `f` over an arm's trials, as a whole number.
fn whole<T>(out: &TrialOutcome<T>, f: impl Fn(&T) -> f64) -> String {
    format!("{:.0}", median(out, f))
}

/// A share as a whole percentage.
fn percent(share: f64) -> String {
    format!("{:.0}%", share * 100.0)
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

/// Standard workload on the trial's world: max-aggregation via the flood
/// inter-cluster mode.
fn measure_aggregation<K>(t: &Trial<K>, channels: u16, consts: Constants) -> AggMeasurement {
    let env = t.env();
    let n = env.len();
    let graph = env.comm_graph();
    let algo = AlgoConfig::new(
        channels,
        mca_sinr::NodeKnowledge::exact(&env.params, n),
        consts,
    );
    let structure = build_structure(&env, &t.structure_config(algo));

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
        t.seed ^ 0xA66,
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

/// E1 — Theorem 22 headline: aggregation slots vs `F` (dense regime).
fn e1_speedup() -> ClaimSpec<u16, AggMeasurement> {
    let world = World::Uniform { n: 500, side: 6.5 };
    ClaimSpec {
        title: "E1 (Theorem 22): aggregation slots vs channels -- n=500, dense",
        columns: &[
            "F",
            "follower slots",
            "agg slots",
            "speedup",
            "contention peak",
        ],
        arms: world.arms([(1, 101), (2, 102), (4, 104), (8, 108), (16, 116)]),
        cluster_radius: Some(2.0),
        measure: |t| measure_aggregation(t, *t.knob, Constants::practical()),
        cells: |f, out, first| {
            let fol = median(out, |m| m.follower_slots as f64);
            vec![
                f.to_string(),
                format!("{fol:.0}"),
                whole(out, |m| m.agg_slots as f64),
                format!("{:.2}x", median(first, |m| m.follower_slots as f64) / fol),
                format!("{:.2}", median(out, |m| m.contention_peak)),
            ]
        },
    }
}

/// E2 — Theorem 22: slots vs `n` at fixed density, `F = 8`.
fn e2_scaling_n() -> ClaimSpec<usize, AggMeasurement> {
    ClaimSpec {
        title: "E2 (Theorem 22): slots vs n at fixed density, F = 8",
        columns: &["n", "delta", "D", "build slots", "agg slots"],
        arms: [(150usize, 350), (300, 500), (600, 800), (1200, 1400)]
            .map(|(n, master)| {
                let side = (n as f64 / 8.0).sqrt();
                arm(n, master, World::Uniform { n, side })
            })
            .into(),
        cluster_radius: Some(1.5),
        measure: |t| measure_aggregation(t, 8, Constants::practical()),
        cells: |n, out, _| {
            vec![
                n.to_string(),
                whole(out, |m| m.delta as f64),
                whole(out, |m| m.diameter as f64),
                whole(out, |m| m.build_slots as f64),
                whole(out, |m| m.agg_slots as f64),
            ]
        },
    }
}

/// E3 — Theorem 22: slots vs `delta` at fixed `n`, `F` in {1, 8}. Each
/// trial runs both channel counts on its world, and every side runs the
/// same seeds (one master for the table).
fn e3_delta() -> ClaimSpec<f64, [AggMeasurement; 2]> {
    ClaimSpec {
        title: "E3 (Theorem 22): follower slots vs delta at n = 400 -- F=1 vs F=8",
        columns: &["side", "delta", "F=1 slots", "F=8 slots", "ratio"],
        arms: [11.0, 8.0, 6.0, 4.5]
            .map(|side| arm(side, 300, World::Uniform { n: 400, side }))
            .into(),
        cluster_radius: Some(2.0),
        measure: |t| [1, 8].map(|f| measure_aggregation(t, f, Constants::practical())),
        cells: |side, out, _| {
            let f1 = median(out, |m| m[0].follower_slots as f64);
            let f8 = median(out, |m| m[1].follower_slots as f64);
            vec![
                format!("{side:.1}"),
                whole(out, |m| m[0].delta as f64),
                format!("{f1:.0}"),
                format!("{f8:.0}"),
                format!("{:.2}x", f1 / f8),
            ]
        },
    }
}

/// E4 — Theorem 24: coloring slots and palette vs `F` (`Some(F)`), with
/// the single-channel baseline (`None`).
fn e4_coloring() -> ClaimSpec<Option<u16>, (u64, f64, bool)> {
    let world = World::Uniform { n: 300, side: 6.0 };
    ClaimSpec {
        title: "E4 (Theorem 24): coloring -- n=300, dense",
        columns: &["algorithm", "F", "slots", "colors / (delta+1)", "proper"],
        arms: world.arms([(Some(1), 401), (Some(4), 404), (Some(16), 416), (None, 444)]),
        // Coloring correctness requires the paper's r_c ≤ ε·R_T/4.
        cluster_radius: Some(1.0),
        measure: |t| {
            let params = SinrParams::default();
            let Some(f) = *t.knob else {
                let points = t.deploy.points();
                let graph = mca_geom::CommGraph::build(points, 4.0);
                let algo = AlgoConfig::practical(1, &params, 300);
                let b = baselines::run_single_coloring(&params, points, &algo, 1024, t.seed);
                let colors: Vec<u32> = b.colors.iter().map(|c| c.unwrap()).collect();
                return (
                    b.slots,
                    b.palette_size() as f64 / (graph.max_degree() + 1) as f64,
                    graph.coloring_violation(&colors).is_none(),
                );
            };
            let env = t.env();
            let graph = env.comm_graph();
            let algo = AlgoConfig::practical(f, &params, 300);
            let structure = build_structure(&env, &t.structure_config(algo));
            let col = color_nodes(&env, &structure, &algo, t.seed);
            let proper = col.uncolored == 0 && {
                let colors: Vec<u32> = col.colors.iter().map(|c| c.unwrap_or(u32::MAX)).collect();
                graph.coloring_violation(&colors).is_none()
            };
            (
                col.total_slots(),
                col.palette_size() as f64 / (graph.max_degree() + 1) as f64,
                proper,
            )
        },
        cells: |f, out, _| {
            let (algorithm, f) = match f {
                Some(f) => ("structure coloring (paper s7)", f.to_string()),
                None => ("single-channel ruling phases", "1".to_string()),
            };
            vec![
                algorithm.to_string(),
                f,
                whole(out, |r| r.0 as f64),
                format!("{:.2}", median(out, |r| r.1)),
                percent(out.fraction(|r| r.2)),
            ]
        },
    }
}

/// E5's rounds per `⌈log₂ n⌉` ([`Budget::Ramp`]): its committed rows were
/// measured with 60, above the pipeline's 48 (`mis.rs`).
const E5_ROUNDS_PER_LOG2: u64 = 60;

/// E5 — Lemma 6: ruling-set rounds vs `n` on constant-density sets.
fn e5_ruling() -> ClaimSpec<u32, (usize, f64, bool, bool)> {
    ClaimSpec {
        title: "E5 (Lemma 6): ruling-set rounds vs n (constant-density inputs)",
        columns: &[
            "n (field)",
            "participants",
            "median halt round",
            "independent",
            "dominating",
        ],
        arms: [(8u32, 756), (10, 1524), (12, 4596)]
            .map(|(exp, master)| {
                let n = 1usize << exp;
                let side = (n as f64 / 2.0).sqrt();
                arm(exp, master, World::Uniform { n, side })
            })
            .into(),
        cluster_radius: None,
        measure: |t| {
            let (exp, seed) = (*t.knob, t.seed);
            let params = SinrParams::default();
            let d = &t.deploy;
            let dom = mca_core::dominate::oracle(d.points(), 1.5, seed);
            let positions: Vec<Point> = dom
                .dominators()
                .iter()
                .map(|id| d.points()[id.index()])
                .collect();
            let k = positions.len();
            let r = 3.0;
            // The pipeline's election over the `k` dominators of a field of
            // `n = 2^exp` nodes, each of which may contend, under the
            // paper's §4 timeout rule.
            let algo = AlgoConfig::practical(1, &params, 1 << exp);
            let budget = Budget::Ramp {
                per_log2: E5_ROUNDS_PER_LOG2,
            };
            let election = Election::network(r, k as u64, budget, TimeoutRule::Join);
            let rcfg = RulingConfig::election(&algo, election);
            let protocols: Vec<RulingSet> = (0..k)
                .map(|i| RulingSet::new(NodeId(i as u32), rcfg))
                .collect();
            let env = NetworkEnv { params, positions };
            let (out, _) = env.run_phase(protocols, None, seed, rcfg.slot_cap(), all_done);
            let positions = &env.positions;
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
        cells: |exp, out, _| {
            vec![
                format!("{}", 1usize << exp),
                whole(out, |r| r.0 as f64),
                whole(out, |r| r.1),
                percent(out.fraction(|r| r.2)),
                percent(out.fraction(|r| r.3)),
            ]
        },
    }
}

/// E6 — Lemma 7: distributed dominating set, rounds and density vs `n`.
fn e6_dominate() -> ClaimSpec<usize, (u64, usize, f64, usize)> {
    use mca_core::dominate::{self, DominateConfig, DominateProtocol};
    ClaimSpec {
        title: "E6 (Lemma 7): distributed dominating set (r_c = 1.5, fixed density)",
        columns: &["n", "slots", "density", "coverage", "timeout joins"],
        arms: [(200usize, 800), (400, 1000), (800, 1400), (1600, 2200)]
            .map(|(n, master)| {
                let side = (n as f64 / 6.0).sqrt();
                arm(n, master, World::Uniform { n, side })
            })
            .into(),
        cluster_radius: None,
        measure: |t| {
            let n = *t.knob;
            let env = t.env();
            let params = env.params;
            let algo = AlgoConfig::practical(4, &params, n);
            let mut dc = DominateConfig::from_algo(&algo);
            dc.radius = 1.5;
            dc.busy_threshold = params.received_power(3.0);
            let protocols: Vec<DominateProtocol> = (0..n)
                .map(|i| DominateProtocol::new(NodeId(i as u32), dc))
                .collect();
            let cap = dc.rounds * dominate::SLOTS_PER_ROUND as u64 + 3;
            let (protocols, slots) = env.run_phase(protocols, None, t.seed, cap, all_done);
            let out = dominate::collect(&protocols, slots);
            let doms: Vec<Point> = out
                .dominators()
                .iter()
                .map(|id| env.positions[id.index()])
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
        cells: |n, out, _| {
            vec![
                n.to_string(),
                whole(out, |r| r.0 as f64),
                whole(out, |r| r.1 as f64),
                format!("{:.1}%", median(out, |r| r.2) * 100.0),
                whole(out, |r| r.3 as f64),
            ]
        },
    }
}

/// E7 — Lemmas 12 vs 13: CSA variants across the crossover.
fn e7_csa() -> ClaimSpec<usize, (u64, u64, f64, f64)> {
    ClaimSpec {
        title: "E7 (Lemmas 12/13): CSA large vs small -- one cluster, F = 16",
        columns: &[
            "cluster size",
            "large slots",
            "small slots",
            "large est ratio",
            "small est ratio",
        ],
        arms: World::Own.arms([(12, 712), (24, 724), (48, 748), (96, 796)]),
        cluster_radius: None,
        measure: |t| {
            let (m, seed) = (*t.knob, t.seed);
            let params = SinrParams::default();
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

            let delta_hat = (m as u64 * 4).max(8);
            let seats: Vec<Option<ElectionSeat>> = (0..=m)
                .map(|i| {
                    Some(ElectionSeat {
                        cluster: NodeId(0),
                        color: 0,
                        size_est: delta_hat,
                        is_dominator: i == 0,
                    })
                })
                .collect();
            let small =
                mca_core::csa_small::run_csa_small(&env, &seats, &algo, 1, 1.0, delta_hat, seed);
            let small_est = small.estimate[0].unwrap_or(0);
            (
                large_slots,
                small.total_slots(),
                large_est as f64 / (m + 1) as f64,
                small_est as f64 / (m + 1) as f64,
            )
        },
        cells: |m, out, _| {
            vec![
                (m + 1).to_string(),
                whole(out, |r| r.0 as f64),
                whole(out, |r| r.1 as f64),
                format!("{:.2}", median(out, |r| r.2)),
                format!("{:.2}", median(out, |r| r.3)),
            ]
        },
    }
}

/// E8 — Lemmas 15/16: reporter election quality and convergecast cost.
fn e8_reporters() -> ClaimSpec<u16, (f64, usize, u64)> {
    let world = World::Uniform { n: 400, side: 6.0 };
    ClaimSpec {
        title: "E8 (Lemmas 15/16): reporter election + tree -- n=400 dense, F sweep",
        columns: &[
            "F",
            "channel fill",
            "multi-reporter channels",
            "tree slots/phi",
            "Lemma-16 send slots",
        ],
        arms: world.arms([(2, 802), (4, 804), (8, 808), (16, 816)]),
        cluster_radius: Some(2.0),
        measure: |t| {
            let env = t.env();
            let algo = AlgoConfig::practical(*t.knob, &env.params, 400);
            let cfg = t.structure_config(algo);
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
                t.seed,
            );
            (
                audit.channel_fill,
                audit.multi_reporter_channels,
                agg.tree_slots / structure.phi.max(1) as u64,
            )
        },
        cells: |&f, out, _| {
            vec![
                f.to_string(),
                percent(median(out, |r| r.0)),
                format!("{:.1}", out.summarize(|r| r.1 as f64).mean()),
                whole(out, |r| r.2 as f64),
                format!("{}", mca_core::tree::HeapTree::new(f).lemma16_slots()),
            ]
        },
    }
}

/// E10a — lower bound: the exponential chain (exhaustive, no seeds).
fn e10a_chain() -> Table {
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
    chain
}

/// E10b — lower bound: the `D` term on corridors.
fn e10b_dterm() -> ClaimSpec<f64, (u32, u64, u64)> {
    ClaimSpec {
        title: "E10b (lower bound): inter-cluster slots vs D -- corridors, F = 4",
        columns: &["length", "D", "inter rounds (slots/phi)", "follower slots"],
        arms: [(25.0, 1025), (50.0, 1050), (100.0, 1100)]
            .map(|(len, master)| {
                let world = World::Corridor {
                    n: 240,
                    len,
                    width: 4.0,
                };
                arm(len, master, world)
            })
            .into(),
        cluster_radius: None,
        measure: |t| {
            let env = t.env();
            let graph = env.comm_graph();
            let algo = AlgoConfig::practical(4, &env.params, 240);
            let structure = build_structure(&env, &t.structure_config(algo));
            let inputs = vec![1i64; 240];
            let agg = aggregate(
                &env,
                &structure,
                &algo,
                MaxAgg,
                &inputs,
                InterclusterMode::Flood,
                graph.diameter_approx() + 2,
                t.seed,
            );
            (
                graph.diameter_approx(),
                agg.inter_slots / structure.phi.max(1) as u64,
                agg.follower_slots,
            )
        },
        cells: |len, out, _| {
            vec![
                format!("{len:.0}"),
                whole(out, |r| r.0 as f64),
                whole(out, |r| r.1 as f64),
                whole(out, |r| r.2 as f64),
            ]
        },
    }
}

/// E11 — Lemma 2: guaranteed reception radius under `r1`-separation. The
/// knob is `(r1, r2)`, `r2` the lemma's analytic radius.
fn e11_lemmas() -> ClaimSpec<(f64, f64), (f64, f64)> {
    let params = SinrParams::default();
    ClaimSpec {
        title: "E11 (Lemma 2): reception at r2 = t*r1 under r1-separated transmitters",
        columns: &[
            "r1",
            "analytic r2",
            "reception rate at r2",
            "rate at min(2*r2, r1/2)",
        ],
        arms: [(3.0, 1103), (6.0, 1106), (12.0, 1112)]
            .map(|(r1, master)| {
                let r2 = mca_sinr::bounds::lemma2_max_r2(&params, r1);
                arm((r1, r2), master, World::Own)
            })
            .into(),
        cluster_radius: None,
        measure: |t| {
            let ((r1, r2), params) = (*t.knob, SinrParams::default());
            let mut txs = Vec::new();
            for i in 0..12 {
                for j in 0..12 {
                    txs.push(Point::new(i as f64 * r1, j as f64 * r1));
                }
            }
            let mut ok_r2 = 0;
            let mut ok_far = 0;
            let total = txs.len();
            let mut rng = SmallRng::seed_from_u64(t.seed);
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
        },
        cells: |(r1, r2), out, _| {
            vec![
                format!("{r1:.0}"),
                format!("{r2:.2}"),
                percent(median(out, |r| r.0)),
                percent(median(out, |r| r.1)),
            ]
        },
    }
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
fn t1_comparison() -> ClaimSpec<T1Arm, (u64, bool)> {
    use T1Arm::*;
    let world = World::Uniform { n: 400, side: 6.0 };
    ClaimSpec {
        title: "T1: max-aggregation comparison -- n=400, dense, SINR unless noted",
        columns: &["algorithm", "slots (median)", "correct"],
        arms: world.arms([
            (Structure(8), 1208),
            (Structure(1), 1201),
            (DecayTree, 1250),
            (NaiveTdma, 1260),
            (GraphFlood, 1270),
        ]),
        cluster_radius: Some(2.0),
        measure: |t| {
            let (params, points, seed) = (SinrParams::default(), t.deploy.points(), t.seed);
            let n = points.len();
            let inputs: Vec<i64> = (0..n).map(|i| (i as i64 * 7919) % 100_000).collect();
            let expect = *inputs.iter().max().unwrap();
            match *t.knob {
                Structure(f) => {
                    let m = measure_aggregation(t, f, Constants::practical());
                    (m.build_slots + m.agg_slots, m.correct)
                }
                DecayTree => {
                    let graph = mca_geom::CommGraph::build(points, 4.0);
                    let b = baselines::run_single_channel(
                        &params,
                        points,
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
                    let graph = mca_geom::CommGraph::build(points, 4.0);
                    let d_hat = graph.diameter_approx() + 2;
                    let (values, slots) =
                        baselines::run_naive_tdma(&params, points, &inputs, d_hat, seed);
                    (slots, values.iter().all(|&v| v == expect))
                }
                GraphFlood => {
                    let g = baselines::run_graph_flood(points, 4.0, &inputs, 8, 0.2, 400_000, seed);
                    (g.slots, g.values.iter().all(|&v| v == expect))
                }
            }
        },
        cells: |algorithm, out, _| {
            let algorithm = match algorithm {
                Structure(f) => format!("aggregation structure (F = {f}, incl. build)"),
                DecayTree => "single-channel decay tree ([24]-style)".into(),
                NaiveTdma => "naive deterministic TDMA".into(),
                GraphFlood => "graph-model multichannel flood ([4]-style, F = 8)".into(),
            };
            vec![
                algorithm,
                whole(out, |r| r.0 as f64),
                percent(out.fraction(|r| r.1)),
            ]
        },
    }
}

/// A1 — ablations: substrate, backoff, channel-allocation constant. Every
/// arm declares its substrate.
fn a1_ablations() -> ClaimSpec<(&'static str, Constants), AggMeasurement> {
    use SubstrateMode::{Distributed, Oracle};
    let world = World::Uniform { n: 400, side: 6.0 };
    let practical = Constants::practical();
    let mut no_backoff = practical;
    no_backoff.omega2 = 1e6;
    let mut coarse = practical;
    coarse.c1 = 8.0;
    ClaimSpec {
        title: "A1: ablations -- n=400 dense, F=8",
        columns: &[
            "variant",
            "build slots",
            "agg slots",
            "contention peak",
            "correct",
        ],
        arms: [
            ("baseline (oracle substrate)", 1327, Oracle, practical),
            ("distributed substrate", 1321, Distributed, practical),
            ("backoff disabled (omega2 huge)", 1330, Oracle, no_backoff),
            ("coarse channel allocation (c1 = 8)", 1334, Oracle, coarse),
        ]
        .map(|(name, master, substrate, consts)| Arm {
            substrate,
            ..arm((name, consts), master, world)
        })
        .into(),
        cluster_radius: Some(2.0),
        measure: |t| measure_aggregation(t, 8, t.knob.1),
        cells: |(name, _), out, _| {
            vec![
                name.to_string(),
                whole(out, |m| m.build_slots as f64),
                whole(out, |m| m.agg_slots as f64),
                format!("{:.2}", median(out, |m| m.contention_peak)),
                percent(out.fraction(|m| m.correct)),
            ]
        },
    }
}

/// An A2 fault: its name, jam power, jam duty, crashed dominators and hop
/// channels.
type Fault = (&'static str, f64, u16, usize, u16);

/// A2 — fault injection: jamming and crashes on the backbone flood.
fn a2_faults() -> ClaimSpec<Fault, (usize, usize, u64)> {
    let world = World::Uniform { n: 24, side: 25.0 };
    ClaimSpec {
        title: "A2: flood-combine under faults -- 24-dominator backbone",
        columns: &["scenario", "nodes with global max", "slots"],
        arms: world.arms([
            (("fault-free", 0.0, 1, 0, 0), 1400),
            (("25%-duty jammer (100x noise)", 100.0, 4, 0, 0), 1500),
            (("constant jammer (100x noise)", 100.0, 1, 0, 0), 1500),
            (("3 crashed dominators", 0.0, 1, 3, 0), 1403),
            (("constant jammer + 4-ch hopping", 100.0, 1, 0, 4), 1504),
        ]),
        cluster_radius: None,
        measure: |t| {
            use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
            use mca_radio::{FaultPlan, JamSpec};
            let (_, jam, duty, crashes, hop) = *t.knob;
            let (seed, k) = (t.seed, t.deploy.len());
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
            let params = SinrParams::default();
            let positions = t.deploy.points().to_vec();
            let mut engine = Engine::new(params, positions, protocols, seed).with_faults(faults);
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
        cells: |(name, ..), out, _| {
            vec![
                name.to_string(),
                format!("{:.0}/{}", median(out, |r| r.0 as f64), out.results[0].1),
                whole(out, |r| r.2 as f64),
            ]
        },
    }
}

/// E12 — applications of the structure: leader election and single-source
/// broadcast inherit Theorem 22's cost and channel speedup.
fn e12_applications() -> ClaimSpec<u16, (u64, f64, u64, f64)> {
    use mca_core::{broadcast, elect_leader};
    let world = World::Uniform { n: 300, side: 6.0 };
    ClaimSpec {
        title: "E12: leader election + broadcast on the structure -- n=300, dense",
        columns: &["F", "leader slots", "agreement", "bcast slots", "coverage"],
        arms: world.arms([(1, 1501), (4, 1504), (8, 1508)]),
        cluster_radius: Some(2.0),
        measure: |t| {
            let (env, seed) = (t.env(), t.seed);
            let algo = AlgoConfig::practical(*t.knob, &env.params, 300);
            let s = build_structure(&env, &t.structure_config(algo));
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
        cells: |f, out, _| {
            vec![
                format!("{f}"),
                whole(out, |r| r.0 as f64),
                percent(median(out, |r| r.1)),
                whole(out, |r| r.2 as f64),
                percent(median(out, |r| r.3)),
            ]
        },
    }
}

/// E13 — multiple-message broadcast: the gossip phase grows linearly in
/// `k` (each node must *receive* `k` distinct packets — incompressible).
fn e13_multimessage() -> ClaimSpec<usize, (u64, u64, f64)> {
    let world = World::Uniform { n: 150, side: 10.0 };
    ClaimSpec {
        title: "E13: k-message broadcast (hoist + backbone gossip) -- n=150, F=4",
        columns: &[
            "k",
            "hoist slots",
            "gossip slots",
            "gossip slots/k",
            "full coverage",
        ],
        arms: world.arms([(1, 1601), (2, 1602), (4, 1604), (8, 1608), (16, 1616)]),
        cluster_radius: None,
        measure: |t| {
            let (env, k) = (t.env(), *t.knob);
            let algo = AlgoConfig::practical(4, &env.params, 150);
            let s = build_structure(&env, &t.structure_config(algo));
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let messages: Vec<(NodeId, u64)> = (0..k)
                .map(|i| (NodeId((i * 150 / k) as u32), i as u64))
                .collect();
            let out = mca_core::broadcast_many(&env, &s, &algo, &messages, d_hat, t.seed ^ 0x60551);
            (
                out.hoist_slots,
                out.gossip_slots,
                out.full_coverage as f64 / 150.0,
            )
        },
        cells: |k, out, _| {
            let gossip = median(out, |r| r.1 as f64);
            vec![
                format!("{k}"),
                whole(out, |r| r.0 as f64),
                format!("{gossip:.0}"),
                format!("{:.0}", gossip / *k as f64),
                percent(median(out, |r| r.2)),
            ]
        },
    }
}

/// E14 — the compressibility limit (paper's contrast with its reference
/// \[37\]): on the same single-hop instance, aggregation speeds up
/// linearly with `F` while local information exchange is flat — a
/// listener decodes one packet per slot no matter how many channels exist.
fn e14_compressibility() -> ClaimSpec<u16, (u64, u64)> {
    use baselines::{run_info_exchange, ExchangeConfig};
    let radius = SinrParams::default().r_eps() / 4.0;
    let world = World::Disk { n: 100, radius };
    ClaimSpec {
        title: "E14: exchange vs aggregation on a 100-node clique (Delta = 99)",
        columns: &[
            "F",
            "exchange slots",
            "exchange speedup",
            "agg follower slots",
            "agg speedup",
        ],
        arms: world.arms([(1, 1701), (2, 1702), (4, 1704), (8, 1708), (16, 1716)]),
        cluster_radius: None,
        measure: |t| {
            let (channels, seed, n) = (*t.knob, t.seed, t.deploy.len());
            let params = SinrParams::default();
            // Exchange on the clique.
            let config = ExchangeConfig::new(channels, n);
            let ex = run_info_exchange(&params, t.deploy.points(), config, seed ^ 0xE8);
            let ex_slots = ex.median_completion().unwrap_or(config.max_slots);
            // Aggregation on the same instance.
            let env = t.env();
            let algo = AlgoConfig::practical(channels, &params, n);
            let s = build_structure(&env, &t.structure_config(algo));
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
        cells: |f, out, first| {
            let ex_med = median(out, |r| r.0 as f64);
            let agg_med = median(out, |r| r.1 as f64);
            vec![
                format!("{f}"),
                format!("{ex_med:.0}"),
                format!("{:.2}x", median(first, |r| r.0 as f64) / ex_med),
                format!("{agg_med:.0}"),
                format!("{:.2}x", median(first, |r| r.1 as f64) / agg_med),
            ]
        },
    }
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
fn e15_mis() -> ClaimSpec<usize, [usize; 6]> {
    use mca_core::{maximal_independent_set, ruling_set, MisConfig};
    ClaimSpec {
        title: "E15: (r,2r)-ruling set vs direct MIS (Sec. 4, r = R_T/4)",
        columns: &[
            "n",
            "2-phase members",
            "2-phase viol/holes",
            "slots",
            "direct-MIS viol/holes",
        ],
        arms: [(128usize, 1928), (512, 2312), (2048, 3848)]
            .map(|(n, master)| {
                let side = (n as f64 / 2.0).sqrt();
                arm(n, master, World::Uniform { n, side })
            })
            .into(),
        cluster_radius: None,
        measure: |t| {
            let (env, seed) = (t.env(), t.seed);
            let algo = AlgoConfig::practical(4, &env.params, *t.knob);
            let r = env.params.transmission_range() / 4.0;
            let two = ruling_set(&env, &algo, MisConfig::new(r), seed ^ 0x315);
            let direct = maximal_independent_set(&env, &algo, MisConfig::new(r), seed ^ 0x316);
            [
                two.members().len(),
                two.independence_violations(&env.positions),
                two.domination_holes(&env.positions),
                two.total_slots() as usize,
                direct.independence_violations(&env.positions),
                direct.domination_holes(&env.positions),
            ]
        },
        cells: |n, out, _| {
            let mean = |i: usize| out.summarize(|r| r[i] as f64).mean();
            vec![
                format!("{n}"),
                whole(out, |r| r[0] as f64),
                format!("{:.1} / {:.1}", mean(1), mean(2)),
                whole(out, |r| r[3] as f64),
                format!("{:.1} / {:.1}", mean(4), mean(5)),
            ]
        },
    }
}

/// E16 — dynamic environments: aggregation success vs node speed.
///
/// The flood-combine max-aggregation backbone runs end-to-end inside
/// `mca-scenario` worlds whose nodes roam by random waypoint at increasing
/// speeds, plus one Gilbert–Elliot fading world as a channel-dynamics
/// reference point. Every world runs the same seeds, so the rows are
/// paired trials.
fn e16_mobility() -> ClaimSpec<mca_scenario::Scenario, (f64, f64)> {
    use mca_scenario::{DeploymentSpec, FadingSpec, MobilitySpec, Scenario};
    const N: usize = 60;
    const CHANNELS: u16 = 4;
    let base = |name: &str| {
        Scenario::builder(name)
            .deployment(DeploymentSpec::Uniform { n: N, side: 30.0 })
            .channels(CHANNELS)
            .max_slots(400)
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
    ClaimSpec {
        title: "E16: flood aggregation in dynamic environments -- n=60, F=4",
        columns: &["scenario", "coverage (median)", "full coverage", "rx rate"],
        arms: scenarios
            .into_iter()
            .map(|scenario| arm(scenario, 1600, World::Own))
            .collect(),
        cluster_radius: None,
        measure: |t| {
            use mca_core::aggregate::intercluster::{FloodCfg, FloodCombine};
            let scenario = t.knob;
            let cfg = FloodCfg {
                q: 0.2,
                flood_rounds: scenario.max_slots - 100,
                tail_rounds: 100,
                tdma: Tdma::new(1, 1),
                hop_channels: CHANNELS,
            };
            let mut sim = mca_scenario::ScenarioSim::new(scenario, t.seed, |i, _| {
                FloodCombine::dominator(MaxAgg, cfg, 0, i as i64)
            });
            sim.run_until_done(scenario.max_slots);
            let expect = (N - 1) as i64;
            let holders = sim
                .protocols()
                .iter()
                .filter(|p| *p.value() == expect)
                .count();
            (holders as f64 / N as f64, sim.metrics().reception_rate())
        },
        cells: |scenario, out, _| {
            vec![
                scenario.name.clone(),
                percent(median(out, |r| r.0)),
                percent(out.fraction(|r| r.0 >= 1.0)),
                format!("{:.3}", median(out, |r| r.1)),
            ]
        },
    }
}

/// A3 — ablation of the multi-message gossip: the backbone transmission
/// probability `q` (the paper's "constant probability" sketch) trades
/// collision losses against idle slots; completion is measured because the
/// harness stops the run the moment every node holds every message.
fn a3_gossip() -> ClaimSpec<f64, (u64, u64, f64)> {
    let world = World::Uniform { n: 120, side: 9.0 };
    ClaimSpec {
        title: "A3: gossip probability ablation -- n=120, F=4, k=8",
        columns: &["q", "gossip slots", "hoist slots", "full coverage"],
        arms: world.arms([(0.05, 1905), (0.2, 1920), (0.35, 1935), (0.5, 1950)]),
        cluster_radius: Some(2.0),
        measure: |t| {
            let env = t.env();
            let mut consts = Constants::practical();
            consts.flood_prob = *t.knob;
            let know = mca_sinr::NodeKnowledge::exact(&env.params, 120);
            let algo = AlgoConfig::new(4, know, consts);
            let s = build_structure(&env, &t.structure_config(algo));
            let d_hat = env.comm_graph().diameter_approx() + 2;
            let messages: Vec<(NodeId, u64)> = (0..8).map(|i| (NodeId(i * 14), i as u64)).collect();
            let out = mca_core::broadcast_many(&env, &s, &algo, &messages, d_hat, t.seed ^ 0xA3);
            (
                out.gossip_slots,
                out.hoist_slots,
                out.full_coverage as f64 / 120.0,
            )
        },
        cells: |q, out, _| {
            vec![
                format!("{q:.2}"),
                whole(out, |r| r.0 as f64),
                whole(out, |r| r.1 as f64),
                percent(median(out, |r| r.2)),
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_analysis::trial_seed;

    #[test]
    fn a_failed_gate_is_the_sections_error() {
        let gated = ClaimTable {
            id: "x1",
            floor: 1,
            render: |_| Err("`world`: repair 9 vs rebuild 8 slots".into()),
        };
        assert_eq!(
            gated.section(CLAIM_TRIALS),
            Err("`world`: repair 9 vs rebuild 8 slots".into())
        );
        let passing = ClaimTable {
            id: "x2",
            floor: 1,
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

    /// Two arms whose trials report the seed and world size they ran on.
    fn seeds_spec() -> ClaimSpec<u64, (u64, usize)> {
        ClaimSpec {
            title: "X3: seeds",
            columns: &["master", "seeds", "nodes"],
            arms: vec![
                arm(7, 7, World::Own),
                arm(1234, 1234, World::Uniform { n: 5, side: 1.0 }),
            ],
            cluster_radius: None,
            measure: |t| (t.seed, t.deploy.len()),
            cells: |master, out, _| {
                let seeds: Vec<u64> = out.results.iter().map(|r| r.0).collect();
                assert_eq!(seeds, out.seeds);
                vec![
                    master.to_string(),
                    format!("{seeds:?}"),
                    format!("{:?}", out.results.iter().map(|r| r.1).collect::<Vec<_>>()),
                ]
            },
        }
    }

    #[test]
    fn an_entry_runs_its_floor_of_seeds_from_each_arms_master() {
        let entry = ClaimTable {
            id: "x3",
            floor: 3,
            render: |trials| Ok(vec![seeds_spec().render(trials)]),
        };
        let mut want = Table::new("X3: seeds", ["master", "seeds", "nodes"]);
        for (master, n) in [(7u64, 0), (1234, 5)] {
            let seeds: Vec<u64> = (0..3).map(|i| trial_seed(master, i)).collect();
            want.row([
                master.to_string(),
                format!("{seeds:?}"),
                format!("{:?}", [n; 3]),
            ]);
        }
        assert_eq!(entry.section(2), Ok(format!("{want}\n")));
        // Above the floor, the entry runs what it is asked for.
        assert_eq!(seeds_spec().run(4)[1].seeds.len(), 4);
    }

    #[test]
    fn the_structure_config_carries_each_arms_substrate() {
        let a1 = a1_ablations();
        let algo = AlgoConfig::practical(8, &SinrParams::default(), 400);
        for (row, arm) in a1.arms.iter().enumerate() {
            let cfg = a1.trial(row, 1).structure_config(algo);
            let want = match arm.knob.0 {
                "distributed substrate" => SubstrateMode::Distributed,
                _ => SubstrateMode::Oracle,
            };
            assert_eq!(
                (cfg.substrate, cfg.cluster_radius),
                (want, 2.0),
                "{}",
                arm.knob.0
            );
        }
        assert!(a1
            .arms
            .iter()
            .any(|a| a.substrate == SubstrateMode::Distributed));
    }
}

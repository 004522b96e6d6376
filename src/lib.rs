//! # `multichannel-adhoc`
//!
//! A full reproduction of **"Leveraging Multiple Channels in Ad Hoc
//! Networks"** (Halldórsson, Wang, Yu — PODC 2015 / arXiv:1604.07182):
//! distributed data aggregation and node coloring with *linear channel
//! speedup* in the SINR interference model, implemented as executable
//! distributed protocols over a faithful multi-channel physical-layer
//! simulator.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`geom`] — planar geometry, deployments, communication graphs;
//! * [`sinr`] — the SINR physical layer (Eq. 1, clear receptions, radii);
//! * [`radio`] — the synchronous multi-channel simulation engine;
//! * [`core`] — the paper's algorithms: ruling sets, the aggregation
//!   structure, data aggregation (Theorem 22) and coloring (Theorem 24);
//! * [`baselines`] — single-channel / naive / graph-model comparators and
//!   the exponential-chain lower-bound instance;
//! * [`analysis`] — statistics and table rendering for experiments;
//! * [`scenario`] — dynamic environments (mobility, fading, churn) and the
//!   keyed parallel trial runner;
//! * [`obs`] — the determinism-preserving observability layer (phase
//!   spans, typed events, JSONL export); records only where a recorder
//!   is attached.
//!
//! # Quickstart
//!
//! ```
//! use multichannel_adhoc::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // A 150-node sensor field, 8 channels.
//! let params = SinrParams::default();
//! let mut rng = SmallRng::seed_from_u64(7);
//! let deploy = Deployment::uniform(150, 12.0, &mut rng);
//! let env = NetworkEnv::new(params, &deploy);
//!
//! // Build the aggregation structure (paper §5)…
//! let algo = AlgoConfig::practical(8, &params, 150);
//! let mut cfg = StructureConfig::new(algo, 7);
//! cfg.substrate = SubstrateMode::Oracle; // ablation mode; default is Distributed
//! let structure = build_structure(&env, &cfg);
//!
//! // …then aggregate the maximum of per-node readings (paper §6).
//! let readings: Vec<i64> = (0..150).map(|i| (i * 37 % 1000) as i64).collect();
//! let d_hat = env.comm_graph().diameter_approx() + 2;
//! let out = aggregate(
//!     &env, &structure, &algo, MaxAgg, &readings,
//!     InterclusterMode::Flood, d_hat, 42,
//! );
//! let expect = readings.iter().max().copied();
//! assert_eq!(out.values[0], expect);
//! ```
//!
//! # Dynamic scenarios
//!
//! The static engine answers "what does the protocol do on *this*
//! placement?" — the [`scenario`] subsystem asks what it does in a *living*
//! network. A [`Scenario`](scenario::Scenario) declares the whole world as
//! data: a seed-parameterized deployment, a mobility process (random
//! waypoint or group convoy, clamped to the deployment area), Gilbert–Elliot
//! per-channel fading that composes with [`FaultPlan`](radio::FaultPlan)
//! jamming, and churn (late joins, crash-stops). Drive one trial with
//! [`ScenarioSim`](scenario::ScenarioSim), or a whole (scenario × seed)
//! matrix across all cores with a [`TrialSet`](scenario::TrialSet), whose
//! results stream into a sink in seed order — every trial is a pure
//! function of `(scenario, seed)`, so tables replay bit-for-bit regardless
//! of thread count.
//!
//! ```
//! use multichannel_adhoc::prelude::*;
//!
//! let scenario = Scenario::builder("roaming-sensors")
//!     .deployment(DeploymentSpec::Uniform { n: 40, side: 10.0 })
//!     .mobility(MobilitySpec::RandomWaypoint { speed_min: 0.02, speed_max: 0.1, pause: 8 })
//!     .fading(FadingSpec::interference(0.01, 0.1, 100.0))
//!     .channels(4)
//!     .build();
//! let set = TrialSet::with_derived_seeds(vec![scenario], 0xC0DE, 4).unwrap();
//! let mut sink = CollectSink::new();
//! set.run_streaming(true, |s, seed| s.deployment_for(seed).len(), &mut sink);
//! let sizes: Vec<usize> = sink.trials.iter().map(|t| t.result).collect();
//! assert_eq!(sizes, vec![40, 40, 40, 40]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mca_analysis as analysis;
pub use mca_baselines as baselines;
pub use mca_core as core;
pub use mca_geom as geom;
pub use mca_obs as obs;
pub use mca_radio as radio;
pub use mca_scenario as scenario;
pub use mca_sinr as sinr;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use mca_analysis::{Summary, Table};
    pub use mca_core::{
        aggregate, audit_structure, audit_structure_masked, broadcast, broadcast_many,
        build_structure, build_structure_masked, color_nodes, elect_leader,
        maximal_independent_set, AggregateOutcome, AggregationStructure, AlgoConfig,
        AuditTolerances, AvgAgg, AvgValue, BroadcastOutcome, Candidate, ColoringOutcome, Constants,
        FmSketch, FmValue, GossipOutcome, InterclusterMode, LeaderOutcome, MaintainConfig, MaxAgg,
        MinAgg, MisConfig, MisOutcome, NetworkEnv, OrAgg, RepairKind, RepairReport, Sourced,
        StructureConfig, StructureMaintainer, SubstrateMode, SumAgg,
    };
    pub use mca_geom::{BoundingBox, CommGraph, Deployment, Point};
    pub use mca_radio::{
        Channel, ChannelCondition, Engine, FaultPlan, NodeEvent, NodeId, Protocol,
    };
    pub use mca_scenario::{
        ChurnSpec, CollectSink, DeploymentSpec, EnvironmentModel, FadingSpec, GilbertElliot,
        GroupConvoy, MaintenanceSpec, MobilitySpec, RandomWaypoint, Scenario, ScenarioSim,
        StaticEnvironment, TrialSet,
    };
    pub use mca_sinr::{ChannelResolver, ResolveMode, SinrParams};
}

//! # `mca-scenario` — dynamic-environment scenarios for the multichannel
//! SINR simulator
//!
//! The seed reproduction runs every experiment over a *static* world: one
//! placement, fixed channels, no churn. This crate turns the simulator into
//! a general ad-hoc-network experimentation platform:
//!
//! * [`EnvironmentModel`] — a hook evaluated once per slot that may move
//!   nodes, rewrite per-channel [`ChannelCondition`](mca_radio::ChannelCondition)s,
//!   or inject churn into the fault plan. Implementations provided:
//!   [`StaticEnvironment`], [`RandomWaypoint`] and [`GroupConvoy`] mobility,
//!   and [`GilbertElliot`] per-channel fading;
//! * [`Scenario`] — a declarative description (deployment + mobility +
//!   fading + churn + faults + physical parameters) with a builder API, so
//!   every experiment names its world as data;
//! * [`ScenarioSim`] — an [`Engine`](mca_radio::Engine) paired with the
//!   scenario's environment, stepped in lockstep;
//! * [`TrialSet`] / [`TrialSink`] — the keyed-trial API: every trial is
//!   named by a [`TrialKey`] `(scenario_id, seed)`, keys enumerate lazily,
//!   and results stream out in enumeration order (the basis of sweep
//!   checkpoint/resume); [`CollectSink`] keeps the stream as an ordered
//!   `Vec`, and [`run_seeded_rows`] runs the same batch loop over rows
//!   that each derive their own seeds (the paper's claim tables);
//! * [`matrix`] — `[matrix]` sweep expansion: one TOML file describing a
//!   base scenario plus axes (n × channels × speed × fading × seeds)
//!   expands into a named [`TrialSet`];
//! * [`toml`] — lossless TOML (de)serialization
//!   (`Scenario::{to_toml, from_toml_str, load, save}`), so worlds live in
//!   version-controlled data files; the schema reference is
//!   `docs/SCENARIO_FORMAT.md`;
//! * [`catalog`] — the built-in worlds committed under `scenarios/` and
//!   regenerated by `experiments artifacts --write`.
//!
//! # Determinism
//!
//! A trial is a pure function of `(scenario, seed)`. Deployment, churn, and
//! environment randomness run on RNG streams derived from the trial seed
//! with distinct salts, so they never perturb the per-node protocol
//! streams; a static scenario is bit-identical to driving a plain `Engine`
//! over the same deployment with the same master seed, and the parallel
//! runner returns exactly the sequential results.
//!
//! # Examples
//!
//! ```
//! use mca_scenario::{
//!     CollectSink, DeploymentSpec, FadingSpec, MobilitySpec, Scenario, ScenarioSim, TrialSet,
//! };
//! use mca_radio::{Action, Channel, Observation, Protocol};
//! use rand::rngs::SmallRng;
//!
//! // A beaconing protocol: node 0 transmits, everyone else listens.
//! struct Beacon { id: u32, heard: u32 }
//! impl Protocol for Beacon {
//!     type Msg = u32;
//!     fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
//!         if self.id == 0 {
//!             Action::Transmit { channel: Channel::FIRST, msg: self.id }
//!         } else {
//!             Action::Listen { channel: Channel::FIRST }
//!         }
//!     }
//!     fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
//!         if obs.reception().is_some() { self.heard += 1; }
//!     }
//! }
//!
//! // A mobile, fading world, described as data.
//! let scenario = Scenario::builder("mobile-fading")
//!     .deployment(DeploymentSpec::Uniform { n: 30, side: 8.0 })
//!     .mobility(MobilitySpec::RandomWaypoint { speed_min: 0.05, speed_max: 0.2, pause: 4 })
//!     .fading(FadingSpec::interference(0.02, 0.2, 100.0))
//!     .channels(4)
//!     .build();
//!
//! // One trial, driven directly…
//! let mut sim = ScenarioSim::new(&scenario, 7, |i, _pos| Beacon { id: i as u32, heard: 0 });
//! sim.run(50);
//! assert_eq!(sim.slot(), 50);
//!
//! // …or a parallel multi-trial sweep, collected in seed order.
//! let set = TrialSet::with_derived_seeds(vec![scenario], 0xC0DE, 4).unwrap();
//! let mut out = CollectSink::new();
//! set.run_streaming(true, |s, seed| {
//!     let mut sim = ScenarioSim::new(s, seed, |i, _| Beacon { id: i as u32, heard: 0 });
//!     sim.run(50);
//!     sim.metrics().receptions
//! }, &mut out);
//! assert_eq!(out.trials.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod catalog;
mod environment;
mod fading;
pub mod matrix;
mod mobility;
mod runner;
mod sim;
mod spec;
pub mod toml;

pub use adversary::{CorrelatedFading, TrackingJammer};
pub use catalog::{builtin_scenarios, CatalogEntry};
pub use environment::{CompositeEnvironment, EnvironmentModel, StaticEnvironment, World};
pub use fading::GilbertElliot;
pub use matrix::{MatrixSpec, SweepFile};
pub use mobility::{GroupConvoy, RandomWaypoint};
pub use runner::{run_seeded_rows, CollectSink, TrialSet, TrialSetError, TrialSink};
pub use sim::ScenarioSim;
pub use spec::{
    AdversarySpec, ChurnSpec, DeploymentSpec, DutyCycleSpec, FadingSpec, MaintenanceSpec,
    MobilitySpec, ObsSpec, Scenario, ScenarioBuilder,
};
pub use toml::{FromToml, ScenarioFileError};

pub use mca_analysis::{KeyedTrial, TrialKey};

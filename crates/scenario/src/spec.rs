//! Declarative scenario descriptions.
//!
//! A [`Scenario`] names a whole experimental world as data: the deployment,
//! the mobility process, per-channel fading, churn, static faults, physical
//! parameters, and a slot budget. Instantiating any part of it for a trial
//! takes only the trial seed, so a run is a pure function of
//! `(scenario, seed)` and every table built from scenarios replays
//! bit-for-bit.

use crate::adversary::{CorrelatedFading, TrackingJammer};
use crate::environment::{CompositeEnvironment, EnvironmentModel};
use crate::fading::GilbertElliot;
use crate::mobility::{GroupConvoy, RandomWaypoint};
use mca_geom::{BoundingBox, Deployment, Point};
use mca_radio::rng::derive_rng;
use mca_radio::{ChannelCondition, FaultPlan, SleepSchedule};
use mca_sinr::{ResolveMode, SinrParams};
use rand::rngs::SmallRng;
use rand::Rng;

/// Salt for the deployment RNG stream (distinct from per-node streams,
/// which use salts `0..n`).
const DEPLOY_SALT: u64 = u64::MAX - 0x0DE9;
/// Salt for the environment (mobility/fading) RNG stream.
const ENV_SALT: u64 = u64::MAX - 0x0E2F;
/// Salt for the churn RNG stream.
const CHURN_SALT: u64 = u64::MAX - 0x0C4A;

/// A seed-parameterized node placement.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentSpec {
    /// `n` nodes i.i.d. uniform over `[0, side]²`.
    Uniform {
        /// Node count.
        n: usize,
        /// Square side length.
        side: f64,
    },
    /// `n` nodes i.i.d. uniform over the disk of `radius` at the origin.
    Disk {
        /// Node count.
        n: usize,
        /// Disk radius.
        radius: f64,
    },
    /// An `nx × ny` grid with spacing `step`, jittered by up to `jitter`.
    Grid {
        /// Columns.
        nx: usize,
        /// Rows.
        ny: usize,
        /// Grid spacing.
        step: f64,
        /// Per-node uniform jitter bound.
        jitter: f64,
    },
    /// `n` nodes on a line with constant `spacing`.
    Line {
        /// Node count.
        n: usize,
        /// Inter-node spacing.
        spacing: f64,
    },
    /// `n` nodes uniform in a `length × width` corridor.
    Corridor {
        /// Node count.
        n: usize,
        /// Corridor length.
        length: f64,
        /// Corridor width.
        width: f64,
    },
    /// An explicit list of positions.
    Explicit(Vec<Point>),
}

impl DeploymentSpec {
    /// Number of nodes this spec deploys.
    pub fn len(&self) -> usize {
        match self {
            DeploymentSpec::Uniform { n, .. }
            | DeploymentSpec::Disk { n, .. }
            | DeploymentSpec::Line { n, .. }
            | DeploymentSpec::Corridor { n, .. } => *n,
            DeploymentSpec::Grid { nx, ny, .. } => nx * ny,
            DeploymentSpec::Explicit(points) => points.len(),
        }
    }

    /// Whether the spec deploys no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the placement using `rng`.
    pub fn instantiate(&self, rng: &mut SmallRng) -> Deployment {
        match self {
            DeploymentSpec::Uniform { n, side } => Deployment::uniform(*n, *side, rng),
            DeploymentSpec::Disk { n, radius } => Deployment::disk(*n, *radius, rng),
            DeploymentSpec::Grid {
                nx,
                ny,
                step,
                jitter,
            } => Deployment::grid(*nx, *ny, *step, *jitter, rng),
            DeploymentSpec::Line { n, spacing } => Deployment::line(*n, *spacing),
            DeploymentSpec::Corridor { n, length, width } => {
                Deployment::corridor(*n, *length, *width, rng)
            }
            DeploymentSpec::Explicit(points) => Deployment::from_points("explicit", points.clone()),
        }
    }

    /// The nominal deployment area (used as the mobility bound when the
    /// scenario does not override it).
    pub fn nominal_area(&self) -> Option<BoundingBox> {
        match self {
            DeploymentSpec::Uniform { side, .. } => Some(BoundingBox::square(*side)),
            DeploymentSpec::Disk { radius, .. } => Some(BoundingBox::new(
                Point::new(-radius, -radius),
                Point::new(*radius, *radius),
            )),
            DeploymentSpec::Grid { nx, ny, step, .. } => Some(BoundingBox::new(
                Point::ORIGIN,
                Point::new(
                    (nx.saturating_sub(1)) as f64 * step,
                    (ny.saturating_sub(1)) as f64 * step,
                ),
            )),
            DeploymentSpec::Line { n, spacing } => Some(BoundingBox::new(
                Point::ORIGIN,
                Point::new((n.saturating_sub(1)) as f64 * spacing, 0.0),
            )),
            DeploymentSpec::Corridor { length, width, .. } => {
                Some(BoundingBox::new(Point::ORIGIN, Point::new(*length, *width)))
            }
            DeploymentSpec::Explicit(points) => BoundingBox::from_points(points.iter().copied()),
        }
    }
}

/// A seed-parameterized mobility process.
#[derive(Debug, Clone, PartialEq)]
pub enum MobilitySpec {
    /// Nodes never move.
    Static,
    /// Independent random waypoint per node.
    RandomWaypoint {
        /// Minimum per-leg speed (distance units per slot).
        speed_min: f64,
        /// Maximum per-leg speed.
        speed_max: f64,
        /// Dwell slots at each waypoint.
        pause: u64,
    },
    /// Reference-point group mobility: centers roam, members hold formation.
    Convoy {
        /// Number of groups.
        groups: usize,
        /// Center speed (units per slot).
        speed: f64,
        /// Maximum member offset from its center.
        spread: f64,
        /// Dwell slots at each center waypoint.
        pause: u64,
    },
}

impl MobilitySpec {
    /// Builds the runtime model for `n` nodes confined to `area`.
    pub fn instantiate(
        &self,
        area: BoundingBox,
        n: usize,
        rng: &mut SmallRng,
    ) -> Option<Box<dyn EnvironmentModel>> {
        match *self {
            MobilitySpec::Static => None,
            MobilitySpec::RandomWaypoint {
                speed_min,
                speed_max,
                pause,
            } => Some(Box::new(RandomWaypoint::new(
                area, n, speed_min, speed_max, pause, rng,
            ))),
            MobilitySpec::Convoy {
                groups,
                speed,
                spread,
                pause,
            } => Some(Box::new(GroupConvoy::new(
                area, n, groups, speed, spread, pause, rng,
            ))),
        }
    }
}

/// A seed-parameterized Gilbert–Elliot fading process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingSpec {
    /// Per-slot good→bad transition probability.
    pub p_degrade: f64,
    /// Per-slot bad→good transition probability.
    pub p_recover: f64,
    /// The condition applied while a channel is bad.
    pub bad: ChannelCondition,
}

impl FadingSpec {
    /// A bad state adding `power` interference at every listener.
    pub fn interference(p_degrade: f64, p_recover: f64, power: f64) -> Self {
        FadingSpec {
            p_degrade,
            p_recover,
            bad: ChannelCondition::interfered(power),
        }
    }

    /// A bad state dropping every reception (deep fade) while sensing
    /// `power` of fade energy.
    pub fn dropping(p_degrade: f64, p_recover: f64, power: f64) -> Self {
        FadingSpec {
            p_degrade,
            p_recover,
            bad: ChannelCondition::dropped(power),
        }
    }

    /// Builds the runtime model over `channels` channels.
    pub fn instantiate(&self, channels: u16) -> GilbertElliot {
        GilbertElliot::new(channels, self.p_degrade, self.p_recover, self.bad)
    }
}

/// A declarative adversary beyond the benign environment models,
/// serialized as the scenario's `[adversary]` table. See
/// `docs/ADVERSARIES.md` for the threat model each one encodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// A mobile spatial jammer chasing the densest live cluster
    /// ([`TrackingJammer`]): re-targets every `epoch` slots, glides at
    /// `speed` per slot, and destroys receptions within `radius` of
    /// itself on `channel` (`None` = all channels). Deterministic — it
    /// draws no randomness.
    TrackingJammer {
        /// Slots between re-targetings.
        epoch: u64,
        /// Blast (and density-scan) radius.
        radius: f64,
        /// Glide speed, distance units per slot.
        speed: f64,
        /// Jammed channel; `None` jams every channel.
        channel: Option<u16>,
    },
    /// Cross-channel correlated Gilbert–Elliot fading
    /// ([`CorrelatedFading`]): a channel flipping bad infects each
    /// spectral neighbor with probability `correlation`.
    CorrelatedFading {
        /// Per-slot good→bad transition probability.
        p_degrade: f64,
        /// Per-slot bad→good transition probability.
        p_recover: f64,
        /// Probability a fresh bad state bleeds into each adjacent
        /// channel.
        correlation: f64,
        /// The condition applied while a channel is bad.
        bad: ChannelCondition,
    },
}

impl AdversarySpec {
    /// Builds the runtime environment model over `channels` channels.
    pub fn instantiate(&self, channels: u16) -> Box<dyn EnvironmentModel> {
        match *self {
            AdversarySpec::TrackingJammer {
                epoch,
                radius,
                speed,
                channel,
            } => Box::new(TrackingJammer::new(epoch, radius, speed, channel)),
            AdversarySpec::CorrelatedFading {
                p_degrade,
                p_recover,
                correlation,
                bad,
            } => Box::new(CorrelatedFading::new(
                channels,
                p_degrade,
                p_recover,
                correlation,
                bad,
            )),
        }
    }
}

/// Duty-cycled sleep schedules, serialized as the scenario's
/// `[duty_cycle]` table: affected nodes power down periodically (awake
/// for `on` out of every `period` slots), with per-node phases staggered
/// by `stride` so the network never sleeps all at once. Distinct from
/// crash-stop churn: sleepers keep their protocol state and never appear
/// in the lifecycle event stream — the structural audit cannot see them,
/// only the degradation detector can.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleSpec {
    /// Cycle length in slots.
    pub period: u64,
    /// Awake slots per cycle (`on ≥ period` means always awake).
    pub on: u64,
    /// Per-node phase stagger: node `i` sleeps with phase
    /// `(i · stride) mod period`.
    pub stride: u64,
    /// How many nodes (ids `0..nodes`) duty-cycle; `None` = all of them.
    pub nodes: Option<usize>,
}

impl DutyCycleSpec {
    /// Compiles the schedule into per-node sleeps on `faults` for a
    /// network of `n` nodes.
    pub fn install(&self, n: usize, faults: &mut FaultPlan) {
        if self.period == 0 || self.on >= self.period {
            return;
        }
        let cap = self.nodes.unwrap_or(n).min(n);
        for i in 0..cap as u32 {
            faults.sleep(
                i,
                SleepSchedule {
                    period: self.period,
                    on: self.on,
                    phase: (u64::from(i) * self.stride) % self.period,
                },
            );
        }
    }
}

/// Seed-parameterized node churn (late joins and crash-stops), beyond any
/// explicit [`FaultPlan`] the scenario carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ChurnSpec {
    /// Every node is present for the whole run.
    #[default]
    None,
    /// Independent random churn: each node late-joins with probability
    /// `join_fraction` (join slot uniform in `join_window`) and
    /// crash-stops with probability `crash_fraction` (crash slot uniform
    /// in `crash_window`).
    Random {
        /// Fraction of nodes that join late.
        join_fraction: f64,
        /// `[from, to)` window late joiners appear in.
        join_window: (u64, u64),
        /// Fraction of nodes that crash.
        crash_fraction: f64,
        /// `[from, to)` window crashes happen in.
        crash_window: (u64, u64),
    },
    /// Explicit per-node churn events.
    Explicit {
        /// `(node, slot)` late joins.
        joins: Vec<(u32, u64)>,
        /// `(node, slot)` crash-stops.
        crashes: Vec<(u32, u64)>,
    },
}

impl ChurnSpec {
    /// Compiles the churn into `faults` for a network of `n` nodes.
    pub fn install(&self, n: usize, faults: &mut FaultPlan, rng: &mut SmallRng) {
        match self {
            ChurnSpec::None => {}
            ChurnSpec::Random {
                join_fraction,
                join_window,
                crash_fraction,
                crash_window,
            } => {
                for i in 0..n as u32 {
                    if *join_fraction > 0.0 && rng.gen_bool(*join_fraction) {
                        let slot = if join_window.1 > join_window.0 {
                            rng.gen_range(join_window.0..join_window.1)
                        } else {
                            join_window.0
                        };
                        faults.join_at(i, slot);
                    }
                    if *crash_fraction > 0.0 && rng.gen_bool(*crash_fraction) {
                        let slot = if crash_window.1 > crash_window.0 {
                            rng.gen_range(crash_window.0..crash_window.1)
                        } else {
                            crash_window.0
                        };
                        faults.crash_at(i, slot);
                    }
                }
            }
            ChurnSpec::Explicit { joins, crashes } => {
                for &(node, slot) in joins {
                    faults.join_at(node, slot);
                }
                for &(node, slot) in crashes {
                    faults.crash_at(node, slot);
                }
            }
        }
    }
}

/// Structure-maintenance policy for drivers that keep a §5 aggregation
/// structure alive while the scenario churns (see `mca-core`'s `maintain`
/// module and claim table M1 of `EXPERIMENTS.md`). Serialized as the
/// scenario's `[maintenance]` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceSpec {
    /// Maintenance cadence: a repair epoch every `every` slots.
    pub every: u64,
    /// Handover hysteresis `h ≥ 1`: members are re-homed once beyond
    /// `h · r_c` of their dominator.
    pub handover_hysteresis: f64,
    /// Fraction of live nodes that may need re-homing before the maintainer
    /// rebuilds from scratch instead of repairing.
    pub rebuild_threshold: f64,
}

impl MaintenanceSpec {
    /// Default handover hysteresis. The single source of truth for the
    /// policy defaults: the TOML decoder and the repair bench's fallback use
    /// these, and `mca-bench` asserts `mca_core::MaintainConfig::default`
    /// agrees (the crates cannot reference each other directly).
    pub const DEFAULT_HYSTERESIS: f64 = 1.25;
    /// Default rebuild threshold (see [`MaintenanceSpec::DEFAULT_HYSTERESIS`]).
    pub const DEFAULT_REBUILD_THRESHOLD: f64 = 0.5;

    /// A maintenance epoch every `every` slots with the default policy.
    pub const fn every(every: u64) -> Self {
        MaintenanceSpec {
            every,
            handover_hysteresis: Self::DEFAULT_HYSTERESIS,
            rebuild_threshold: Self::DEFAULT_REBUILD_THRESHOLD,
        }
    }
}

/// Observability request for drivers that can attach an `mca-obs`
/// recorder to the engine. Serialized as the scenario's `[obs]` table.
///
/// `ScenarioSim::new` honors the request in every build. Recording is
/// observation-only: trial results are bit-identical with and without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsSpec {
    /// Whether drivers should attach a recorder.
    pub enabled: bool,
    /// Whether the recorder keeps the per-(slot × channel) outcome
    /// stream (the bulkiest record class; disable for long runs where
    /// only spans and counters matter).
    pub channel_stream: bool,
}

impl Default for ObsSpec {
    fn default() -> Self {
        ObsSpec {
            enabled: true,
            channel_stream: true,
        }
    }
}

/// A fully declarative experimental world.
///
/// Scenarios serialize to and from TOML (see [`crate::toml`] and
/// `docs/SCENARIO_FORMAT.md`), so worlds can live in version-controlled
/// data files and run via `experiments --scenario path.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label (used in tables).
    pub name: String,
    /// Physical-layer parameters.
    pub params: SinrParams,
    /// Node placement.
    pub deployment: DeploymentSpec,
    /// Mobility area override (defaults to the deployment's nominal area).
    pub area: Option<BoundingBox>,
    /// Mobility process.
    pub mobility: MobilitySpec,
    /// Per-channel fading, if any.
    pub fading: Option<FadingSpec>,
    /// An active adversary (tracking jammer or correlated fading), if any.
    /// Serialized as the `[adversary]` table.
    pub adversary: Option<AdversarySpec>,
    /// Duty-cycled sleep schedules, if any. Serialized as the
    /// `[duty_cycle]` table.
    pub duty_cycle: Option<DutyCycleSpec>,
    /// Node churn.
    pub churn: ChurnSpec,
    /// Static fault plan (jamming, scripted crashes) churn composes with.
    pub faults: FaultPlan,
    /// Number of channels the fading process covers.
    pub channels: u16,
    /// Default slot budget for drivers that need one.
    pub max_slots: u64,
    // Ignored; kept only because the frozen `benchmark/` crate assigns it.
    // Removed when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub par_channels: bool,
    // Ignored (the engine derives its shard grid); kept only because the
    // frozen `benchmark/` crate reads and assigns it. Removed when the
    // benchmark is next re-baselined.
    #[doc(hidden)]
    pub shards: u16,
    // Ignored; kept only because the frozen `benchmark/` crate assigns it.
    // Removed when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub par_shards: bool,
    /// Structure-maintenance policy, if structure-driving harnesses should
    /// repair on a cadence ([`ScenarioSim::run_epochs`](crate::ScenarioSim::run_epochs)).
    pub maintenance: Option<MaintenanceSpec>,
    /// Observability request ([`ScenarioSim::new`](crate::ScenarioSim::new)
    /// attaches a recorder when present and enabled).
    /// Serialized as the `[obs]` table.
    pub obs: Option<ObsSpec>,
}

impl Scenario {
    /// Starts a builder for a scenario named `name`.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                params: SinrParams::default(),
                deployment: DeploymentSpec::Uniform { n: 100, side: 10.0 },
                area: None,
                mobility: MobilitySpec::Static,
                fading: None,
                adversary: None,
                duty_cycle: None,
                churn: ChurnSpec::None,
                faults: FaultPlan::none(),
                channels: 8,
                max_slots: 10_000,
                par_channels: false,
                shards: 0,
                par_shards: false,
                maintenance: None,
                obs: None,
            },
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.deployment.len()
    }

    /// Whether the scenario deploys no nodes.
    pub fn is_empty(&self) -> bool {
        self.deployment.is_empty()
    }

    /// The mobility bounding area.
    pub fn effective_area(&self) -> BoundingBox {
        self.area
            .or_else(|| self.deployment.nominal_area())
            .unwrap_or_else(|| BoundingBox::square(1.0))
    }

    /// The trial-`seed` placement — exactly what
    /// [`ScenarioSim::new`](crate::ScenarioSim::new) starts from, so
    /// harnesses can build analysis artifacts (communication graphs,
    /// aggregation structures) of the same world.
    pub fn deployment_for(&self, seed: u64) -> Deployment {
        let mut rng = derive_rng(seed, DEPLOY_SALT);
        self.deployment.instantiate(&mut rng)
    }

    /// The trial-`seed` fault plan: the scenario's static faults plus
    /// compiled churn.
    pub fn faults_for(&self, seed: u64) -> FaultPlan {
        let mut faults = self.faults.clone();
        let mut rng = derive_rng(seed, CHURN_SALT);
        self.churn.install(self.len(), &mut faults, &mut rng);
        if let Some(dc) = &self.duty_cycle {
            dc.install(self.len(), &mut faults);
        }
        faults
    }

    /// The trial-`seed` environment model (mobility + fading composite)
    /// and the RNG stream that must drive it.
    pub fn environment_for(&self, seed: u64) -> (CompositeEnvironment, SmallRng) {
        let mut env_rng = derive_rng(seed, ENV_SALT);
        let mut env = CompositeEnvironment::new();
        if let Some(model) =
            self.mobility
                .instantiate(self.effective_area(), self.len(), &mut env_rng)
        {
            env.push(model);
        }
        if let Some(fading) = &self.fading {
            env.push(Box::new(fading.instantiate(self.channels)));
        }
        if let Some(adversary) = &self.adversary {
            env.push(adversary.instantiate(self.channels));
        }
        (env, env_rng)
    }
}

/// Builder for [`Scenario`] (see [`Scenario::builder`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the physical-layer parameters.
    pub fn sinr(mut self, params: SinrParams) -> Self {
        self.scenario.params = params;
        self
    }

    /// Sets the node placement.
    pub fn deployment(mut self, spec: DeploymentSpec) -> Self {
        self.scenario.deployment = spec;
        self
    }

    /// Overrides the mobility area.
    pub fn area(mut self, area: BoundingBox) -> Self {
        self.scenario.area = Some(area);
        self
    }

    /// Sets the mobility process.
    pub fn mobility(mut self, spec: MobilitySpec) -> Self {
        self.scenario.mobility = spec;
        self
    }

    /// Enables per-channel fading.
    pub fn fading(mut self, spec: FadingSpec) -> Self {
        self.scenario.fading = Some(spec);
        self
    }

    /// Installs an active adversary (see [`AdversarySpec`]).
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.scenario.adversary = Some(spec);
        self
    }

    /// Installs duty-cycled sleep schedules (see [`DutyCycleSpec`]).
    pub fn duty_cycle(mut self, spec: DutyCycleSpec) -> Self {
        self.scenario.duty_cycle = Some(spec);
        self
    }

    /// Sets node churn.
    pub fn churn(mut self, spec: ChurnSpec) -> Self {
        self.scenario.churn = spec;
        self
    }

    /// Sets the static fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// Sets the channel count (governs fading width).
    pub fn channels(mut self, channels: u16) -> Self {
        self.scenario.channels = channels;
        self
    }

    /// Sets the default slot budget.
    pub fn max_slots(mut self, slots: u64) -> Self {
        self.scenario.max_slots = slots;
        self
    }

    // Kept only because the frozen `benchmark/` crate calls it; removed
    // when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub fn par_channels(self, _par: bool) -> Self {
        self
    }

    // Ignored (the engine derives its shard grid); kept only because the
    // frozen `benchmark/` crate calls it. Removed when the benchmark is
    // next re-baselined.
    #[doc(hidden)]
    pub fn shards(self, _s: u16) -> Self {
        self
    }

    // Kept only because the frozen `benchmark/` crate calls it; removed
    // when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub fn par_shards(self, _par: bool) -> Self {
        self
    }

    /// Sets the structure-maintenance policy.
    pub fn maintenance(mut self, spec: MaintenanceSpec) -> Self {
        self.scenario.maintenance = Some(spec);
        self
    }

    /// Requests observability recording (see [`ObsSpec`]).
    pub fn obs(mut self, spec: ObsSpec) -> Self {
        self.scenario.obs = Some(spec);
        self
    }

    /// Sets the reception [`ResolveMode`] on the scenario's physical
    /// parameters (see [`mca_sinr::ResolveMode`]).
    pub fn resolve_mode(mut self, mode: ResolveMode) -> Self {
        self.scenario.params = self.scenario.params.with_resolve(mode);
        self
    }

    /// Finishes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builder_defaults_and_setters() {
        let s = Scenario::builder("demo")
            .deployment(DeploymentSpec::Uniform { n: 40, side: 12.0 })
            .mobility(MobilitySpec::RandomWaypoint {
                speed_min: 0.1,
                speed_max: 0.2,
                pause: 3,
            })
            .fading(FadingSpec::interference(0.01, 0.1, 50.0))
            .channels(4)
            .max_slots(500)
            .build();
        assert_eq!(s.name, "demo");
        assert_eq!(s.len(), 40);
        assert_eq!(s.channels, 4);
        assert_eq!(s.max_slots, 500);
        assert!(s.fading.is_some());
        assert!(!s.is_empty());
    }

    #[test]
    fn resolve_mode_plumbs_through() {
        let s = Scenario::builder("fast")
            .resolve_mode(ResolveMode::fast())
            .build();
        assert!(matches!(s.params.resolve, ResolveMode::Fast { .. }));
        let d = Scenario::builder("default").build();
        assert_eq!(d.params.resolve, ResolveMode::Exact);
    }

    #[test]
    fn deployment_specs_materialize_with_matching_len() {
        let mut rng = SmallRng::seed_from_u64(1);
        let specs = [
            DeploymentSpec::Uniform { n: 10, side: 5.0 },
            DeploymentSpec::Disk { n: 7, radius: 3.0 },
            DeploymentSpec::Grid {
                nx: 3,
                ny: 4,
                step: 1.0,
                jitter: 0.0,
            },
            DeploymentSpec::Line { n: 5, spacing: 2.0 },
            DeploymentSpec::Corridor {
                n: 8,
                length: 10.0,
                width: 2.0,
            },
            DeploymentSpec::Explicit(vec![Point::ORIGIN, Point::new(1.0, 1.0)]),
        ];
        for spec in &specs {
            let d = spec.instantiate(&mut rng);
            assert_eq!(d.len(), spec.len(), "{spec:?}");
            assert!(spec.nominal_area().is_some());
        }
    }

    #[test]
    fn deployment_for_is_deterministic_per_seed() {
        let s = Scenario::builder("d")
            .deployment(DeploymentSpec::Uniform { n: 30, side: 9.0 })
            .build();
        assert_eq!(s.deployment_for(5), s.deployment_for(5));
        assert_ne!(
            s.deployment_for(5).points(),
            s.deployment_for(6).points(),
            "different seeds give different placements"
        );
    }

    #[test]
    fn churn_compiles_into_faults() {
        let s = Scenario::builder("churny")
            .deployment(DeploymentSpec::Uniform { n: 50, side: 10.0 })
            .churn(ChurnSpec::Explicit {
                joins: vec![(3, 10)],
                crashes: vec![(4, 20)],
            })
            .build();
        let f = s.faults_for(1);
        assert!(!f.has_joined(3, 9));
        assert!(f.has_joined(3, 10));
        assert!(f.is_crashed(4, 20));
        // Deterministic in seed.
        assert_eq!(s.faults_for(1), s.faults_for(1));
    }

    #[test]
    fn random_churn_fraction_roughly_respected() {
        let s = Scenario::builder("rc")
            .deployment(DeploymentSpec::Uniform { n: 400, side: 20.0 })
            .churn(ChurnSpec::Random {
                join_fraction: 0.25,
                join_window: (1, 50),
                crash_fraction: 0.0,
                crash_window: (0, 0),
            })
            .build();
        let f = s.faults_for(9);
        let late = (0..400).filter(|&i| !f.has_joined(i, 0)).count();
        assert!(
            (50..150).contains(&late),
            "expected ~100 late joiners, got {late}"
        );
        // Every late join lands inside the window.
        for i in 0..400u32 {
            if !f.has_joined(i, 0) {
                assert!(f.has_joined(i, 50));
            }
        }
    }

    #[test]
    fn duty_cycle_compiles_into_sleep_schedules() {
        let s = Scenario::builder("dc")
            .deployment(DeploymentSpec::Line { n: 6, spacing: 1.0 })
            .duty_cycle(DutyCycleSpec {
                period: 8,
                on: 6,
                stride: 2,
                nodes: Some(4),
            })
            .build();
        let f = s.faults_for(1);
        let sleeps = f.sleep_schedules();
        assert_eq!(sleeps.len(), 4, "only the capped prefix duty-cycles");
        assert_eq!(sleeps[1].1.phase, 2, "phases stagger by stride");
        assert!(f.is_asleep(0, 6) && !f.is_asleep(0, 0));
        assert!(f.is_asleep(1, 4), "staggered phase shifts the off window");
        assert!(!f.is_asleep(5, 6), "uncapped nodes never sleep");
        // Sleep is not lifecycle churn.
        assert!(!f.is_lifecycle_absent(0, 6));
        // Degenerate cycles are ignored outright.
        let s2 = Scenario::builder("dc2")
            .deployment(DeploymentSpec::Line { n: 3, spacing: 1.0 })
            .duty_cycle(DutyCycleSpec {
                period: 4,
                on: 4,
                stride: 1,
                nodes: None,
            })
            .build();
        assert!(s2.faults_for(1).sleep_schedules().is_empty());
    }

    #[test]
    fn adversary_environment_is_dynamic() {
        let s = Scenario::builder("adv")
            .deployment(DeploymentSpec::Uniform { n: 20, side: 8.0 })
            .adversary(AdversarySpec::TrackingJammer {
                epoch: 10,
                radius: 2.0,
                speed: 0.2,
                channel: None,
            })
            .build();
        let (env, _) = s.environment_for(3);
        assert!(!env.is_static());
        assert_eq!(env.len(), 1);
        let f = Scenario::builder("cf")
            .deployment(DeploymentSpec::Uniform { n: 20, side: 8.0 })
            .adversary(AdversarySpec::CorrelatedFading {
                p_degrade: 0.02,
                p_recover: 0.2,
                correlation: 0.5,
                bad: ChannelCondition::dropped(80.0),
            })
            .build();
        let (env, _) = f.environment_for(3);
        assert!(!env.is_static());
    }

    #[test]
    fn environment_for_static_scenario_is_static() {
        let s = Scenario::builder("static")
            .deployment(DeploymentSpec::Line { n: 4, spacing: 1.0 })
            .build();
        let (env, _) = s.environment_for(3);
        use crate::environment::EnvironmentModel;
        assert!(env.is_static());
        assert!(env.is_empty());
    }
}

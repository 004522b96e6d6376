//! Driving a protocol through a dynamic scenario.

use crate::environment::{EnvironmentModel, World};
use crate::spec::{MaintenanceSpec, Scenario};
use mca_geom::Point;
use mca_radio::{Engine, Metrics, Protocol};
use rand::rngs::SmallRng;

/// An [`Engine`] paired with a scenario's environment: each step first
/// evaluates the environment model (mobility, fading, churn), then runs one
/// engine slot.
///
/// For a fully static scenario the environment is never evaluated and no
/// environment randomness is drawn, so a `ScenarioSim` run is bit-identical
/// to driving a plain [`Engine`] over the same deployment with the same
/// master seed.
pub struct ScenarioSim<P: Protocol> {
    engine: Engine<P>,
    env: Box<dyn EnvironmentModel>,
    env_rng: SmallRng,
    env_static: bool,
    name: String,
    maintenance: Option<MaintenanceSpec>,
}

impl<P: Protocol> ScenarioSim<P> {
    /// Instantiates `scenario` for trial `seed`, creating one protocol per
    /// node via `make(node_index, initial_position)`.
    pub fn new<F>(scenario: &Scenario, seed: u64, mut make: F) -> Self
    where
        F: FnMut(usize, Point) -> P,
    {
        let deploy = scenario.deployment_for(seed);
        let protocols: Vec<P> = deploy
            .points()
            .iter()
            .enumerate()
            .map(|(i, &p)| make(i, p))
            .collect();
        let faults = scenario.faults_for(seed);
        let mut engine = Engine::new(scenario.params, deploy.into_points(), protocols, seed)
            .with_faults(faults)
            .with_shards(scenario.shards);
        if let Some(o) = scenario.obs.filter(|o| o.enabled) {
            engine.attach_obs(mca_obs::Recorder::new().with_channel_stream(o.channel_stream));
        }
        let (env, env_rng) = scenario.environment_for(seed);
        let env_static = env.is_static();
        ScenarioSim {
            engine,
            env: Box::new(env),
            env_rng,
            env_static,
            name: scenario.name.clone(),
            maintenance: scenario.maintenance,
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's maintenance policy, if any.
    pub fn maintenance(&self) -> Option<&MaintenanceSpec> {
        self.maintenance.as_ref()
    }

    /// Executes one slot: environment first, then the engine.
    pub fn step(&mut self) {
        if !self.env_static {
            let slot = self.engine.slot();
            let (positions, conditions, faults) = self.engine.env_parts();
            let mut world = World {
                positions,
                conditions,
                faults,
                rng: &mut self.env_rng,
            };
            self.env.step(slot, &mut world);
        }
        self.engine.step();
    }

    /// Executes exactly `slots` slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Runs `slots` slots in maintenance epochs: after every
    /// `maintenance.every` slots (and after the final partial epoch)
    /// `at_epoch(self, epoch_index)` is invoked — the hook where a
    /// structure maintainer drains engine events and repairs. Returns the
    /// number of epochs fired; without a maintenance policy the run is a
    /// plain [`ScenarioSim::run`] and no epochs fire.
    pub fn run_epochs<F: FnMut(&mut Self, u64)>(&mut self, slots: u64, mut at_epoch: F) -> u64 {
        let Some(every) = self.maintenance.map(|m| m.every.max(1)) else {
            self.run(slots);
            return 0;
        };
        let mut remaining = slots;
        let mut epoch = 0;
        while remaining > 0 {
            let chunk = every.min(remaining);
            self.run(chunk);
            remaining -= chunk;
            at_epoch(self, epoch);
            epoch += 1;
        }
        epoch
    }

    /// Steps until every protocol is done or `max_slots` is reached;
    /// returns `true` if all protocols finished.
    pub fn run_until_done(&mut self, max_slots: u64) -> bool {
        while self.engine.slot() < max_slots {
            if self.engine.all_done() {
                return true;
            }
            self.step();
        }
        self.engine.all_done()
    }

    /// Steps until `pred(protocols)` holds or `max_slots` is reached;
    /// returns `true` if the predicate became true.
    pub fn run_until<F: FnMut(&[P]) -> bool>(&mut self, max_slots: u64, mut pred: F) -> bool {
        while self.engine.slot() < max_slots {
            if pred(self.engine.protocols()) {
                return true;
            }
            self.step();
        }
        pred(self.engine.protocols())
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine (e.g. to enable tracing).
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Point] {
        self.engine.positions()
    }

    /// The per-node protocol states.
    pub fn protocols(&self) -> &[P] {
        self.engine.protocols()
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The engine's observability recorder, if the scenario's `[obs]`
    /// request attached one (see [`crate::ObsSpec`]).
    pub fn obs(&self) -> Option<&mca_obs::Recorder> {
        self.engine.obs()
    }

    /// Mutable access to the attached recorder (e.g. to add counters).
    pub fn obs_mut(&mut self) -> Option<&mut mca_obs::Recorder> {
        self.engine.obs_mut()
    }

    /// Detaches and returns the recorder for reporting.
    pub fn take_obs(&mut self) -> Option<mca_obs::Recorder> {
        self.engine.take_obs()
    }

    /// Slots executed so far.
    pub fn slot(&self) -> u64 {
        self.engine.slot()
    }

    /// Consumes the sim, returning the engine.
    pub fn into_engine(self) -> Engine<P> {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeploymentSpec, ObsSpec};
    use mca_radio::{Action, Channel, Observation};

    struct Beacon {
        id: u32,
        heard: u32,
    }

    impl Protocol for Beacon {
        type Msg = u32;
        fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
            if self.id == 0 {
                Action::Transmit {
                    channel: Channel::FIRST,
                    msg: self.id,
                }
            } else {
                Action::Listen {
                    channel: Channel::FIRST,
                }
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            if obs.reception().is_some() {
                self.heard += 1;
            }
        }
    }

    fn beacons(obs: Option<ObsSpec>) -> ScenarioSim<Beacon> {
        let mut b =
            Scenario::builder("obs-sim").deployment(DeploymentSpec::Uniform { n: 12, side: 4.0 });
        if let Some(o) = obs {
            b = b.obs(o);
        }
        ScenarioSim::new(&b.build(), 5, |i, _| Beacon {
            id: i as u32,
            heard: 0,
        })
    }

    #[test]
    fn obs_request_never_perturbs_the_trial() {
        let run = |obs| {
            let mut sim = beacons(obs);
            sim.run(20);
            sim.metrics().clone()
        };
        let plain = run(None);
        let observed = run(Some(ObsSpec::default()));
        assert_eq!(plain, observed);
    }

    #[test]
    fn obs_request_attaches() {
        let mut sim = beacons(Some(ObsSpec::default()));
        sim.run(10);
        let rec = sim.obs().expect("recorder attached");
        assert!(!rec.is_empty());
        assert!(sim.take_obs().is_some());
        // A disabled request never attaches.
        let sim = beacons(Some(ObsSpec {
            enabled: false,
            channel_stream: true,
        }));
        assert!(sim.obs().is_none());
        // No request, no recorder.
        assert!(beacons(None).obs().is_none());
    }
}

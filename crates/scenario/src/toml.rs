//! Scenario ⇄ TOML (de)serialization.
//!
//! Implements [`ToToml`] / [`FromToml`] for [`Scenario`] and every spec it
//! contains — geometry, SINR parameters (including `resolve` mode),
//! mobility, fading, churn, and fault plans — so a whole
//! experimental world round-trips through a version-controlled `.toml`
//! file. The schema is documented key-by-key in `docs/SCENARIO_FORMAT.md`;
//! the committed catalog under `scenarios/` holds worked examples.
//!
//! Guarantees:
//!
//! * **lossless** — `Scenario -> TOML -> Scenario` is `==` (floats are
//!   emitted with shortest-round-trip formatting, fault plans in sorted
//!   order), so a file-driven trial is bit-identical to its in-code
//!   original for the same seed;
//! * **strict** — unknown or missing fields, type mismatches, and
//!   out-of-range physics (e.g. `alpha <= 2`) fail with a
//!   [`TomlError`] naming the source line and dotted field path;
//! * **deterministic** — emission order is fixed, so goldens can pin the
//!   exact bytes.

use crate::spec::{
    AdversarySpec, ChurnSpec, DeploymentSpec, DutyCycleSpec, FadingSpec, MaintenanceSpec,
    MobilitySpec, ObsSpec, Scenario,
};
use mca_geom::{BoundingBox, Point};
use mca_radio::{ChannelCondition, FaultPlan, JamSpec};
use mca_serde::{emit, Fields, Table, ToToml, TomlError, Value};
use mca_sinr::{ResolveMode, SinrParams};
use std::fmt;
use std::path::{Path, PathBuf};

pub use mca_serde::FromToml;

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

impl ToToml for Scenario {
    fn to_toml_table(&self) -> Table {
        let mut root = Table::new()
            .with("name", Value::str(&self.name))
            .with("channels", Value::int(self.channels))
            .with("max_slots", Value::int(self.max_slots))
            .with("sinr", Value::table(sinr_table(&self.params)))
            .with(
                "deployment",
                Value::table(deployment_table(&self.deployment)),
            );
        if self.shards > 0 {
            root.insert("engine", Value::table(engine_table(self)));
        }
        if let Some(area) = self.area {
            root.insert("area", Value::table(area_table(&area)));
        }
        if self.mobility != MobilitySpec::Static {
            root.insert("mobility", Value::table(mobility_table(&self.mobility)));
        }
        if let Some(fading) = &self.fading {
            root.insert("fading", Value::table(fading_table(fading)));
        }
        if let Some(a) = &self.adversary {
            root.insert("adversary", Value::table(adversary_table(a)));
        }
        if let Some(d) = &self.duty_cycle {
            root.insert("duty_cycle", Value::table(duty_cycle_table(d)));
        }
        if self.churn != ChurnSpec::None {
            root.insert("churn", Value::table(churn_table(&self.churn)));
        }
        if !self.faults.is_trivial() {
            root.insert("faults", Value::table(faults_table(&self.faults)));
        }
        if let Some(m) = &self.maintenance {
            root.insert("maintenance", Value::table(maintenance_table(m)));
        }
        if let Some(o) = &self.obs {
            root.insert("obs", Value::table(obs_table(o)));
        }
        root
    }
}

/// The `[obs]` table: an observability request. Like `[engine]`, purely an
/// execution knob — recording never changes trial results.
fn obs_table(o: &ObsSpec) -> Table {
    Table::new()
        .with("enabled", Value::bool(o.enabled))
        .with("channel_stream", Value::bool(o.channel_stream))
}

/// The `[engine]` table: execution knobs (sharding) that never change
/// trial results, only how the engine schedules the work.
fn engine_table(s: &Scenario) -> Table {
    Table::new().with("shards", Value::int(s.shards))
}

fn maintenance_table(m: &MaintenanceSpec) -> Table {
    Table::new()
        .with("every", Value::int(m.every))
        .with("handover_hysteresis", Value::float(m.handover_hysteresis))
        .with("rebuild_threshold", Value::float(m.rebuild_threshold))
}

fn sinr_table(p: &SinrParams) -> Table {
    let mut t = Table::new()
        .with("alpha", Value::float(p.alpha))
        .with("beta", Value::float(p.beta))
        .with("noise", Value::float(p.noise))
        .with("power", Value::float(p.power))
        .with("eps", Value::float(p.eps))
        .with("min_dist", Value::float(p.min_dist));
    match p.resolve {
        ResolveMode::Exact => t.insert("resolve", Value::str("exact")),
        ResolveMode::Fast { cutoff_factor } => {
            t.insert("resolve", Value::str("fast"));
            t.insert("cutoff_factor", Value::float(cutoff_factor));
        }
    }
    t
}

fn deployment_table(d: &DeploymentSpec) -> Table {
    match *d {
        DeploymentSpec::Uniform { n, side } => Table::new()
            .with("kind", Value::str("uniform"))
            .with("n", Value::int(n as i128))
            .with("side", Value::float(side)),
        DeploymentSpec::Disk { n, radius } => Table::new()
            .with("kind", Value::str("disk"))
            .with("n", Value::int(n as i128))
            .with("radius", Value::float(radius)),
        DeploymentSpec::Grid {
            nx,
            ny,
            step,
            jitter,
        } => Table::new()
            .with("kind", Value::str("grid"))
            .with("nx", Value::int(nx as i128))
            .with("ny", Value::int(ny as i128))
            .with("step", Value::float(step))
            .with("jitter", Value::float(jitter)),
        DeploymentSpec::Line { n, spacing } => Table::new()
            .with("kind", Value::str("line"))
            .with("n", Value::int(n as i128))
            .with("spacing", Value::float(spacing)),
        DeploymentSpec::Corridor { n, length, width } => Table::new()
            .with("kind", Value::str("corridor"))
            .with("n", Value::int(n as i128))
            .with("length", Value::float(length))
            .with("width", Value::float(width)),
        DeploymentSpec::Explicit(ref points) => {
            Table::new().with("kind", Value::str("explicit")).with(
                "points",
                Value::array(points.iter().map(point_value).collect()),
            )
        }
    }
}

fn point_value(p: &Point) -> Value {
    Value::array(vec![Value::float(p.x), Value::float(p.y)])
}

fn area_table(b: &BoundingBox) -> Table {
    Table::new()
        .with("min", point_value(&b.min()))
        .with("max", point_value(&b.max()))
}

fn mobility_table(m: &MobilitySpec) -> Table {
    match *m {
        MobilitySpec::Static => Table::new().with("kind", Value::str("static")),
        MobilitySpec::RandomWaypoint {
            speed_min,
            speed_max,
            pause,
        } => Table::new()
            .with("kind", Value::str("random-waypoint"))
            .with("speed_min", Value::float(speed_min))
            .with("speed_max", Value::float(speed_max))
            .with("pause", Value::int(pause)),
        MobilitySpec::Convoy {
            groups,
            speed,
            spread,
            pause,
        } => Table::new()
            .with("kind", Value::str("convoy"))
            .with("groups", Value::int(groups as i128))
            .with("speed", Value::float(speed))
            .with("spread", Value::float(spread))
            .with("pause", Value::int(pause)),
    }
}

fn fading_table(f: &FadingSpec) -> Table {
    Table::new()
        .with("p_degrade", Value::float(f.p_degrade))
        .with("p_recover", Value::float(f.p_recover))
        .with("power", Value::float(f.bad.extra_interference))
        .with("drop", Value::bool(f.bad.drop))
}

fn adversary_table(a: &AdversarySpec) -> Table {
    match *a {
        AdversarySpec::TrackingJammer {
            epoch,
            radius,
            speed,
            channel,
        } => {
            let mut t = Table::new()
                .with("kind", Value::str("tracking-jammer"))
                .with("epoch", Value::int(epoch))
                .with("radius", Value::float(radius))
                .with("speed", Value::float(speed));
            if let Some(c) = channel {
                t.insert("channel", Value::int(c));
            }
            t
        }
        AdversarySpec::CorrelatedFading {
            p_degrade,
            p_recover,
            correlation,
            bad,
        } => Table::new()
            .with("kind", Value::str("correlated-fading"))
            .with("p_degrade", Value::float(p_degrade))
            .with("p_recover", Value::float(p_recover))
            .with("correlation", Value::float(correlation))
            .with("power", Value::float(bad.extra_interference))
            .with("drop", Value::bool(bad.drop)),
    }
}

fn duty_cycle_table(d: &DutyCycleSpec) -> Table {
    let mut t = Table::new()
        .with("period", Value::int(d.period))
        .with("on", Value::int(d.on))
        .with("stride", Value::int(d.stride));
    if let Some(n) = d.nodes {
        t.insert("nodes", Value::int(n as i128));
    }
    t
}

fn churn_table(c: &ChurnSpec) -> Table {
    match c {
        ChurnSpec::None => Table::new().with("kind", Value::str("none")),
        ChurnSpec::Random {
            join_fraction,
            join_window,
            crash_fraction,
            crash_window,
        } => Table::new()
            .with("kind", Value::str("random"))
            .with("join_fraction", Value::float(*join_fraction))
            .with(
                "join_window",
                Value::array(vec![Value::int(join_window.0), Value::int(join_window.1)]),
            )
            .with("crash_fraction", Value::float(*crash_fraction))
            .with(
                "crash_window",
                Value::array(vec![Value::int(crash_window.0), Value::int(crash_window.1)]),
            ),
        ChurnSpec::Explicit { joins, crashes } => Table::new()
            .with("kind", Value::str("explicit"))
            .with("joins", Value::pair_array(joins))
            .with("crashes", Value::pair_array(crashes)),
    }
}

fn faults_table(f: &FaultPlan) -> Table {
    let mut t = Table::new();
    let crashes = f.crash_events();
    if !crashes.is_empty() {
        t.insert("crashes", Value::pair_array(&crashes));
    }
    let joins = f.join_events();
    if !joins.is_empty() {
        t.insert("joins", Value::pair_array(&joins));
    }
    if !f.jams().is_empty() {
        t.insert(
            "jam",
            Value::array(
                f.jams()
                    .iter()
                    .map(|j| Value::table(jam_table(j)))
                    .collect(),
            ),
        );
    }
    t
}

fn jam_table(j: &JamSpec) -> Table {
    match *j {
        JamSpec::Fixed {
            channel,
            from,
            to,
            power,
        } => Table::new()
            .with("kind", Value::str("fixed"))
            .with("channel", Value::int(channel))
            .with("from", Value::int(from))
            .with("to", Value::int(to))
            .with("power", Value::float(power)),
        JamSpec::Random {
            t,
            total,
            power,
            seed,
        } => Table::new()
            .with("kind", Value::str("random"))
            .with("t", Value::int(t))
            .with("total", Value::int(total))
            .with("power", Value::float(power))
            .with("seed", Value::int(seed)),
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl FromToml for Scenario {
    fn from_toml_table(table: &Table) -> Result<Self, TomlError> {
        let mut root = Fields::of_table(table, "");
        let name = root.str("name")?.to_string();
        let channels = root.opt_u16("channels")?.unwrap_or(8);
        if channels == 0 {
            return Err(root.invalid("channels", "must be at least 1"));
        }
        let max_slots = root.opt_u64("max_slots")?.unwrap_or(10_000);
        // Accepted and ignored (deprecated): files written before the
        // engine chose its own schedule carry `par_channels` here and
        // `par_shards` under `[engine]`.
        root.opt_bool("par_channels")?;
        let params = match root.opt_fields("sinr")? {
            Some(f) => decode_sinr(f)?,
            None => SinrParams::default(),
        };
        let shards = match root.opt_fields("engine")? {
            Some(f) => decode_engine(f)?,
            None => 0,
        };
        let deployment = {
            let line = root.line();
            let f = root
                .opt_fields("deployment")?
                .ok_or_else(|| TomlError::field(line, "deployment", "missing required table"))?;
            decode_deployment(f)?
        };
        let area = match root.opt_fields("area")? {
            Some(f) => Some(decode_area(f)?),
            None => None,
        };
        let mobility = match root.opt_fields("mobility")? {
            Some(f) => decode_mobility(f)?,
            None => MobilitySpec::Static,
        };
        let fading = match root.opt_fields("fading")? {
            Some(f) => Some(decode_fading(f)?),
            None => None,
        };
        let n = deployment.len();
        let adversary = match root.opt_fields("adversary")? {
            Some(f) => Some(decode_adversary(f, channels)?),
            None => None,
        };
        let duty_cycle = match root.opt_fields("duty_cycle")? {
            Some(f) => Some(decode_duty_cycle(f)?),
            None => None,
        };
        let churn = match root.opt_fields("churn")? {
            Some(f) => decode_churn(f, n)?,
            None => ChurnSpec::None,
        };
        let faults = match root.opt_fields("faults")? {
            Some(f) => decode_faults(f, n, channels)?,
            None => FaultPlan::none(),
        };
        let maintenance = match root.opt_fields("maintenance")? {
            Some(f) => Some(decode_maintenance(f)?),
            None => None,
        };
        let obs = match root.opt_fields("obs")? {
            Some(f) => Some(decode_obs(f)?),
            None => None,
        };
        root.finish()?;
        Ok(Scenario {
            name,
            params,
            deployment,
            area,
            mobility,
            fading,
            adversary,
            duty_cycle,
            churn,
            faults,
            channels,
            max_slots,
            par_channels: false,
            shards,
            par_shards: false,
            maintenance,
            obs,
        })
    }
}

fn decode_obs(mut f: Fields<'_>) -> Result<ObsSpec, TomlError> {
    let enabled = f.opt_bool("enabled")?.unwrap_or(true);
    let channel_stream = f.opt_bool("channel_stream")?.unwrap_or(true);
    f.finish()?;
    Ok(ObsSpec {
        enabled,
        channel_stream,
    })
}

fn decode_engine(mut f: Fields<'_>) -> Result<u16, TomlError> {
    let shards = f.opt_u16("shards")?.unwrap_or(0);
    if shards > mca_radio::shard::MAX_SHARDS_PER_AXIS {
        return Err(f.invalid(
            "shards",
            format!(
                "shard count per axis must be at most {}, got {shards}",
                mca_radio::shard::MAX_SHARDS_PER_AXIS
            ),
        ));
    }
    f.opt_bool("par_shards")?;
    f.finish()?;
    Ok(shards)
}

fn decode_maintenance(mut f: Fields<'_>) -> Result<MaintenanceSpec, TomlError> {
    let every = f.u64("every")?;
    if every == 0 {
        return Err(f.invalid("every", "maintenance cadence must be at least 1 slot"));
    }
    let handover_hysteresis = f
        .opt_f64("handover_hysteresis")?
        .unwrap_or(MaintenanceSpec::DEFAULT_HYSTERESIS);
    if !(handover_hysteresis.is_finite() && handover_hysteresis >= 1.0) {
        return Err(f.invalid(
            "handover_hysteresis",
            format!("must be finite and at least 1, got {handover_hysteresis}"),
        ));
    }
    let rebuild_threshold = f
        .opt_f64("rebuild_threshold")?
        .unwrap_or(MaintenanceSpec::DEFAULT_REBUILD_THRESHOLD);
    if !(0.0..=1.0).contains(&rebuild_threshold) {
        return Err(f.invalid(
            "rebuild_threshold",
            format!("must lie in [0, 1], got {rebuild_threshold}"),
        ));
    }
    f.finish()?;
    Ok(MaintenanceSpec {
        every,
        handover_hysteresis,
        rebuild_threshold,
    })
}

fn decode_sinr(mut f: Fields<'_>) -> Result<SinrParams, TomlError> {
    let dflt = SinrParams::default();
    let alpha = f.opt_f64("alpha")?.unwrap_or(dflt.alpha);
    if !(alpha.is_finite() && alpha > 2.0) {
        return Err(f.invalid(
            "alpha",
            format!("path-loss exponent must exceed 2, got {alpha}"),
        ));
    }
    let beta = f.opt_f64("beta")?.unwrap_or(dflt.beta);
    if !(beta.is_finite() && beta >= 1.0) {
        return Err(f.invalid(
            "beta",
            format!("SINR threshold must be at least 1, got {beta}"),
        ));
    }
    let noise = f.opt_f64("noise")?.unwrap_or(dflt.noise);
    if !(noise.is_finite() && noise > 0.0) {
        return Err(f.invalid(
            "noise",
            format!("ambient noise must be positive, got {noise}"),
        ));
    }
    let eps = f.opt_f64("eps")?.unwrap_or(dflt.eps);
    if !(eps > 0.0 && eps < 1.0) {
        return Err(f.invalid("eps", format!("graph margin must lie in (0, 1), got {eps}")));
    }
    let (power, power_key, derived) = match (f.opt_f64("power")?, f.opt_f64("range")?) {
        (Some(_), Some(_)) => {
            return Err(f.invalid(
                "range",
                "`power` and `range` are mutually exclusive (range back-solves power)",
            ))
        }
        (Some(p), None) => (p, "power", false),
        (None, range) => {
            let range = range.unwrap_or(8.0);
            if !(range.is_finite() && range > 0.0) {
                return Err(f.invalid(
                    "range",
                    format!("transmission range must be positive, got {range}"),
                ));
            }
            (beta * noise * range.powf(alpha), "range", true)
        }
    };
    if !(power.is_finite() && power > 0.0) {
        // Blame the key the author actually wrote: when the power was
        // back-solved, the problem is the range (or alpha) making
        // `beta * noise * range^alpha` overflow, not a `power` key.
        let msg = if derived {
            format!("derived transmission power `beta * noise * range^alpha` must be positive and finite, got {power}")
        } else {
            format!("transmission power must be positive and finite, got {power}")
        };
        return Err(f.invalid(power_key, msg));
    }
    let min_dist = f.opt_f64("min_dist")?.unwrap_or(dflt.min_dist);
    if !(min_dist.is_finite() && min_dist > 0.0) {
        return Err(f.invalid(
            "min_dist",
            format!("near-field clamp must be positive, got {min_dist}"),
        ));
    }
    let resolve = match f.opt_str("resolve")? {
        None | Some("exact") => {
            if f.opt_f64("cutoff_factor")?.is_some() {
                return Err(f.invalid("cutoff_factor", "only valid with resolve = \"fast\""));
            }
            ResolveMode::Exact
        }
        Some("fast") => {
            let cutoff_factor = f.opt_f64("cutoff_factor")?.unwrap_or(1.5);
            if !(cutoff_factor.is_finite() && cutoff_factor >= 1.0) {
                return Err(f.invalid(
                    "cutoff_factor",
                    format!("must be finite and at least 1, got {cutoff_factor}"),
                ));
            }
            ResolveMode::Fast { cutoff_factor }
        }
        Some(other) => {
            return Err(f.invalid(
                "resolve",
                format!("unknown resolve mode `{other}` (expected \"exact\" or \"fast\")"),
            ))
        }
    };
    let params = SinrParams {
        alpha,
        beta,
        noise,
        power,
        eps,
        min_dist,
        resolve,
    };
    // A clamp can be positive and still too small: once `min_dist^alpha`
    // underflows, a listener on top of a transmitter reads `P/0`.
    let peak = params.peak_power();
    if !peak.is_finite() {
        return Err(f.invalid(
            "min_dist",
            format!("clamped peak power `P/min_dist^α` must be finite, got {peak} at min_dist = {min_dist}"),
        ));
    }
    f.finish()?;
    Ok(params)
}

fn decode_deployment(mut f: Fields<'_>) -> Result<DeploymentSpec, TomlError> {
    let kind = f.str("kind")?.to_string();
    let spec = match kind.as_str() {
        "uniform" => DeploymentSpec::Uniform {
            n: f.usize("n")?,
            side: f.pos_f64("side")?,
        },
        "disk" => DeploymentSpec::Disk {
            n: f.usize("n")?,
            radius: f.pos_f64("radius")?,
        },
        "grid" => DeploymentSpec::Grid {
            nx: f.usize("nx")?,
            ny: f.usize("ny")?,
            step: f.pos_f64("step")?,
            jitter: f.nn_f64_or("jitter", 0.0)?,
        },
        "line" => DeploymentSpec::Line {
            n: f.usize("n")?,
            spacing: f.pos_f64("spacing")?,
        },
        "corridor" => DeploymentSpec::Corridor {
            n: f.usize("n")?,
            length: f.pos_f64("length")?,
            width: f.pos_f64("width")?,
        },
        "explicit" => {
            let path = f.key_path("points");
            let mut points = Vec::new();
            for (i, v) in f.opt_array("points")?.iter().enumerate() {
                let (x, y) = v.as_f64_pair(&format!("{path}[{i}]"))?;
                points.push(Point::new(x, y));
            }
            DeploymentSpec::Explicit(points)
        }
        other => {
            return Err(f.invalid(
                "kind",
                format!(
                    "unknown deployment kind `{other}` (expected uniform, disk, grid, line, \
                     corridor, or explicit)"
                ),
            ))
        }
    };
    f.finish()?;
    Ok(spec)
}

fn decode_area(mut f: Fields<'_>) -> Result<BoundingBox, TomlError> {
    let min_path = f.key_path("min");
    let (min_x, min_y) = f.require("min")?.as_f64_pair(&min_path)?;
    let max_path = f.key_path("max");
    let (max_x, max_y) = f.require("max")?.as_f64_pair(&max_path)?;
    f.finish()?;
    Ok(BoundingBox::new(
        Point::new(min_x, min_y),
        Point::new(max_x, max_y),
    ))
}

fn decode_mobility(mut f: Fields<'_>) -> Result<MobilitySpec, TomlError> {
    let kind = f.str("kind")?.to_string();
    let spec = match kind.as_str() {
        "static" => MobilitySpec::Static,
        "random-waypoint" => {
            let speed_min = f.nn_f64("speed_min")?;
            let speed_max = f.f64("speed_max")?;
            if speed_max < speed_min {
                return Err(f.invalid(
                    "speed_max",
                    format!("must be at least speed_min ({speed_min}), got {speed_max}"),
                ));
            }
            MobilitySpec::RandomWaypoint {
                speed_min,
                speed_max,
                pause: f.opt_u64("pause")?.unwrap_or(0),
            }
        }
        "convoy" => {
            let groups = f.usize("groups")?;
            if groups == 0 {
                return Err(f.invalid("groups", "must be at least 1"));
            }
            MobilitySpec::Convoy {
                groups,
                speed: f.nn_f64("speed")?,
                spread: f.nn_f64("spread")?,
                pause: f.opt_u64("pause")?.unwrap_or(0),
            }
        }
        other => {
            return Err(f.invalid(
                "kind",
                format!(
                    "unknown mobility kind `{other}` (expected static, random-waypoint, or convoy)"
                ),
            ))
        }
    };
    f.finish()?;
    Ok(spec)
}

fn decode_fading(mut f: Fields<'_>) -> Result<FadingSpec, TomlError> {
    let p_degrade = f.prob("p_degrade")?;
    let p_recover = f.prob("p_recover")?;
    let power = f.nn_f64("power")?;
    let drop = f.opt_bool("drop")?.unwrap_or(false);
    f.finish()?;
    Ok(FadingSpec {
        p_degrade,
        p_recover,
        bad: ChannelCondition {
            extra_interference: power,
            drop,
        },
    })
}

fn decode_adversary(mut f: Fields<'_>, channels: u16) -> Result<AdversarySpec, TomlError> {
    let kind = f.str("kind")?.to_string();
    let spec = match kind.as_str() {
        "tracking-jammer" => {
            let epoch = f.u64("epoch")?;
            if epoch == 0 {
                return Err(f.invalid("epoch", "re-target epoch must be at least 1 slot"));
            }
            let radius = f.pos_f64("radius")?;
            let speed = f.nn_f64("speed")?;
            let channel = f.opt_u16("channel")?;
            if let Some(c) = channel {
                if c >= channels {
                    return Err(f.invalid(
                        "channel",
                        format!("channel {c} is out of range for {channels} channels"),
                    ));
                }
            }
            AdversarySpec::TrackingJammer {
                epoch,
                radius,
                speed,
                channel,
            }
        }
        "correlated-fading" => AdversarySpec::CorrelatedFading {
            p_degrade: f.prob("p_degrade")?,
            p_recover: f.prob("p_recover")?,
            correlation: f.prob("correlation")?,
            bad: ChannelCondition {
                extra_interference: f.nn_f64("power")?,
                drop: f.opt_bool("drop")?.unwrap_or(false),
            },
        },
        other => {
            return Err(f.invalid(
                "kind",
                format!(
                    "unknown adversary kind `{other}` (expected tracking-jammer or \
                     correlated-fading)"
                ),
            ))
        }
    };
    f.finish()?;
    Ok(spec)
}

fn decode_duty_cycle(mut f: Fields<'_>) -> Result<DutyCycleSpec, TomlError> {
    let period = f.u64("period")?;
    if period == 0 {
        return Err(f.invalid("period", "cycle length must be at least 1 slot"));
    }
    let on = f.u64("on")?;
    if on > period {
        return Err(f.invalid(
            "on",
            format!("awake slots {on} exceed the cycle length {period}"),
        ));
    }
    let stride = f.opt_u64("stride")?.unwrap_or(1);
    let nodes = f.opt_u64("nodes")?.map(|v| v as usize);
    f.finish()?;
    Ok(DutyCycleSpec {
        period,
        on,
        stride,
        nodes,
    })
}

fn decode_churn(mut f: Fields<'_>, n: usize) -> Result<ChurnSpec, TomlError> {
    let kind = f.str("kind")?.to_string();
    let spec = match kind.as_str() {
        "none" => ChurnSpec::None,
        "random" => {
            let join_fraction = f.prob_or("join_fraction", 0.0)?;
            let join_window = decode_window(&mut f, "join_window")?;
            let crash_fraction = f.prob_or("crash_fraction", 0.0)?;
            let crash_window = decode_window(&mut f, "crash_window")?;
            ChurnSpec::Random {
                join_fraction,
                join_window,
                crash_fraction,
                crash_window,
            }
        }
        "explicit" => ChurnSpec::Explicit {
            joins: decode_events(&mut f, "joins", n)?,
            crashes: decode_events(&mut f, "crashes", n)?,
        },
        other => {
            return Err(f.invalid(
                "kind",
                format!("unknown churn kind `{other}` (expected none, random, or explicit)"),
            ))
        }
    };
    f.finish()?;
    Ok(spec)
}

/// Decodes an optional `[from, to)` slot window (default `[0, 0)`).
fn decode_window(f: &mut Fields<'_>, key: &str) -> Result<(u64, u64), TomlError> {
    let path = f.key_path(key);
    let Some(v) = f.take(key) else {
        return Ok((0, 0));
    };
    let items = v.as_array(&path)?;
    if items.len() != 2 {
        return Err(TomlError::field(
            v.line,
            path,
            format!("expected `[from, to]`, found {} elements", items.len()),
        ));
    }
    let from = items[0].as_u64(&path)?;
    let to = items[1].as_u64(&path)?;
    if to < from {
        return Err(TomlError::field(
            v.line,
            path,
            format!("window end {to} precedes start {from}"),
        ));
    }
    Ok((from, to))
}

/// Decodes an optional array of `[node, slot]` pairs, checking each node
/// id against the deployment size `n`.
fn decode_events(f: &mut Fields<'_>, key: &str, n: usize) -> Result<Vec<(u32, u64)>, TomlError> {
    let path = f.key_path(key);
    let mut events = Vec::new();
    for (i, v) in f.opt_array(key)?.iter().enumerate() {
        let path = format!("{path}[{i}]");
        let items = v.as_array(&path)?;
        if items.len() != 2 {
            return Err(TomlError::field(
                v.line,
                path,
                format!("expected `[node, slot]`, found {} elements", items.len()),
            ));
        }
        let node = items[0].as_u32(&path)?;
        if node as usize >= n {
            return Err(TomlError::field(
                v.line,
                path,
                format!("node {node} is out of range for a {n}-node deployment"),
            ));
        }
        events.push((node, items[1].as_u64(&path)?));
    }
    Ok(events)
}

fn decode_faults(mut f: Fields<'_>, n: usize, channels: u16) -> Result<FaultPlan, TomlError> {
    let mut plan = FaultPlan::none();
    for (node, slot) in decode_events(&mut f, "crashes", n)? {
        plan.crash_at(node, slot);
    }
    for (node, slot) in decode_events(&mut f, "joins", n)? {
        plan.join_at(node, slot);
    }
    let jam_path = f.key_path("jam");
    for (i, v) in f.opt_array("jam")?.iter().enumerate() {
        plan.jam(decode_jam(v, &format!("{jam_path}[{i}]"), channels)?);
    }
    f.finish()?;
    Ok(plan)
}

fn decode_jam(v: &Value, path: &str, channels: u16) -> Result<JamSpec, TomlError> {
    let mut f = Fields::new(v, path)?;
    let kind = f.str("kind")?.to_string();
    let spec = match kind.as_str() {
        "fixed" => {
            let channel = f.u16("channel")?;
            if channel >= channels {
                return Err(f.invalid(
                    "channel",
                    format!("channel {channel} is out of range for {channels} channels"),
                ));
            }
            JamSpec::Fixed {
                channel,
                from: f.opt_u64("from")?.unwrap_or(0),
                to: f.opt_u64("to")?.unwrap_or(u64::MAX),
                power: f.nn_f64("power")?,
            }
        }
        "random" => {
            let t = f.u16("t")?;
            let total = f.u16("total")?;
            if total > channels {
                return Err(f.invalid(
                    "total",
                    format!(
                        "random jam draws from {total} channels but the scenario has only \
                         {channels}"
                    ),
                ));
            }
            if t > total {
                return Err(f.invalid("t", format!("cannot jam {t} of {total} channels each slot")));
            }
            JamSpec::Random {
                t,
                total,
                power: f.nn_f64("power")?,
                seed: f.opt_u64("seed")?.unwrap_or(0),
            }
        }
        other => {
            return Err(f.invalid(
                "kind",
                format!("unknown jam kind `{other}` (expected fixed or random)"),
            ))
        }
    };
    f.finish()?;
    Ok(spec)
}

/// Range-validating accessors layered over [`Fields`].
trait FieldsExt {
    /// Required float that must be positive and finite.
    fn pos_f64(&mut self, key: &str) -> Result<f64, TomlError>;
    /// Required float that must be non-negative and finite.
    fn nn_f64(&mut self, key: &str) -> Result<f64, TomlError>;
    /// Optional non-negative finite float with a default.
    fn nn_f64_or(&mut self, key: &str, default: f64) -> Result<f64, TomlError>;
    /// Required probability in `[0, 1]`.
    fn prob(&mut self, key: &str) -> Result<f64, TomlError>;
    /// Optional probability in `[0, 1]` with a default.
    fn prob_or(&mut self, key: &str, default: f64) -> Result<f64, TomlError>;
}

impl FieldsExt for Fields<'_> {
    fn pos_f64(&mut self, key: &str) -> Result<f64, TomlError> {
        let v = self.f64(key)?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(self.invalid(key, format!("must be positive and finite, got {v}")))
        }
    }

    fn nn_f64(&mut self, key: &str) -> Result<f64, TomlError> {
        let v = self.f64(key)?;
        if v >= 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(self.invalid(key, format!("must be non-negative and finite, got {v}")))
        }
    }

    fn nn_f64_or(&mut self, key: &str, default: f64) -> Result<f64, TomlError> {
        let v = self.opt_f64(key)?.unwrap_or(default);
        if v >= 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(self.invalid(key, format!("must be non-negative and finite, got {v}")))
        }
    }

    fn prob(&mut self, key: &str) -> Result<f64, TomlError> {
        let v = self.f64(key)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(self.invalid(key, format!("must lie in [0, 1], got {v}")))
        }
    }

    fn prob_or(&mut self, key: &str, default: f64) -> Result<f64, TomlError> {
        let v = self.opt_f64(key)?.unwrap_or(default);
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(self.invalid(key, format!("must lie in [0, 1], got {v}")))
        }
    }
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// An error loading or saving a scenario file: I/O, or parse/decode with
/// the source line and field.
#[derive(Debug)]
pub enum ScenarioFileError {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The file is not a valid scenario.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The underlying parse/decode error (line- and field-qualified).
        error: TomlError,
    },
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFileError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            ScenarioFileError::Parse { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for ScenarioFileError {}

impl Scenario {
    /// Serializes this scenario as TOML text (canonical layout).
    pub fn to_toml(&self) -> String {
        emit(&ToToml::to_toml_table(self))
    }

    /// Parses a scenario from TOML text.
    pub fn from_toml_str(src: &str) -> Result<Scenario, TomlError> {
        <Scenario as FromToml>::from_toml_str(src)
    }

    /// Loads a scenario from a `.toml` file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioFileError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| ScenarioFileError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        Scenario::from_toml_str(&text).map_err(|error| ScenarioFileError::Parse {
            path: path.to_path_buf(),
            error,
        })
    }

    /// Writes this scenario to a `.toml` file (canonical layout).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioFileError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_toml()).map_err(|error| ScenarioFileError::Io {
            path: path.to_path_buf(),
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    fn full_scenario() -> Scenario {
        let mut faults = FaultPlan::none();
        faults.crash_at(3, 150);
        faults.join_at(9, 40);
        faults.jam(JamSpec::Fixed {
            channel: 0,
            from: 10,
            to: 500,
            power: 75.0,
        });
        faults.jam(JamSpec::Random {
            t: 1,
            total: 4,
            power: 120.0,
            seed: 0xDEADBEEF,
        });
        Scenario::builder("kitchen-sink")
            .sinr(SinrParams::with_range(3.0, 1.5, 1.0, 8.0, 0.5).with_resolve(ResolveMode::fast()))
            .deployment(DeploymentSpec::Grid {
                nx: 6,
                ny: 5,
                step: 2.0,
                jitter: 0.25,
            })
            .area(BoundingBox::new(
                Point::new(-1.0, -2.0),
                Point::new(12.0, 11.0),
            ))
            .mobility(MobilitySpec::Convoy {
                groups: 3,
                speed: 0.2,
                spread: 1.5,
                pause: 7,
            })
            .fading(FadingSpec::dropping(0.05, 0.2, 400.0))
            .churn(ChurnSpec::Random {
                join_fraction: 0.2,
                join_window: (1, 50),
                crash_fraction: 0.1,
                crash_window: (100, 200),
            })
            .faults(faults)
            .channels(4)
            .max_slots(2_000)
            .shards(3)
            .maintenance(crate::spec::MaintenanceSpec {
                every: 150,
                handover_hysteresis: 1.4,
                rebuild_threshold: 0.3,
            })
            .obs(crate::spec::ObsSpec {
                enabled: true,
                channel_stream: false,
            })
            .build()
    }

    #[test]
    fn full_scenario_round_trips_exactly() {
        let s = full_scenario();
        let text = s.to_toml();
        let back = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(back, s, "\n--- emitted TOML ---\n{text}");
    }

    #[test]
    fn emitted_text_is_stable_under_reemission() {
        let s = full_scenario();
        let text = s.to_toml();
        let text2 = Scenario::from_toml_str(&text).unwrap().to_toml();
        assert_eq!(text, text2);
    }

    #[test]
    fn minimal_scenario_uses_defaults() {
        let s = Scenario::from_toml_str(
            "name = \"tiny\"\n[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n",
        )
        .unwrap();
        assert_eq!(s.name, "tiny");
        assert_eq!(s.channels, 8);
        assert_eq!(s.max_slots, 10_000);
        assert_eq!(s.params, SinrParams::default());
        assert_eq!(s.mobility, MobilitySpec::Static);
        assert!(s.fading.is_none());
        assert_eq!(s.churn, ChurnSpec::None);
        assert!(s.faults.is_trivial());
    }

    #[test]
    fn engine_table_defaults_round_trip_and_validation() {
        let base = "name = \"e\"\n[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n";
        // Absent table: sharding off, and the emitter omits the table.
        let s = Scenario::from_toml_str(base).unwrap();
        assert_eq!(s.shards, 0);
        assert!(!s.to_toml().contains("[engine]"));
        // Present table round-trips.
        let s = Scenario::from_toml_str(&format!("{base}[engine]\nshards = 4\n")).unwrap();
        assert_eq!(s.shards, 4);
        let back = Scenario::from_toml_str(&s.to_toml()).unwrap();
        assert_eq!(back, s);
        // Out-of-range shard counts are rejected with the field path.
        let e = Scenario::from_toml_str(&format!("{base}[engine]\nshards = 1000\n")).unwrap_err();
        assert_eq!(e.path, "engine.shards");
        assert!(e.message.contains("at most"), "{e}");
        // Unknown keys are rejected.
        let e = Scenario::from_toml_str(&format!("{base}[engine]\nthreads = 4\n")).unwrap_err();
        assert_eq!(e.path, "engine.threads");
    }

    #[test]
    fn deprecated_schedule_flags_are_accepted_ignored_and_not_reemitted() {
        let file = |flags: (&str, &str)| {
            format!(
                "name = \"old\"\n{}[engine]\nshards = 4\n{}[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n",
                flags.0, flags.1
            )
        };
        let with = Scenario::from_toml_str(&file(("par_channels = true\n", "par_shards = true\n")))
            .unwrap();
        let without = Scenario::from_toml_str(&file(("", ""))).unwrap();
        assert_eq!(with, without);
        assert_eq!(with.shards, 4);
        let emitted = with.to_toml();
        assert_eq!(emitted, without.to_toml());
        assert!(!emitted.contains("par_"), "{emitted}");
        // An `[engine]` table that held only the deprecated flag vanishes.
        let bare = Scenario::from_toml_str(
            "name = \"old\"\n[engine]\npar_shards = true\n[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n",
        )
        .unwrap();
        assert!(!bare.to_toml().contains("[engine]"));
        // Still type-checked: the keys are tolerated, not free-form.
        let e = Scenario::from_toml_str(&file(("par_channels = 1\n", ""))).unwrap_err();
        assert_eq!(e.path, "par_channels");
    }

    #[test]
    fn sinr_range_back_solves_power() {
        let s = Scenario::from_toml_str(
            "name = \"r\"\n[sinr]\nrange = 10.0\n[deployment]\nkind = \"uniform\"\nn = 10\nside = 5.0\n",
        )
        .unwrap();
        assert!((s.params.transmission_range() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_and_range_are_exclusive() {
        let e = Scenario::from_toml_str(
            "name = \"r\"\n[sinr]\npower = 768.0\nrange = 8.0\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "sinr.range");
        assert!(e.message.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn unknown_field_rejected_with_line_and_path() {
        let src = "name = \"x\"\n[sinr]\nalpha = 3.0\nalphaa = 4.0\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n";
        let e = Scenario::from_toml_str(src).unwrap_err();
        assert_eq!(e.path, "sinr.alphaa");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn missing_deployment_rejected() {
        let e = Scenario::from_toml_str("name = \"x\"\n").unwrap_err();
        assert_eq!(e.path, "deployment");
        assert!(e.message.contains("missing required table"), "{e}");
    }

    #[test]
    fn physics_validation_is_field_qualified() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[sinr]\nalpha = 1.5\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "sinr.alpha");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("exceed 2"), "{e}");
    }

    #[test]
    fn clamp_whose_peak_power_overflows_is_rejected() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[sinr]\nalpha = 3.0\nmin_dist = 1e-120\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "sinr.min_dist");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("must be finite"), "{e}");
    }

    #[test]
    fn bad_resolve_mode_rejected() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[sinr]\nresolve = \"warp\"\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "sinr.resolve");
        assert!(e.message.contains("warp"), "{e}");
    }

    #[test]
    fn cutoff_factor_requires_fast() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[sinr]\ncutoff_factor = 2.0\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "sinr.cutoff_factor");
        assert!(e.message.contains("fast"), "{e}");
    }

    #[test]
    fn explicit_deployment_points_round_trip() {
        let s = Scenario::builder("pts")
            .deployment(DeploymentSpec::Explicit(vec![
                Point::new(0.5, -1.25),
                Point::new(3.0, 4.0),
            ]))
            .build();
        let back = Scenario::from_toml_str(&s.to_toml()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn malformed_point_names_element_index() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[deployment]\nkind = \"explicit\"\npoints = [[1.0, 2.0], [3.0]]\n",
        )
        .unwrap_err();
        assert!(e.path.contains("points[1]"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn churn_window_order_checked() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n\
             [churn]\nkind = \"random\"\njoin_fraction = 0.5\njoin_window = [50, 10]\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "churn.join_window");
        assert_eq!(e.line, 9);
        assert!(e.message.contains("precedes"), "{e}");
    }

    #[test]
    fn jam_kind_errors_carry_index() {
        let e = Scenario::from_toml_str(
            "name = \"x\"\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n\
             [[faults.jam]]\nkind = \"sonic\"\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "faults.jam[0].kind");
        assert_eq!(e.line, 7);
    }

    #[test]
    fn maintenance_defaults_and_validation() {
        let base = "name = \"m\"\n[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n";
        let s = Scenario::from_toml_str(&format!("{base}[maintenance]\nevery = 50\n")).unwrap();
        let m = s.maintenance.unwrap();
        assert_eq!(m.every, 50);
        assert_eq!(m.handover_hysteresis, 1.25);
        assert_eq!(m.rebuild_threshold, 0.5);
        // A scenario without the table has no policy.
        assert!(Scenario::from_toml_str(base).unwrap().maintenance.is_none());

        let e = Scenario::from_toml_str(&format!("{base}[maintenance]\nevery = 0\n")).unwrap_err();
        assert_eq!(e.path, "maintenance.every");
        assert!(e.message.contains("at least 1"), "{e}");
        let e = Scenario::from_toml_str(&format!(
            "{base}[maintenance]\nevery = 10\nhandover_hysteresis = 0.5\n"
        ))
        .unwrap_err();
        assert_eq!(e.path, "maintenance.handover_hysteresis");
        let e = Scenario::from_toml_str(&format!(
            "{base}[maintenance]\nevery = 10\nrebuild_threshold = 1.5\n"
        ))
        .unwrap_err();
        assert_eq!(e.path, "maintenance.rebuild_threshold");
    }

    #[test]
    fn obs_table_defaults_round_trip_and_validation() {
        let base = "name = \"o\"\n[deployment]\nkind = \"line\"\nn = 4\nspacing = 2.0\n";
        // Absent table: no request, and the emitter omits the table.
        let s = Scenario::from_toml_str(base).unwrap();
        assert!(s.obs.is_none());
        assert!(!s.to_toml().contains("[obs]"));
        // Empty table takes the defaults and round-trips.
        let s = Scenario::from_toml_str(&format!("{base}[obs]\n")).unwrap();
        let o = s.obs.unwrap();
        assert!(o.enabled);
        assert!(o.channel_stream);
        let back = Scenario::from_toml_str(&s.to_toml()).unwrap();
        assert_eq!(back, s);
        // Explicit values round-trip.
        let s = Scenario::from_toml_str(&format!(
            "{base}[obs]\nenabled = false\nchannel_stream = false\n"
        ))
        .unwrap();
        let o = s.obs.unwrap();
        assert!(!o.enabled);
        assert!(!o.channel_stream);
        assert_eq!(Scenario::from_toml_str(&s.to_toml()).unwrap(), s);
        // Unknown keys are rejected with the field path.
        let e = Scenario::from_toml_str(&format!("{base}[obs]\nverbose = true\n")).unwrap_err();
        assert_eq!(e.path, "obs.verbose");
    }

    #[test]
    fn adversary_tables_round_trip() {
        let jam = Scenario::builder("tj")
            .deployment(DeploymentSpec::Uniform { n: 20, side: 8.0 })
            .channels(4)
            .adversary(AdversarySpec::TrackingJammer {
                epoch: 40,
                radius: 2.5,
                speed: 0.15,
                channel: Some(2),
            })
            .build();
        let text = jam.to_toml();
        assert!(text.contains("[adversary]"), "{text}");
        assert_eq!(Scenario::from_toml_str(&text).unwrap(), jam);
        // Channel-less jammer omits the key and still round-trips.
        let all = Scenario::builder("tj2")
            .deployment(DeploymentSpec::Uniform { n: 20, side: 8.0 })
            .adversary(AdversarySpec::TrackingJammer {
                epoch: 25,
                radius: 2.0,
                speed: 0.1,
                channel: None,
            })
            .build();
        let text = all.to_toml();
        assert!(!text.contains("channel = "), "{text}");
        assert_eq!(Scenario::from_toml_str(&text).unwrap(), all);
        let fading = Scenario::builder("cf")
            .deployment(DeploymentSpec::Uniform { n: 20, side: 8.0 })
            .adversary(AdversarySpec::CorrelatedFading {
                p_degrade: 0.02,
                p_recover: 0.25,
                correlation: 0.6,
                bad: ChannelCondition::dropped(90.0),
            })
            .build();
        assert_eq!(Scenario::from_toml_str(&fading.to_toml()).unwrap(), fading);
    }

    #[test]
    fn adversary_validation_is_field_qualified() {
        let base = "name = \"a\"\n[deployment]\nkind = \"uniform\"\nn = 4\nside = 4.0\n";
        let e = Scenario::from_toml_str(&format!(
            "{base}[adversary]\nkind = \"tracking-jammer\"\nepoch = 0\nradius = 2.0\nspeed = 0.1\n"
        ))
        .unwrap_err();
        assert_eq!(e.path, "adversary.epoch");
        let e = Scenario::from_toml_str(
            "name = \"a\"\nchannels = 4\n[deployment]\nkind = \"uniform\"\nn = 4\nside = 4.0\n\
             [adversary]\nkind = \"tracking-jammer\"\nepoch = 10\n\
             radius = 2.0\nspeed = 0.1\nchannel = 9\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "adversary.channel");
        assert!(e.message.contains("out of range"), "{e}");
        let e = Scenario::from_toml_str(&format!(
            "{base}[adversary]\nkind = \"correlated-fading\"\np_degrade = 0.1\np_recover = 0.2\n\
             correlation = 1.5\npower = 10.0\n"
        ))
        .unwrap_err();
        assert_eq!(e.path, "adversary.correlation");
        let e =
            Scenario::from_toml_str(&format!("{base}[adversary]\nkind = \"emp\"\n")).unwrap_err();
        assert_eq!(e.path, "adversary.kind");
        assert!(e.message.contains("emp"), "{e}");
    }

    #[test]
    fn duty_cycle_table_round_trips_and_validates() {
        let base = "name = \"d\"\n[deployment]\nkind = \"line\"\nn = 6\nspacing = 2.0\n";
        let s =
            Scenario::from_toml_str(&format!("{base}[duty_cycle]\nperiod = 8\non = 6\n")).unwrap();
        let d = s.duty_cycle.unwrap();
        assert_eq!((d.period, d.on, d.stride, d.nodes), (8, 6, 1, None));
        assert_eq!(Scenario::from_toml_str(&s.to_toml()).unwrap(), s);
        let s = Scenario::from_toml_str(&format!(
            "{base}[duty_cycle]\nperiod = 10\non = 7\nstride = 3\nnodes = 4\n"
        ))
        .unwrap();
        assert_eq!(s.duty_cycle.unwrap().nodes, Some(4));
        assert_eq!(Scenario::from_toml_str(&s.to_toml()).unwrap(), s);

        let e = Scenario::from_toml_str(&format!("{base}[duty_cycle]\nperiod = 0\non = 0\n"))
            .unwrap_err();
        assert_eq!(e.path, "duty_cycle.period");
        let e = Scenario::from_toml_str(&format!("{base}[duty_cycle]\nperiod = 4\non = 9\n"))
            .unwrap_err();
        assert_eq!(e.path, "duty_cycle.on");
        assert!(e.message.contains("exceed"), "{e}");
    }

    #[test]
    fn random_jam_validated_against_channel_count() {
        // `total` beyond the scenario's channel count is rejected with the
        // indexed field path, not deferred to a runtime panic.
        let e = Scenario::from_toml_str(
            "name = \"x\"\nchannels = 4\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n\
             [[faults.jam]]\nkind = \"random\"\nt = 1\ntotal = 9\npower = 10.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "faults.jam[0].total");
        assert!(e.message.contains("only 4"), "{e}");
        // So is an adversary strength exceeding the channels it draws from.
        let e = Scenario::from_toml_str(
            "name = \"x\"\nchannels = 4\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n\
             [[faults.jam]]\nkind = \"random\"\nt = 3\ntotal = 2\npower = 10.0\n",
        )
        .unwrap_err();
        assert_eq!(e.path, "faults.jam[0].t");
        assert!(e.message.contains("cannot jam 3 of 2"), "{e}");
        // The boundary case total == channels stays valid.
        let s = Scenario::from_toml_str(
            "name = \"x\"\nchannels = 4\n[deployment]\nkind = \"uniform\"\nn = 1\nside = 1.0\n\
             [[faults.jam]]\nkind = \"random\"\nt = 2\ntotal = 4\npower = 10.0\n",
        )
        .unwrap();
        assert_eq!(s.faults.jams().len(), 1);
    }

    #[test]
    fn u64_seed_round_trips_at_extremes() {
        let mut faults = FaultPlan::none();
        faults.jam(JamSpec::Random {
            t: 1,
            total: 2,
            power: 1.0,
            seed: u64::MAX,
        });
        let s = Scenario::builder("big-seed").faults(faults).build();
        let back = Scenario::from_toml_str(&s.to_toml()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("mca_toml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kitchen_sink.toml");
        let s = full_scenario();
        s.save(&path).unwrap();
        let back = Scenario::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_error_names_the_file() {
        let e = Scenario::load("/nonexistent/dir/x.toml").unwrap_err();
        assert!(e.to_string().contains("x.toml"), "{e}");
    }
}

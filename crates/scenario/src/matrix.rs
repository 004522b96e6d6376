//! `[matrix]` sweep expansion: one TOML file → a named [`TrialSet`].
//!
//! A sweep file is an ordinary scenario file (see `docs/SCENARIO_FORMAT.md`)
//! plus an optional `[matrix]` table describing the axes to sweep:
//!
//! ```toml
//! name = "sweep-base"
//! channels = 4
//! [deployment]
//! kind = "uniform"
//! n = 50
//! side = 8.0
//!
//! [matrix]
//! seeds = 3                       # count (derived) — or an explicit list
//! exclude = [{ n = 100, channels = 1 }]
//! [matrix.axes]
//! n = [50, 100]                   # list, or { from = 50, to = 200, step = 50 }
//! channels = [1, 4]
//! ```
//!
//! Expansion is deterministic and order-stable: combinations enumerate
//! with `n` as the outermost axis, then `channels`, `speed`, `fading`,
//! each axis's values in file order; every combination becomes one
//! scenario whose name is the base name plus one suffix per swept axis
//! (`-n100-c4-v0.2-p0.05`). `exclude` filters are partial combinations —
//! a combination is dropped when *any* filter matches it on every axis
//! the filter names (filters compose as an OR of ANDs). The expanded
//! scenarios × seeds form the [`TrialSet`] that `experiments sweep`
//! executes and journals.
//!
//! Validation follows the scenario loader's discipline: every error
//! carries the source line and the dotted path of the offending field
//! (`matrix.axes.speed`, `matrix.exclude[1].n`, …), and axes are checked
//! against the base scenario at decode time — an `n` axis requires a
//! deployment kind with a rewritable node count, `speed` requires mobility,
//! `fading` requires a base `[fading]` table to rescale.

use crate::runner::{TrialSet, TrialSetError};
use crate::spec::{DeploymentSpec, MobilitySpec, Scenario};
use crate::toml::ScenarioFileError;
use mca_analysis::trial_seed;
use mca_serde::{parse, Fields, FromToml, Kind, Table, TomlError, Value};
use std::path::Path;

/// Default master seed for derived seed lists.
const DEFAULT_MASTER_SEED: u64 = 0xC0DE;

/// The seed axis of a matrix: a count of derived seeds, or an explicit list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedsSpec {
    /// `seeds = N`: the first `N` seeds of the [`trial_seed`] stream for
    /// the matrix's master seed.
    Count(u64),
    /// `seeds = [..]`: exactly these seeds, in file order.
    List(Vec<u64>),
}

/// One spanned axis: which parameter it rewrites and the values to sweep.
///
/// Axes are stored in canonical expansion order (`n`, `channels`, `speed`,
/// `fading`); each value list is non-empty with distinct values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixAxes {
    /// Node counts (rewrites the deployment's `n`).
    pub n: Option<Vec<usize>>,
    /// Channel counts.
    pub channels: Option<Vec<u16>>,
    /// Mobility speeds (waypoint `speed_max` / convoy `speed`).
    pub speed: Option<Vec<f64>>,
    /// Fading degradation probabilities (`fading.p_degrade`).
    pub fading: Option<Vec<f64>>,
}

/// A partial combination to drop from the expansion. A combination matches
/// when every axis the filter names has exactly the filter's value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExcludeFilter {
    /// Matches combinations with this node count.
    pub n: Option<usize>,
    /// Matches combinations with this channel count.
    pub channels: Option<u16>,
    /// Matches combinations with this speed.
    pub speed: Option<f64>,
    /// Matches combinations with this fading probability.
    pub fading: Option<f64>,
}

/// One expanded combination: the value each swept axis takes (`None` for
/// axes the matrix does not sweep).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Combo {
    /// Node count, if the `n` axis is swept.
    pub n: Option<usize>,
    /// Channel count, if the `channels` axis is swept.
    pub channels: Option<u16>,
    /// Speed, if the `speed` axis is swept.
    pub speed: Option<f64>,
    /// Fading probability, if the `fading` axis is swept.
    pub fading: Option<f64>,
}

impl ExcludeFilter {
    fn matches(&self, c: &Combo) -> bool {
        fn axis<T: PartialEq>(filter: &Option<T>, combo: &Option<T>) -> bool {
            match filter {
                None => true,
                Some(want) => combo.as_ref() == Some(want),
            }
        }
        axis(&self.n, &c.n)
            && axis(&self.channels, &c.channels)
            && axis(&self.speed, &c.speed)
            && axis(&self.fading, &c.fading)
    }
}

/// The decoded `[matrix]` table of a sweep file.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Master seed the [`SeedsSpec::Count`] form derives from.
    pub master_seed: u64,
    /// The seed axis.
    pub seeds: SeedsSpec,
    /// The parameter axes.
    pub axes: MatrixAxes,
    /// Combination filters (OR of ANDs).
    pub exclude: Vec<ExcludeFilter>,
}

impl Default for MatrixSpec {
    /// The matrix of a file without a `[matrix]` table: the base scenario
    /// itself, one derived seed.
    fn default() -> Self {
        MatrixSpec {
            master_seed: DEFAULT_MASTER_SEED,
            seeds: SeedsSpec::Count(1),
            axes: MatrixAxes::default(),
            exclude: Vec::new(),
        }
    }
}

impl MatrixSpec {
    /// The seed list of the matrix, in trial order.
    pub fn seeds(&self) -> Vec<u64> {
        match &self.seeds {
            SeedsSpec::Count(c) => (0..*c).map(|i| trial_seed(self.master_seed, i)).collect(),
            SeedsSpec::List(v) => v.clone(),
        }
    }

    /// Every surviving combination, in canonical expansion order
    /// (`n` outermost, then `channels`, `speed`, `fading`; values in file
    /// order), with `exclude` filters applied.
    pub fn combos(&self) -> Vec<Combo> {
        // An unswept axis contributes the single value `None`, so the
        // nested loops below degrade gracefully to fewer dimensions.
        fn lane<T: Copy>(axis: &Option<Vec<T>>) -> Vec<Option<T>> {
            match axis {
                None => vec![None],
                Some(vs) => vs.iter().map(|&v| Some(v)).collect(),
            }
        }
        let mut out = Vec::new();
        for &n in &lane(&self.axes.n) {
            for &channels in &lane(&self.axes.channels) {
                for &speed in &lane(&self.axes.speed) {
                    for &fading in &lane(&self.axes.fading) {
                        let combo = Combo {
                            n,
                            channels,
                            speed,
                            fading,
                        };
                        if !self.exclude.iter().any(|f| f.matches(&combo)) {
                            out.push(combo);
                        }
                    }
                }
            }
        }
        out
    }

    /// Expands the matrix over `base` into concrete scenarios, one per
    /// surviving combination, each named `base-<suffixes>`.
    ///
    /// # Panics
    ///
    /// Panics if an axis does not apply to `base` (an `n` axis over a
    /// `grid`/`explicit` deployment, `speed` over static mobility, or
    /// `fading` without a base `[fading]` table). The TOML decoder
    /// validates applicability up front, so this only concerns
    /// hand-constructed specs.
    pub fn expand(&self, base: &Scenario) -> Vec<Scenario> {
        self.combos()
            .iter()
            .map(|combo| apply_combo(base, combo))
            .collect()
    }

    /// Decodes a `[matrix]` value, validating axes against `base`.
    pub fn decode(value: &Value, base: &Scenario) -> Result<Self, TomlError> {
        let mut f = Fields::new(value, "matrix")?;
        let master_seed = f.opt_u64("master_seed")?.unwrap_or(DEFAULT_MASTER_SEED);
        let seeds = decode_seeds(&mut f)?;
        let axes = match f.opt_fields("axes")? {
            None => MatrixAxes::default(),
            Some(mut af) => {
                let axes = decode_axes(&mut af, base)?;
                af.finish()?;
                axes
            }
        };
        let exclude = decode_excludes(&mut f, &axes)?;
        f.finish()?;
        Ok(MatrixSpec {
            master_seed,
            seeds,
            axes,
            exclude,
        })
    }
}

fn decode_seeds(f: &mut Fields<'_>) -> Result<SeedsSpec, TomlError> {
    let path = f.key_path("seeds");
    let Some(v) = f.take("seeds") else {
        return Ok(SeedsSpec::Count(1));
    };
    match &v.kind {
        Kind::Int(_) => {
            let count = v.as_u64(&path)?;
            if count == 0 {
                return Err(TomlError::field(v.line, path, "must be at least 1"));
            }
            Ok(SeedsSpec::Count(count))
        }
        Kind::Array(items) => {
            if items.is_empty() {
                return Err(TomlError::field(
                    v.line,
                    path,
                    "seed list must not be empty",
                ));
            }
            let mut seeds = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let seed = item.as_u64(&format!("{path}[{i}]"))?;
                if seeds.contains(&seed) {
                    return Err(TomlError::field(
                        item.line,
                        format!("{path}[{i}]"),
                        format!("duplicate seed {seed}: trial keys must be unique"),
                    ));
                }
                seeds.push(seed);
            }
            Ok(SeedsSpec::List(seeds))
        }
        _ => Err(TomlError::field(
            v.line,
            path,
            format!("expected a count or a seed list, found {}", v.kind_name()),
        )),
    }
}

fn decode_axes(af: &mut Fields<'_>, base: &Scenario) -> Result<MatrixAxes, TomlError> {
    let n = int_axis(af, "n")?;
    if let Some(values) = &n {
        let rewritable = matches!(
            base.deployment,
            DeploymentSpec::Uniform { .. }
                | DeploymentSpec::Disk { .. }
                | DeploymentSpec::Line { .. }
                | DeploymentSpec::Corridor { .. }
        );
        if !rewritable {
            return Err(af.invalid(
                "n",
                "the base deployment kind has no rewritable node count \
                 (use uniform, disk, line, or corridor)",
            ));
        }
        if let Some(&zero) = values.iter().find(|&&v| v == 0) {
            return Err(af.invalid("n", format!("node counts must be at least 1, got {zero}")));
        }
    }
    let channels = int_axis(af, "channels")?;
    if let Some(values) = &channels {
        if values.iter().any(|&c| c == 0 || c > u16::MAX as u64) {
            return Err(af.invalid("channels", "channel counts must lie in [1, 65535]"));
        }
    }
    let speed = float_axis(af, "speed")?;
    if let Some(values) = &speed {
        if matches!(base.mobility, MobilitySpec::Static) {
            return Err(af.invalid(
                "speed",
                "the base scenario has static mobility; add a [mobility] table to sweep speed",
            ));
        }
        if let Some(&bad) = values.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
            return Err(af.invalid("speed", format!("speeds must be positive, got {bad}")));
        }
    }
    let fading = float_axis(af, "fading")?;
    if let Some(values) = &fading {
        if base.fading.is_none() {
            return Err(af.invalid(
                "fading",
                "the base scenario has no [fading] table to sweep p_degrade over",
            ));
        }
        if let Some(&bad) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(af.invalid(
                "fading",
                format!("fading probabilities must lie in [0, 1], got {bad}"),
            ));
        }
    }
    Ok(MatrixAxes {
        n: n.map(|v| v.into_iter().map(|x| x as usize).collect()),
        channels: channels.map(|v| v.into_iter().map(|x| x as u16).collect()),
        speed,
        fading,
    })
}

/// Decodes an integer axis: a value list, or a `{ from, to, step }` range.
fn int_axis(af: &mut Fields<'_>, key: &str) -> Result<Option<Vec<u64>>, TomlError> {
    let path = af.key_path(key);
    let Some(v) = af.take(key) else {
        return Ok(None);
    };
    let values = match &v.kind {
        Kind::Array(items) => {
            let mut values = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                values.push(item.as_u64(&format!("{path}[{i}]"))?);
            }
            values
        }
        Kind::Table(_) => {
            let mut rf = Fields::new(v, &path)?;
            let from = rf.u64("from")?;
            let to = rf.u64("to")?;
            let step = rf.opt_u64("step")?.unwrap_or(1);
            if step == 0 {
                return Err(rf.invalid("step", "must be at least 1"));
            }
            if to < from {
                return Err(rf.invalid("to", format!("range end {to} lies before start {from}")));
            }
            rf.finish()?;
            (from..=to).step_by(step as usize).collect()
        }
        _ => {
            return Err(TomlError::field(
                v.line,
                path,
                format!(
                    "expected a value list or a {{ from, to, step }} range, found {}",
                    v.kind_name()
                ),
            ))
        }
    };
    no_duplicates(&path, v.line, &values, |a, b| a == b)?;
    Ok(Some(values))
}

/// Decodes a float axis (value lists only — float ranges would accumulate
/// representation error and silently change the swept grid).
fn float_axis(af: &mut Fields<'_>, key: &str) -> Result<Option<Vec<f64>>, TomlError> {
    let path = af.key_path(key);
    let Some(v) = af.take(key) else {
        return Ok(None);
    };
    let items = v.as_array(&path)?;
    let mut values = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        values.push(item.as_f64(&format!("{path}[{i}]"))?);
    }
    no_duplicates(&path, v.line, &values, |a, b| a.to_bits() == b.to_bits())?;
    Ok(Some(values))
}

fn no_duplicates<T: std::fmt::Display>(
    path: &str,
    line: usize,
    values: &[T],
    eq: impl Fn(&T, &T) -> bool,
) -> Result<(), TomlError> {
    if values.is_empty() {
        return Err(TomlError::field(line, path, "axis must not be empty"));
    }
    for (i, v) in values.iter().enumerate() {
        if values[..i].iter().any(|p| eq(p, v)) {
            return Err(TomlError::field(
                line,
                path,
                format!("duplicate axis value {v}: expanded scenario names must be unique"),
            ));
        }
    }
    Ok(())
}

fn decode_excludes(f: &mut Fields<'_>, axes: &MatrixAxes) -> Result<Vec<ExcludeFilter>, TomlError> {
    let items = f.opt_array("exclude")?;
    let mut filters = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("matrix.exclude[{i}]");
        let mut ef = Fields::new(item, &path)?;
        let filter = ExcludeFilter {
            n: ef.opt_u64("n")?.map(|v| v as usize),
            channels: ef.opt_u16("channels")?,
            speed: ef.opt_f64("speed")?,
            fading: ef.opt_f64("fading")?,
        };
        ef.finish()?;
        if filter == ExcludeFilter::default() {
            return Err(TomlError::field(
                item.line,
                path,
                "empty exclude filter would drop every combination",
            ));
        }
        // A filter naming an unswept axis can never match — reject it as
        // the typo it almost certainly is.
        let unswept = [
            (filter.n.is_some() && axes.n.is_none(), "n"),
            (
                filter.channels.is_some() && axes.channels.is_none(),
                "channels",
            ),
            (filter.speed.is_some() && axes.speed.is_none(), "speed"),
            (filter.fading.is_some() && axes.fading.is_none(), "fading"),
        ]
        .into_iter()
        .find_map(|(bad, name)| bad.then_some(name));
        if let Some(axis) = unswept {
            return Err(TomlError::field(
                item.line,
                path,
                format!("filter names axis `{axis}`, which the matrix does not sweep"),
            ));
        }
        filters.push(filter);
    }
    Ok(filters)
}

/// Applies one combination to a copy of `base`, suffixing the name per
/// swept axis (`-n100-c4-v0.2-p0.05`).
fn apply_combo(base: &Scenario, combo: &Combo) -> Scenario {
    let mut s = base.clone();
    if let Some(n) = combo.n {
        s.deployment = match s.deployment {
            DeploymentSpec::Uniform { side, .. } => DeploymentSpec::Uniform { n, side },
            DeploymentSpec::Disk { radius, .. } => DeploymentSpec::Disk { n, radius },
            DeploymentSpec::Line { spacing, .. } => DeploymentSpec::Line { n, spacing },
            DeploymentSpec::Corridor { length, width, .. } => {
                DeploymentSpec::Corridor { n, length, width }
            }
            other => panic!(
                "matrix n axis applied to deployment without a rewritable node count: {other:?}"
            ),
        };
        s.name.push_str(&format!("-n{n}"));
    }
    if let Some(c) = combo.channels {
        s.channels = c;
        s.name.push_str(&format!("-c{c}"));
    }
    if let Some(v) = combo.speed {
        s.mobility = match s.mobility {
            MobilitySpec::RandomWaypoint {
                speed_min, pause, ..
            } => MobilitySpec::RandomWaypoint {
                speed_min: speed_min.min(v),
                speed_max: v,
                pause,
            },
            MobilitySpec::Convoy {
                groups,
                spread,
                pause,
                ..
            } => MobilitySpec::Convoy {
                groups,
                speed: v,
                spread,
                pause,
            },
            MobilitySpec::Static => {
                panic!("matrix speed axis applied to a scenario with static mobility")
            }
        };
        s.name.push_str(&format!("-v{v}"));
    }
    if let Some(p) = combo.fading {
        let fading = s
            .fading
            .as_mut()
            .expect("matrix fading axis applied to a scenario without a [fading] table");
        fading.p_degrade = p;
        s.name.push_str(&format!("-p{p}"));
    }
    s
}

/// A loaded sweep file: the base scenario plus its (possibly default)
/// matrix.
///
/// Plain scenario files load as sweep files with the default matrix (the
/// base scenario itself under one derived seed), so every consumer of
/// scenario files — `experiments sweep`, `check-scenarios` — can use this
/// loader uniformly.
#[derive(Debug, Clone)]
pub struct SweepFile {
    /// The base scenario (the file without its `[matrix]` table).
    pub base: Scenario,
    /// The sweep matrix (default when the file has none).
    pub matrix: MatrixSpec,
}

impl SweepFile {
    /// Parses a sweep file from TOML text.
    pub fn from_toml_str(src: &str) -> Result<Self, TomlError> {
        SweepFile::from_toml_table(&parse(src)?)
    }

    /// Decodes a sweep file from its parsed root table.
    pub fn from_toml_table(root: &Table) -> Result<Self, TomlError> {
        // The scenario decoder consumes every field and rejects unknown
        // keys, so the matrix table is split out of a copy of the root
        // before the base scenario decodes.
        let mut scenario_root = root.clone();
        let mut matrix_value = None;
        scenario_root.entries.retain(|(key, value)| {
            if key == "matrix" {
                matrix_value = Some(value.clone());
                false
            } else {
                true
            }
        });
        let base = <Scenario as FromToml>::from_toml_table(&scenario_root)?;
        let matrix = match &matrix_value {
            Some(v) => MatrixSpec::decode(v, &base)?,
            None => MatrixSpec::default(),
        };
        Ok(SweepFile { base, matrix })
    }

    /// Loads a sweep file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioFileError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| ScenarioFileError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        SweepFile::from_toml_str(&text).map_err(|error| ScenarioFileError::Parse {
            path: path.to_path_buf(),
            error,
        })
    }

    /// Whether the file actually sweeps anything (has a non-default matrix).
    pub fn is_sweep(&self) -> bool {
        self.matrix != MatrixSpec::default()
    }

    /// The expanded scenarios, in expansion order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.matrix.expand(&self.base)
    }

    /// The full [`TrialSet`] of the sweep (expanded scenarios × seeds).
    pub fn trial_set(&self) -> Result<TrialSet, TrialSetError> {
        TrialSet::new(self.scenarios(), self.matrix.seeds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "\
name = \"sweep-base\"
channels = 2
max_slots = 200

[deployment]
kind = \"uniform\"
n = 20
side = 6.0

[mobility]
kind = \"random-waypoint\"
speed_min = 0.05
speed_max = 0.1
pause = 2

[fading]
p_degrade = 0.02
p_recover = 0.3
power = 100.0
";

    fn with_matrix(matrix: &str) -> String {
        format!("{BASE}\n{matrix}")
    }

    #[test]
    fn plain_scenario_files_load_with_default_matrix() {
        let sweep = SweepFile::from_toml_str(BASE).unwrap();
        assert!(!sweep.is_sweep());
        assert_eq!(sweep.base.name, "sweep-base");
        let set = sweep.trial_set().unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.seeds(), &[trial_seed(0xC0DE, 0)]);
        assert_eq!(set.scenarios()[0].name, "sweep-base");
    }

    #[test]
    fn expansion_order_is_n_major_then_channels_speed_fading() {
        let src = with_matrix(
            "[matrix]\nseeds = 2\n\n[matrix.axes]\nn = [10, 20]\nchannels = [1, 4]\nspeed = [0.1]\nfading = [0.05]\n",
        );
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        assert!(sweep.is_sweep());
        let names: Vec<String> = sweep.scenarios().iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "sweep-base-n10-c1-v0.1-p0.05",
                "sweep-base-n10-c4-v0.1-p0.05",
                "sweep-base-n20-c1-v0.1-p0.05",
                "sweep-base-n20-c4-v0.1-p0.05",
            ]
        );
        let set = sweep.trial_set().unwrap();
        assert_eq!(set.len(), 8, "4 combos × 2 seeds");
        // The combo parameters really land on the scenarios.
        let scenarios = sweep.scenarios();
        assert_eq!(scenarios[0].len(), 10);
        assert_eq!(scenarios[1].channels, 4);
        match scenarios[0].mobility {
            MobilitySpec::RandomWaypoint {
                speed_min,
                speed_max,
                ..
            } => {
                assert_eq!(speed_max, 0.1);
                assert_eq!(speed_min, 0.05);
            }
            ref m => panic!("unexpected mobility {m:?}"),
        }
        assert_eq!(scenarios[0].fading.as_ref().unwrap().p_degrade, 0.05);
    }

    #[test]
    fn range_axis_expands_inclusively() {
        let src = with_matrix("[matrix.axes]\nn = { from = 10, to = 50, step = 20 }\n");
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        let ns: Vec<usize> = sweep.scenarios().iter().map(|s| s.len()).collect();
        assert_eq!(ns, vec![10, 30, 50]);
    }

    #[test]
    fn explicit_seed_list_is_used_verbatim() {
        let src = with_matrix("[matrix]\nseeds = [7, 3, 11]\n");
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        assert_eq!(sweep.matrix.seeds(), vec![7, 3, 11]);
    }

    #[test]
    fn master_seed_steers_derived_seeds() {
        let src = with_matrix("[matrix]\nseeds = 3\nmaster_seed = 99\n");
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        let expect: Vec<u64> = (0..3).map(|i| trial_seed(99, i)).collect();
        assert_eq!(sweep.matrix.seeds(), expect);
    }

    #[test]
    fn excludes_drop_matching_combos() {
        let src = with_matrix(
            "[matrix.axes]\nn = [10, 20]\nchannels = [1, 4]\n\n[[matrix.exclude]]\nn = 20\nchannels = 1\n",
        );
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        let names: Vec<String> = sweep.scenarios().iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "sweep-base-n10-c1",
                "sweep-base-n10-c4",
                "sweep-base-n20-c4"
            ]
        );
        // The inline-array form parses to the same filters.
        let inline = with_matrix(
            "[matrix]\nexclude = [{ n = 20, channels = 1 }]\n[matrix.axes]\nn = [10, 20]\nchannels = [1, 4]\n",
        );
        let sweep2 = SweepFile::from_toml_str(&inline).unwrap();
        assert_eq!(sweep2.matrix.exclude, sweep.matrix.exclude);
    }

    #[test]
    fn partial_excludes_filter_every_matching_combo() {
        let src = with_matrix(
            "[matrix]\nexclude = [{ n = 10 }]\n[matrix.axes]\nn = [10, 20]\nchannels = [1, 4]\n",
        );
        let sweep = SweepFile::from_toml_str(&src).unwrap();
        let names: Vec<String> = sweep.scenarios().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["sweep-base-n20-c1", "sweep-base-n20-c4"]);
    }

    #[test]
    fn error_paths_and_lines_follow_the_loader_discipline() {
        // Unknown axis.
        let src = with_matrix("[matrix.axes]\nfrequency = [1]\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.frequency");
        assert!(e.message.contains("unknown field"), "{e}");

        // n over a grid deployment.
        let src = "\
name = \"grid\"
[deployment]
kind = \"grid\"
nx = 3
ny = 3
step = 1.0

[matrix.axes]
n = [10]
";
        let e = SweepFile::from_toml_str(src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.n");
        assert!(e.message.contains("no rewritable node count"), "{e}");

        // speed without mobility.
        let src = "\
name = \"static\"
[deployment]
kind = \"line\"
n = 4
spacing = 1.0

[matrix.axes]
speed = [0.1]
";
        let e = SweepFile::from_toml_str(src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.speed");
        assert!(e.message.contains("static mobility"), "{e}");

        // fading without a base fading table.
        let src = "\
name = \"nofade\"
[deployment]
kind = \"line\"
n = 4
spacing = 1.0

[matrix.axes]
fading = [0.1]
";
        let e = SweepFile::from_toml_str(src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.fading");
        assert!(e.message.contains("no [fading] table"), "{e}");

        // Bad range.
        let src = with_matrix("[matrix.axes]\nn = { from = 50, to = 10 }\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.n.to");
        assert!(e.message.contains("before start"), "{e}");

        // Zero-step range.
        let src = with_matrix("[matrix.axes]\nn = { from = 1, to = 5, step = 0 }\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.n.step");

        // Duplicate axis value.
        let src = with_matrix("[matrix.axes]\nchannels = [4, 4]\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.axes.channels");
        assert!(e.message.contains("duplicate axis value 4"), "{e}");

        // Duplicate explicit seed.
        let src = with_matrix("[matrix]\nseeds = [1, 1]\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.seeds[1]");
        assert!(e.message.contains("duplicate seed"), "{e}");

        // Zero seed count.
        let src = with_matrix("[matrix]\nseeds = 0\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.seeds");

        // Exclude naming an unswept axis.
        let src = with_matrix("[matrix]\nexclude = [{ speed = 0.1 }]\n[matrix.axes]\nn = [1, 2]\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.exclude[0]");
        assert!(e.message.contains("does not sweep"), "{e}");

        // Empty exclude filter.
        let src = with_matrix("[matrix]\nexclude = [{}]\n[matrix.axes]\nn = [1, 2]\n");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "matrix.exclude[0]");
        assert!(e.message.contains("every combination"), "{e}");

        // Errors in the scenario half still carry their own paths.
        let src = with_matrix("[matrix]\nseeds = 2\n").replace("side = 6.0", "side = -1.0");
        let e = SweepFile::from_toml_str(&src).unwrap_err();
        assert_eq!(e.path, "deployment.side");
    }

    #[test]
    fn expansion_is_deterministic() {
        let src =
            with_matrix("[matrix]\nseeds = 2\n[matrix.axes]\nn = [10, 20]\nspeed = [0.1, 0.2]\n");
        let a = SweepFile::from_toml_str(&src).unwrap();
        let b = SweepFile::from_toml_str(&src).unwrap();
        let names = |s: &SweepFile| -> Vec<String> {
            s.scenarios().iter().map(|sc| sc.name.clone()).collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.matrix.seeds(), b.matrix.seeds());
        let keys_a: Vec<_> = a.trial_set().unwrap().keys().collect();
        let keys_b: Vec<_> = b.trial_set().unwrap().keys().collect();
        assert_eq!(keys_a, keys_b);
    }
}

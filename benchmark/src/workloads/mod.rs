//! The measurement harness shared by the four workloads.
//!
//! A workload is a closed loop with one client: set up (several times, so
//! `setup_s` is a median), then repeat one fixed piece of work until the
//! measuring window closes, then check the outputs. With tracing off the
//! harness reports the end-to-end metrics; the traced pass alternates
//! untraced and traced repetitions (their difference is the tracing
//! overhead), adds one single-thread repetition for the pool's parallel
//! efficiency, and asks the workload for its per-layer metrics.

pub mod churn_repair;
pub mod dense_engine;
pub mod paper_pipeline;
pub mod probes;
pub mod sweep_small;

use crate::host;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// How often a full run sets up (the median is `setup_s`).
const SETUP_REPEATS: usize = 5;
/// Fewest timed repetitions of a full run.
const MIN_REPS: usize = 3;
/// Share of the window the traced pass spends on repetitions; the rest
/// is left for the single-thread repetition and the layer probes.
const TRACED_WINDOW_SHARE: f64 = 0.5;
/// Most failure messages kept (every failure is still counted).
const MAX_MESSAGES: usize = 12;

/// What a workload run was asked to do.
pub struct Ctx<'a> {
    /// Every input is generated from this.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Reduced sizes: schema and checks only.
    pub smoke: bool,
    /// Whether this is the traced pass.
    pub traced: bool,
    /// Pool size in effect.
    pub threads: usize,
    /// Scratch directory for generated inputs and outputs.
    pub tmp: &'a Path,
    /// The span store (recording only inside traced repetitions).
    pub tracer: &'a Tracer,
}

/// Why a repetition runs; only [`RepKind::Timed`] ones feed the
/// end-to-end samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// Tracing off, full pool: the measured case.
    Timed,
    /// Tracing on.
    Traced,
    /// Tracing off, one-thread pool (parallel-efficiency baseline).
    SingleThread,
}

/// Wall and CPU time and pool activity of one repetition.
#[derive(Debug, Clone)]
pub struct RepTiming {
    /// Wall seconds.
    pub wall_s: f64,
    /// Wall seconds of each step of the repetition, in order (the same
    /// steps in every repetition of a workload).
    pub steps_s: Vec<f64>,
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Pool counter deltas: tasks, steals, parks, injected.
    pub pool: [u64; 4],
}

/// Everything the harness measured around a workload's repetitions.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Untraced repetitions.
    pub reps: Vec<RepTiming>,
    /// Traced repetitions (traced pass only).
    pub traced_reps: Vec<RepTiming>,
    /// Wall seconds of one repetition on a one-thread pool.
    pub single_thread_wall_s: Option<f64>,
}

impl RunStats {
    /// The repetition wall time reported as `wall_s`.
    pub fn wall_s(&self) -> f64 {
        undisturbed_wall_s(&self.reps)
    }

    /// The repetition CPU time reported as `cpu_s`: `wall_s` times the
    /// CPU-to-wall ratio of the timed repetitions (CPU time is only
    /// readable per repetition, at 10 ms ticks; the ratio does not depend
    /// on how fast the host happens to run).
    pub fn cpu_s(&self) -> f64 {
        let ratios: Vec<f64> = self.reps.iter().map(|r| r.cpu_s / r.wall_s).collect();
        self.wall_s() * stats::median(&ratios)
    }
}

/// The wall time of one repetition with every step at its fastest
/// observed speed.
///
/// Every repetition of a workload is the same sequence of steps (slots,
/// epochs, pipeline calls; a workload that cannot see inside its
/// repetition has one step). Interference from other tenants of the host
/// only ever adds time — this sandbox's CPU speed is bimodal, ~25% apart,
/// in stretches of 1–20 s — so a step's minimum over the window's
/// repetitions estimates the program's own cost, and the sum of those
/// minima repeats from run to run where the median, and even the fastest
/// whole repetition, flip between the two modes. Time outside the steps
/// is taken at its smallest too.
pub fn undisturbed_wall_s(reps: &[RepTiming]) -> f64 {
    let steps = reps.iter().map(|r| r.steps_s.len()).min().unwrap_or(0);
    let step_minima: f64 = (0..steps)
        .map(|j| stats::min(&reps.iter().map(|r| r.steps_s[j]).collect::<Vec<_>>()))
        .sum();
    let outside: Vec<f64> = reps
        .iter()
        .map(|r| (r.wall_s - r.steps_s[..steps].iter().sum::<f64>()).max(0.0))
        .collect();
    step_minima + stats::min(&outside)
}

/// Output-check tally: operations attempted, operations failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations (or whole-run invariants) that failed a check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` checked operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations with one message.
    pub fn fail(&mut self, n: u64, message: impl Into<String>) {
        self.failed += n.max(1);
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message.into());
        }
    }

    /// Fails one operation unless `ok`.
    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, message());
        }
    }
}

/// Metric values by name, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Estimated share of a repetition's CPU time per layer (traced pass).
    pub layer_shares: Vec<(&'static str, f64)>,
    /// Free-form remarks for the report (unsupported percentiles, …).
    pub notes: Vec<String>,
}

impl Metrics {
    /// Records `name = value`, backed by `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the metric tables: every reported
    /// number must be declared in `spec.rs`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            crate::spec::metric(name).is_some(),
            "metric `{name}` is not declared in spec.rs"
        );
        self.values.insert(name, (value, samples));
    }

    /// The recorded `(value, samples)` of `name`.
    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values.get(name).copied()
    }

    /// Records a percentile metric, noting when the sample count cannot
    /// support it (fewer than ten samples beyond it).
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        self.set(name, stats::percentile(samples, p), samples.len());
        if stats::samples_beyond(samples.len(), p) < 10 {
            let supported = stats::highest_supported_percentile(samples.len())
                .map_or("none".to_string(), |p| format!("p{p}"));
            self.notes.push(format!(
                "{name}: {} samples leave fewer than ten beyond p{p} (highest supported: {supported})",
                samples.len()
            ));
        }
    }
}

/// The result of one workload pass.
#[derive(Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// Output-check tally.
    pub checks: Checks,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Wall seconds of every untraced repetition, in run order.
    pub rep_wall_s: Vec<f64>,
}

/// One workload: generated inputs, a repeatable piece of work, checks.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// Whether the work runs on the pool (so a one-thread repetition
    /// measures parallel efficiency).
    const POOLED: bool;

    /// Generates every input from `ctx.seed`, builds the state the
    /// repetitions run on and warms up once. Timed as set-up.
    ///
    /// # Errors
    ///
    /// Returns a description of an input that could not be generated.
    fn setup(ctx: &Ctx<'_>) -> Result<Self, String>;

    /// One repetition of fixed work; records spans when the tracer is on.
    /// Returns the wall seconds of each of its steps (the same steps, in
    /// the same order, every time; empty when the repetition is opaque).
    ///
    /// # Errors
    ///
    /// Returns a description of an operation that failed outright.
    fn rep(&mut self, ctx: &Ctx<'_>, kind: RepKind, tag: u32) -> Result<Vec<f64>, String>;

    /// Checks the outputs of every repetition run so far.
    fn check(&mut self, ctx: &Ctx<'_>, checks: &mut Checks);

    /// Adds the workload's own metrics (traced pass: per-layer ones too).
    fn report(&mut self, ctx: &Ctx<'_>, run: &RunStats, out: &mut Metrics);
}

fn pool_counters() -> [u64; 4] {
    let s = rayon::pool_stats();
    [s.tasks, s.steals, s.parks, s.injected]
}

fn timed_rep<W: Workload>(
    w: &mut W,
    ctx: &Ctx<'_>,
    kind: RepKind,
    tag: u32,
) -> Result<RepTiming, String> {
    ctx.tracer.set_enabled(kind == RepKind::Traced);
    if kind == RepKind::SingleThread {
        rayon::set_num_threads(1);
    }
    let pool0 = pool_counters();
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let done = w.rep(ctx, kind, tag);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let pool1 = pool_counters();
    ctx.tracer.set_enabled(false);
    rayon::set_num_threads(ctx.threads);
    Ok(RepTiming {
        wall_s,
        steps_s: done?,
        cpu_s,
        pool: std::array::from_fn(|i| pool1[i] - pool0[i]),
    })
}

/// Retires the worker pool so the next parallel operation starts a fresh
/// one at `threads` (pool start-up is part of set-up).
fn restart_pool(threads: usize) {
    rayon::set_num_threads(if threads == 1 { 2 } else { 1 });
    rayon::set_num_threads(threads);
}

/// Runs workload `W` under `ctx` and gathers its metrics.
///
/// # Errors
///
/// Returns a description when set-up or a repetition fails outright (an
/// output that is merely wrong is counted in the outcome's checks).
pub fn run<W: Workload>(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut run = RunStats::default();
    let setups = if ctx.smoke { 1 } else { SETUP_REPEATS };
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        restart_pool(ctx.threads);
        let t = Instant::now();
        workload = Some(W::setup(ctx)?);
        run.setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");

    let min_reps = if ctx.smoke { 1 } else { MIN_REPS };
    let window = Instant::now();
    let mut tag = 0;
    if ctx.traced {
        let budget = ctx.seconds * TRACED_WINDOW_SHARE;
        while run.traced_reps.is_empty() || window.elapsed().as_secs_f64() < budget {
            run.reps.push(timed_rep(&mut w, ctx, RepKind::Timed, tag)?);
            run.traced_reps
                .push(timed_rep(&mut w, ctx, RepKind::Traced, tag + 1)?);
            tag += 2;
        }
        if W::POOLED && ctx.threads > 1 {
            let single = timed_rep(&mut w, ctx, RepKind::SingleThread, tag)?;
            run.single_thread_wall_s = Some(single.wall_s);
        }
    } else {
        while run.reps.len() < min_reps || window.elapsed().as_secs_f64() < ctx.seconds {
            run.reps.push(timed_rep(&mut w, ctx, RepKind::Timed, tag)?);
            tag += 1;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    let mut checks = Checks::default();
    w.check(ctx, &mut checks);

    let mut m = Metrics::default();
    let (wall_s, cpu_s) = (run.wall_s(), run.cpu_s());
    m.set("setup_s", stats::median(&run.setups), run.setups.len());
    m.set("wall_s", wall_s, run.reps.len());
    m.set("cpu_s", cpu_s, run.reps.len());
    m.set("peak_rss_mb", peak_rss_mb, 1);
    let failed_share = checks.failed as f64 / checks.attempted.max(1) as f64;
    m.set("failed_share", failed_share, checks.attempted as usize);
    if ctx.traced {
        let names = ["pool.tasks", "pool.steals", "pool.parks", "pool.injected"];
        for (i, name) in names.into_iter().enumerate() {
            let deltas: Vec<f64> = run.reps.iter().map(|r| r.pool[i] as f64).collect();
            m.set(name, stats::median(&deltas), deltas.len());
        }
        m.set("pool.cpu_over_wall", cpu_s / wall_s, run.reps.len());
        m.set(
            "pool.scope_roundtrip_ns_per_task",
            probes::scope_roundtrip_ns_per_task(),
            probes::SCOPE_TASKS,
        );
        match run.single_thread_wall_s {
            Some(single) => m.set(
                "pool.parallel_efficiency",
                single / (ctx.threads as f64 * wall_s),
                1,
            ),
            None if W::POOLED => m.notes.push(format!(
                "pool.parallel_efficiency: unmeasured ({} pool thread)",
                ctx.threads
            )),
            None => {}
        }
        m.set(
            "trace.overhead_share",
            (undisturbed_wall_s(&run.traced_reps) - wall_s) / wall_s,
            run.traced_reps.len(),
        );
    }
    w.report(ctx, &run, &mut m);
    Ok(Outcome {
        workload: W::NAME,
        checks,
        metrics: m,
        rep_wall_s: run.reps.iter().map(|r| r.wall_s).collect(),
    })
}

/// Runs the workload called `name`.
///
/// # Errors
///
/// Returns a description when the name is unknown or the run fails.
pub fn run_named(name: &str, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    match name {
        sweep_small::SweepSmall::NAME => run::<sweep_small::SweepSmall>(ctx),
        dense_engine::DenseEngine::NAME => run::<dense_engine::DenseEngine>(ctx),
        paper_pipeline::PaperPipeline::NAME => run::<paper_pipeline::PaperPipeline>(ctx),
        churn_repair::ChurnRepair::NAME => run::<churn_repair::ChurnRepair>(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Median wall nanoseconds of `f` over `repeats` calls.
pub fn median_ns(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Turns per-layer CPU nanoseconds into shares of their sum, largest
/// first.
pub fn shares(ns_by_layer: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let total: f64 = ns_by_layer.iter().map(|(_, ns)| ns.max(0.0)).sum();
    let mut out: Vec<(&'static str, f64)> = ns_by_layer
        .iter()
        .filter(|(_, ns)| *ns > 0.0)
        .map(|(layer, ns)| (*layer, ns / total))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, cpu_s: f64, steps_s: &[f64]) -> RepTiming {
        RepTiming {
            wall_s,
            cpu_s,
            steps_s: steps_s.to_vec(),
            pool: [0; 4],
        }
    }

    #[test]
    fn undisturbed_wall_sums_each_steps_minimum() {
        // Three repetitions of three steps; the host slowed a different
        // part of each. 0.1 s of every repetition lies outside the steps.
        let mut run = RunStats {
            reps: vec![
                rep(3.5, 7.0, &[1.0, 1.3, 1.1]),
                rep(3.4, 6.8, &[1.3, 1.0, 1.0]),
                rep(3.7, 7.4, &[1.2, 1.2, 1.2]),
            ],
            ..RunStats::default()
        };
        assert!((run.wall_s() - (1.0 + 1.0 + 1.0 + 0.1)).abs() < 1e-12);
        // CPU time keeps the repetitions' CPU-to-wall ratio (2 threads busy).
        assert!((run.cpu_s() - 2.0 * 3.1).abs() < 1e-12);
        // An opaque repetition is its own single step: the fastest one.
        run.reps = vec![rep(2.9, 2.9, &[]), rep(2.7, 2.7, &[]), rep(3.1, 3.1, &[])];
        assert!((run.wall_s() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn shares_sort_and_normalise() {
        let s = shares(&[
            ("radio", 30.0),
            ("sinr", 60.0),
            ("obs", 0.0),
            ("geom", 10.0),
        ]);
        assert_eq!(
            s.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            ["sinr", "radio", "geom"]
        );
        assert!((s[0].1 - 0.6).abs() < 1e-12);
    }
}

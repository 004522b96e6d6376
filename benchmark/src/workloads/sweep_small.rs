//! `sweep-small`: a generated `[matrix]` file — waypoint mobility plus
//! Gilbert–Elliot fading, `n ∈ {20,40,80,160}` × `channels ∈ {1,2,4,8}` ×
//! three speeds × two fading levels × 25 seeds = 2400 trials of 400
//! Exact-mode slots — through `mca_bench::run_sweep_file` with trial
//! batches on the pool, each repetition into a fresh directory.
//!
//! This is the service path users run. Nearly all of a trial is
//! `Engine::step` on a small world, so the workload isolates the fixed
//! per-slot cost of `mca-radio`/`mca-core`, `mca-scenario`'s environment
//! stepping, trial-level pool batching (an 8× spread in trial size makes
//! batch stragglers visible) and the JSONL sink; `mca-sinr` does little.
//!
//! The traced pass cannot look inside `run_sweep_file`, so it rebuilds
//! the same sweep from the layers' public functions with a span around
//! each call; the check that its output is byte-identical to the
//! untraced repetitions keeps that rebuild honest.

use super::probes::{self, flood_cfg, flood_protocols, ratio};
use super::{median_ns, shares, Checks, Ctx, Metrics, RepKind, RunStats, Workload};
use crate::spec::SWEEP_SMALL;
use crate::trace::{self, Local, SpanId, Tracer, ROOT};
use mca_bench::sweep::trial_record;
use mca_bench::{
    run_sweep_file, scenario_flood_trial, serve_once, ScenarioTrial, ServeConfig, SweepConfig,
};
use mca_radio::Engine;
use mca_scenario::{
    builtin_scenarios, CollectSink, DeploymentSpec, EnvironmentModel, FadingSpec, KeyedTrial,
    MobilitySpec, Scenario, SweepFile, TrialSet, TrialSink, World,
};
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Trials run sequentially and compared with the parallel stream's head;
/// also the warm-up and the slice the overhead probes use.
const HEAD_TRIALS: usize = 240;
/// Back-to-back (sweep, bare trial loop) pairs behind
/// `bench.sweep_overhead_us_per_trial`. The difference is ~1% of either
/// side today, so the figure reads 0 to a few microseconds; a sync or lock
/// per record would lift it far above that noise.
const OVERHEAD_PAIRS: usize = 11;
/// Resume passes timed for `bench.resume_us_per_trial`.
const RESUME_PASSES: usize = 15;

/// Sums over the trials of one traced repetition.
#[derive(Debug, Default, Clone, Copy)]
struct TrialTotals {
    trials: u64,
    nodes: u64,
    node_slots: u64,
    listens: u64,
    /// Σ over trials of listens × transmissions ÷ slots: the
    /// (listener, transmitter) pairs an Exact-mode scan visits.
    listen_tx_pairs: f64,
    receptions: u64,
    busy_failures: u64,
    coverage: f64,
}

/// The workload's state.
pub struct SweepSmall {
    input: PathBuf,
    text: String,
    base: Scenario,
    sweep: SweepFile,
    set: TrialSet,
    head: usize,
    /// The sweep configuration of every repetition run, in order.
    reps: Vec<SweepConfig>,
    traced_totals: Option<TrialTotals>,
}

/// The base world every combination rewrites.
fn base_scenario(slots: u64) -> Scenario {
    Scenario::builder(SWEEP_SMALL)
        .deployment(DeploymentSpec::Uniform { n: 40, side: 20.0 })
        .mobility(MobilitySpec::RandomWaypoint {
            speed_min: 0.05,
            speed_max: 0.2,
            pause: 5,
        })
        .fading(FadingSpec::interference(0.05, 0.15, 500.0))
        .channels(4)
        .max_slots(slots)
        .build()
}

/// The matrix file: the base scenario's canonical TOML plus the axes.
fn matrix_text(base: &Scenario, seed: u64, seeds: u64) -> String {
    format!(
        "{}\n[matrix]\nmaster_seed = {seed}\nseeds = {seeds}\n\n[matrix.axes]\n\
         n = [20, 40, 80, 160]\nchannels = [1, 2, 4, 8]\nspeed = [0.1, 0.2, 0.4]\n\
         fading = [0.02, 0.1]\n",
        base.to_toml()
    )
}

fn sweep_config(
    dir: &Path,
    stem: &str,
    limit: Option<usize>,
    fresh: bool,
    parallel: bool,
) -> SweepConfig {
    SweepConfig {
        out_path: dir.join(format!("{stem}.trials.jsonl")),
        journal_path: dir.join(format!("{stem}.journal")),
        limit,
        fresh,
        parallel,
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One trial of the traced pass: the result plus what the engine counted.
struct TracedTrial {
    trial: ScenarioTrial,
    nodes: u64,
    listens: u64,
    transmissions: u64,
}

/// `scenario_flood_trial`, rebuilt from public layer calls with a span
/// around each (kept equal to the original by the byte-identity check).
fn traced_trial(
    tracer: &Tracer,
    parent: SpanId,
    tag: u32,
    scenario: &Scenario,
    seed: u64,
) -> TracedTrial {
    let mut spans = tracer.local();
    let trial = spans.start("bench.trial", parent, tag);
    let n = scenario.len();
    let cfg = flood_cfg(scenario.channels, scenario.max_slots);
    let deploy = spans.span("geom.deploy", trial.id, tag, |_, _| {
        scenario.deployment_for(seed)
    });
    let faults = spans.span("scenario.faults", trial.id, tag, |_, _| {
        scenario.faults_for(seed)
    });
    let mut engine = spans.span("radio.engine_new", trial.id, tag, |_, _| {
        Engine::new(
            scenario.params,
            deploy.into_points(),
            flood_protocols(n, cfg),
            seed,
        )
        .with_faults(faults.clone())
        .with_par_channels(scenario.par_channels)
        .with_shards(scenario.shards)
        .with_par_shards(scenario.par_shards)
    });
    let (mut env, mut env_rng) = spans.span("scenario.env_new", trial.id, tag, |_, _| {
        scenario.environment_for(seed)
    });
    let env_static = env.is_static();
    while engine.slot() < scenario.max_slots && !engine.all_done() {
        if !env_static {
            let step = spans.start("scenario.env_step", trial.id, tag);
            let slot = engine.slot();
            let (positions, conditions, faults) = engine.env_parts();
            env.step(
                slot,
                &mut World {
                    positions,
                    conditions,
                    faults,
                    rng: &mut env_rng,
                },
            );
            spans.end(step);
        }
        let step = spans.start("radio.step", trial.id, tag);
        engine.step();
        spans.end(step);
    }
    // Scoring, as `scenario_flood_trial` does it: the achievable maximum
    // is the highest id that ever participated; only live nodes count.
    let slots = engine.slot();
    let joins: HashMap<u32, u64> = faults.join_events().into_iter().collect();
    let crashes: HashMap<u32, u64> = faults.crash_events().into_iter().collect();
    let participated = |i: u32| {
        let join = joins.get(&i).copied().unwrap_or(0);
        let crash = crashes.get(&i).copied().unwrap_or(u64::MAX);
        join < slots && crash > join
    };
    let expect = (0..n as u32)
        .filter(|&i| participated(i))
        .map(|i| i as i64)
        .max()
        .unwrap_or(0);
    let (mut live, mut holders) = (0usize, 0usize);
    for (i, p) in engine.protocols().iter().enumerate() {
        if faults.is_absent(i as u32, slots.saturating_sub(1)) {
            continue;
        }
        live += 1;
        holders += (*p.value() == expect) as usize;
    }
    let m = engine.metrics();
    let out = TracedTrial {
        trial: ScenarioTrial {
            coverage: if live == 0 {
                0.0
            } else {
                holders as f64 / live as f64
            },
            full_coverage: live > 0 && holders == live,
            receptions: m.receptions,
            busy_failures: m.busy_failures,
            env_drops: m.env_drops,
            slots,
        },
        nodes: n as u64,
        listens: m.listens,
        transmissions: m.transmissions,
    };
    spans.end(trial);
    out
}

/// The sweep's streaming sink, rebuilt with spans: one flushed record
/// line, then one flushed journal line, per trial.
struct TracedSink<'t> {
    out: File,
    journal: File,
    spans: Local<'t>,
    parent: SpanId,
    tag: u32,
    totals: TrialTotals,
    error: Option<std::io::Error>,
}

impl TrialSink<TracedTrial> for TracedSink<'_> {
    fn record(&mut self, keyed: KeyedTrial<TracedTrial>) {
        if self.error.is_some() {
            return;
        }
        let (nodes, listens, transmissions) = (
            keyed.result.nodes,
            keyed.result.listens,
            keyed.result.transmissions,
        );
        let keyed = KeyedTrial {
            key: keyed.key,
            result: keyed.result.trial,
        };
        let line = self
            .spans
            .span("obs.trial_line", self.parent, self.tag, |_, _| {
                mca_obs::trial_line(&trial_record(&keyed))
            });
        let write = self.spans.start("bench.sink_write", self.parent, self.tag);
        let done = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .and_then(|()| self.journal.write_all(keyed.key.journal_line().as_bytes()))
            .and_then(|()| self.journal.write_all(b"\n"))
            .and_then(|()| self.journal.flush());
        self.spans.end(write);
        if let Err(e) = done {
            self.error = Some(e);
            return;
        }
        let t = &mut self.totals;
        t.trials += 1;
        t.nodes += nodes;
        t.node_slots += nodes * keyed.result.slots;
        t.listens += listens;
        t.listen_tx_pairs += ratio(
            listens as f64 * transmissions as f64,
            keyed.result.slots as f64,
        );
        t.receptions += keyed.result.receptions;
        t.busy_failures += keyed.result.busy_failures;
        t.coverage += keyed.result.coverage;
    }
}

impl SweepSmall {
    /// A fresh directory, and the full parallel sweep into it.
    fn rep_config(&self, ctx: &Ctx<'_>, tag: u32) -> Result<SweepConfig, String> {
        let dir = ctx.tmp.join(format!("rep-{tag}"));
        fresh_dir(&dir)?;
        Ok(sweep_config(&dir, SWEEP_SMALL, None, true, true))
    }

    /// `run_sweep_file` rebuilt from public layer calls, with spans.
    fn traced_sweep(
        &self,
        ctx: &Ctx<'_>,
        files: &SweepConfig,
        tag: u32,
    ) -> Result<TrialTotals, String> {
        let mut spans = ctx.tracer.local();
        let root = spans.start("bench.sweep", ROOT, tag);
        let text = spans
            .span("bench.read_input", root.id, tag, |_, _| {
                std::fs::read_to_string(&self.input)
            })
            .map_err(|e| format!("{}: {e}", self.input.display()))?;
        let sweep = spans
            .span("scenario.load", root.id, tag, |_, _| {
                SweepFile::from_toml_str(&text)
            })
            .map_err(|e| e.to_string())?;
        let set = spans
            .span("scenario.expand", root.id, tag, |_, _| sweep.trial_set())
            .map_err(|e| e.to_string())?;
        let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let run = spans.start("scenario.run_range", root.id, tag);
        let mut sink = TracedSink {
            out: create(&files.out_path)?,
            journal: create(&files.journal_path)?,
            spans: ctx.tracer.local(),
            parent: run.id,
            tag,
            totals: TrialTotals::default(),
            error: None,
        };
        set.run_range(
            0..set.len(),
            true,
            |scenario, seed| traced_trial(ctx.tracer, run.id, tag, scenario, seed),
            &mut sink,
        );
        spans.end(run);
        spans.end(root);
        match sink.error {
            Some(e) => Err(format!("{}: {e}", files.out_path.display())),
            None => Ok(sink.totals),
        }
    }

    /// Resumes over the completed first repetition; returns the summary.
    fn resume(&self) -> Result<mca_bench::SweepSummary, String> {
        let first = self.reps.first().ok_or("no repetition ran")?;
        let cfg = SweepConfig {
            fresh: false,
            ..first.clone()
        };
        run_sweep_file(&self.input, &cfg).map_err(|e| e.to_string())
    }
}

impl Workload for SweepSmall {
    const NAME: &'static str = SWEEP_SMALL;
    const POOLED: bool = true;

    fn setup(ctx: &Ctx<'_>) -> Result<Self, String> {
        let (slots, seeds, head) = if ctx.smoke {
            (100, 1, 24)
        } else {
            (400, 25, HEAD_TRIALS)
        };
        let base = base_scenario(slots);
        let text = matrix_text(&base, ctx.seed, seeds);
        let input = ctx.tmp.join(format!("{SWEEP_SMALL}.toml"));
        std::fs::write(&input, &text).map_err(|e| format!("{}: {e}", input.display()))?;
        let sweep = SweepFile::load(&input).map_err(|e| e.to_string())?;
        let set = sweep.trial_set().map_err(|e| e.to_string())?;
        // Warm-up: the head of the sweep on the pool, which also starts it.
        let warm = ctx.tmp.join("warm-up");
        fresh_dir(&warm)?;
        run_sweep_file(
            &input,
            &sweep_config(&warm, SWEEP_SMALL, Some(head), true, true),
        )
        .map_err(|e| e.to_string())?;
        Ok(SweepSmall {
            input,
            text,
            base,
            sweep,
            set,
            head,
            reps: Vec::new(),
            traced_totals: None,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, kind: RepKind, tag: u32) -> Result<Vec<f64>, String> {
        let cfg = self.rep_config(ctx, tag)?;
        if kind == RepKind::Traced {
            self.traced_totals = Some(self.traced_sweep(ctx, &cfg, tag)?);
        } else {
            let summary = run_sweep_file(&self.input, &cfg).map_err(|e| e.to_string())?;
            if !summary.complete || summary.executed != self.set.len() {
                return Err(format!(
                    "the sweep did not run to completion: {}",
                    summary.line()
                ));
            }
        }
        self.reps.push(cfg);
        // `run_sweep_file` is opaque: the repetition is its only step.
        Ok(Vec::new())
    }

    fn check(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let total = self.set.len();
        let reference = match self.reps.first().map(|f| read(&f.out_path)) {
            Some(Ok(bytes)) => bytes,
            Some(Err(e)) => return checks.fail(total as u64, e),
            None => return checks.fail(1, "no repetition ran"),
        };
        let reference_lines: Vec<&[u8]> = reference.split_inclusive(|&b| b == b'\n').collect();

        // Every record of the stream is a valid JSONL-v1 trial line.
        checks.attempt(total as u64);
        checks.require(reference_lines.len() == total, || {
            format!("{} record lines for {total} trials", reference_lines.len())
        });
        for (i, line) in reference_lines.iter().enumerate() {
            let text = String::from_utf8_lossy(line);
            if let Err(e) = mca_obs::validate_jsonl_line(text.trim_end()) {
                checks.fail(1, format!("record {i} is not valid JSONL-v1: {e}"));
            }
        }

        // Every repetition (traced ones included) wrote the same bytes and
        // a full journal.
        for (r, files) in self.reps.iter().enumerate() {
            if r > 0 {
                checks.attempt(total as u64);
                match read(&files.out_path) {
                    Ok(bytes) if bytes == reference => {}
                    Ok(bytes) => {
                        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                        let same = lines
                            .iter()
                            .zip(&reference_lines)
                            .filter(|(a, b)| a == b)
                            .count();
                        let differ = total.max(lines.len()) - same;
                        checks.fail(
                            differ as u64,
                            format!(
                                "repetition {r}: {differ} records differ from the first repetition"
                            ),
                        );
                    }
                    Err(e) => checks.fail(total as u64, e),
                }
            }
            match read(&files.journal_path) {
                Ok(journal) => {
                    let lines = journal.iter().filter(|&&b| b == b'\n').count();
                    checks.require(lines == total, || {
                        format!("repetition {r}: journal has {lines} lines for {total} trials")
                    });
                }
                Err(e) => checks.fail(1, e),
            }
        }

        // Resuming a completed sweep executes nothing and rewrites nothing.
        match self.resume() {
            Ok(s) => {
                checks.require(s.executed == 0 && s.skipped == total && s.complete, || {
                    format!("resume over a completed sweep re-ran trials: {}", s.line())
                });
                let unchanged = read(&self.reps[0].out_path).is_ok_and(|b| b == reference);
                checks.require(unchanged, || "resume rewrote the record stream".to_string());
            }
            Err(e) => checks.fail(1, format!("resume failed: {e}")),
        }

        // The head of the sweep, run sequentially, matches the parallel stream.
        checks.attempt(self.head as u64);
        let dir = ctx.tmp.join("sequential");
        let cfg = sweep_config(&dir, SWEEP_SMALL, Some(self.head), true, false);
        let sequential = fresh_dir(&dir)
            .and_then(|()| run_sweep_file(&self.input, &cfg).map_err(|e| e.to_string()))
            .and_then(|_| read(&cfg.out_path));
        match sequential {
            Ok(bytes) => {
                let head_len: usize = reference_lines
                    .iter()
                    .take(self.head)
                    .map(|l| l.len())
                    .sum();
                checks.require(bytes == reference[..head_len], || {
                    format!(
                        "the first {} trials differ between sequential and parallel runs",
                        self.head
                    )
                });
            }
            Err(e) => checks.fail(self.head as u64, e),
        }
    }

    fn report(&mut self, ctx: &Ctx<'_>, run: &RunStats, out: &mut Metrics) {
        let total = self.set.len();
        let wall_s = run.wall_s();
        out.set("trials_per_s", ratio(total as f64, wall_s), run.reps.len());
        // Simulated slots, as the first repetition's records state them.
        let stream = self
            .reps
            .first()
            .and_then(|f| std::fs::read_to_string(&f.out_path).ok());
        let slots: u64 = stream
            .iter()
            .flat_map(|s| s.lines())
            .filter_map(|line| {
                line.rsplit_once("\"slots\":")?
                    .1
                    .trim_end_matches('}')
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        out.set("sim_slots", slots as f64, total);
        let (true, Some(t), Some(stream)) = (ctx.traced, self.traced_totals, stream) else {
            return;
        };
        out.set("core.flood_coverage", t.coverage / t.trials as f64, total);
        out.set("sinr.listener_resolutions", t.listens as f64, total);
        out.set(
            "radio.rx_per_listen",
            ratio(t.receptions as f64, t.listens as f64),
            total,
        );
        out.set(
            "radio.busy_share",
            ratio(t.busy_failures as f64, t.listens as f64),
            total,
        );

        // Per-call costs from the traced repetitions' spans.
        let by_name = trace::totals_by_name(&ctx.tracer.spans());
        let traced_reps = run.traced_reps.len().max(1) as f64;
        let total_ns =
            |name: &str| by_name.get(name).map_or(0.0, |x| x.total_ns as f64) / traced_reps;
        let per_call = |name: &str| {
            by_name.get(name).map_or((0.0, 0), |x| {
                (ratio(x.total_ns as f64, x.count as f64), x.count as usize)
            })
        };
        let (step_ns, steps) = per_call("radio.step");
        out.set("radio.step_ns_per_slot", step_ns, steps);
        out.set(
            "scenario.env_step_ns_per_node_slot",
            ratio(total_ns("scenario.env_step"), t.node_slots as f64),
            steps,
        );
        let sim_new_ns = [
            "geom.deploy",
            "scenario.faults",
            "radio.engine_new",
            "scenario.env_new",
        ]
        .iter()
        .map(|name| total_ns(name))
        .sum::<f64>();
        out.set(
            "scenario.sim_new_ns_per_node",
            ratio(sim_new_ns, t.nodes as f64),
            total,
        );
        out.set(
            "radio.engine_new_ns_per_node",
            ratio(total_ns("radio.engine_new"), t.nodes as f64),
            total,
        );
        out.set(
            "geom.deploy_ns_per_node",
            ratio(total_ns("geom.deploy"), t.nodes as f64),
            total,
        );
        let (line_ns, lines) = per_call("obs.trial_line");
        out.set("obs.trial_line_ns", line_ns, lines);

        // Layer probes on the largest world of the matrix.
        let (big, seed) = (0..total)
            .map(|i| self.set.pair(i))
            .max_by_key(|(s, _)| (s.len(), s.channels))
            .expect("the matrix is not empty");
        let points = big.deployment_for(seed).into_points();
        let q = flood_cfg(big.channels, big.max_slots).q;
        let rp = probes::resolve_probe(&big.params, &points, q, seed);
        out.set(
            "geom.grid_build_ns_per_point",
            rp.grid_build_ns_per_point,
            rp.transmitters,
        );
        out.set(
            "sinr.index_build_ns_per_tx",
            rp.index_build_ns_per_tx,
            rp.transmitters,
        );
        out.set(
            "sinr.resolve_fast_ns_per_listener",
            rp.fast_ns_per_listener,
            rp.listeners,
        );
        out.set(
            "sinr.resolve_exact_ns_per_listener",
            rp.exact_ns_per_listener,
            rp.listeners,
        );
        let ep = probes::engine_probe(big.params, &points, seed, big.max_slots, None, |e| e);
        out.set(
            "radio.fixed_ns_per_node_slot",
            ep.fixed_ns_per_node_slot,
            big.max_slots as usize,
        );
        // Worlds differ 8x in size and an Exact scan is linear in the
        // transmitters on the channel, so the estimate counts pairs.
        let ns_per_pair = ratio(
            rp.ns_per_listener(big.params.resolve),
            rp.transmitters as f64,
        );
        let sinr_ns = t.listen_tx_pairs * ns_per_pair;
        out.set("sinr.share_est", ratio(sinr_ns, run.cpu_s() * 1e9), total);

        // Loading and expanding the matrix file.
        let load_ns = median_ns(9, || {
            black_box(SweepFile::from_toml_str(&self.text).is_ok());
        });
        out.set("scenario.load_us_per_file", load_ns / 1e3, 9);
        let expand_ns = median_ns(5, || {
            let set = self
                .sweep
                .trial_set()
                .expect("the set expanded during set-up");
            for i in 0..set.len() {
                black_box((set.pair(i), set.key_at(i)));
            }
        });
        out.set(
            "scenario.expand_ns_per_trial",
            expand_ns / total as f64,
            total,
        );

        // The keyed runner around the trial function, sequentially.
        let head = self.head;
        let in_trials = AtomicU64::new(0);
        let timed_trial = |s: &Scenario, seed: u64| {
            let t = Instant::now();
            let r = scenario_flood_trial(s, seed);
            in_trials.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r
        };
        let t0 = Instant::now();
        let mut collected = CollectSink::new();
        self.set
            .run_range(0..head, false, timed_trial, &mut collected);
        let runner_ns = t0.elapsed().as_nanos() as f64;
        black_box(&collected);
        let trial_share = ratio(in_trials.load(Ordering::Relaxed) as f64, runner_ns);
        out.set(
            "scenario.runner_overhead_share",
            (1.0 - trial_share).max(0.0),
            head,
        );

        // TOML parse and emit throughput over the generated matrix file
        // and the catalog.
        let catalog = builtin_scenarios();
        let mut texts: Vec<String> = catalog.iter().map(|e| e.file_contents()).collect();
        texts.push(self.text.clone());
        let parse_bytes: usize = texts.iter().map(String::len).sum();
        let parse_ns = median_ns(9, || {
            for text in &texts {
                black_box(mca_serde::parse(text).is_ok());
            }
        });
        out.set(
            "serde.parse_mb_per_s",
            ratio(parse_bytes as f64 * 1e3, parse_ns),
            texts.len(),
        );
        let mut scenarios: Vec<&Scenario> = catalog.iter().map(|e| &e.scenario).collect();
        scenarios.push(&self.base);
        let emit_bytes: usize = scenarios.iter().map(|s| s.to_toml().len()).sum();
        let emit_ns = median_ns(9, || {
            for s in &scenarios {
                black_box(s.to_toml().len());
            }
        });
        out.set(
            "serde.emit_mb_per_s",
            ratio(emit_bytes as f64 * 1e3, emit_ns),
            scenarios.len(),
        );

        // The record stream itself.
        let validate_ns = median_ns(5, || {
            for line in stream.lines() {
                black_box(mca_obs::validate_jsonl_line(line).is_ok());
            }
        });
        out.set(
            "obs.validate_ns_per_line",
            validate_ns / total as f64,
            total,
        );
        out.set(
            "obs.bytes_per_trial",
            stream.len() as f64 / total as f64,
            total,
        );
        out.set(
            "bench.out_bytes_per_s",
            ratio(stream.len() as f64, wall_s),
            run.reps.len(),
        );

        // What the sweep adds around the trial function: load, batching,
        // record + journal write and flush. Sequential, over the head.
        let dir = ctx.tmp.join("overhead");
        let cfg = sweep_config(&dir, SWEEP_SMALL, Some(head), true, false);
        if fresh_dir(&dir).is_err() {
            return;
        }
        // The two sides run back to back, so a pair shares the host's speed
        // of the moment; the median of the paired differences is the figure.
        let overhead_ns: Vec<f64> = (0..OVERHEAD_PAIRS)
            .map(|_| {
                let sweep_ns = median_ns(1, || {
                    black_box(run_sweep_file(&self.input, &cfg).is_ok());
                });
                let direct_ns = median_ns(1, || {
                    for i in 0..head {
                        let (s, seed) = self.set.pair(i);
                        black_box(scenario_flood_trial(s, seed));
                    }
                });
                sweep_ns - direct_ns
            })
            .collect();
        out.set(
            "bench.sweep_overhead_us_per_trial",
            crate::stats::median(&overhead_ns).max(0.0) / 1e3 / head as f64,
            overhead_ns.len(),
        );
        let resume_ns = median_ns(RESUME_PASSES, || {
            black_box(self.resume().is_ok());
        });
        out.set(
            "bench.resume_us_per_trial",
            resume_ns / 1e3 / total as f64,
            RESUME_PASSES,
        );

        // `serve_once` over a queue whose one input is already complete:
        // the directory scan and the done marker, beyond the resume.
        let queue = ctx.tmp.join("queue");
        let serve = ServeConfig::new(queue.clone());
        let queued = queue.join(format!("{SWEEP_SMALL}.toml"));
        let staged = fresh_dir(&queue).is_ok()
            && std::fs::write(&queued, &self.text).is_ok()
            && std::fs::copy(&self.reps[0].out_path, serve.sweep_config(&queued).out_path).is_ok()
            && std::fs::copy(
                &self.reps[0].journal_path,
                serve.sweep_config(&queued).journal_path,
            )
            .is_ok();
        if staged {
            let serve_ns = median_ns(5, || {
                let _ = std::fs::remove_file(serve.done_path(&queued));
                black_box(serve_once(&serve).is_ok());
            });
            out.set(
                "bench.serve_once_overhead_ms",
                (serve_ns - resume_ns).max(0.0) / 1e6,
                5,
            );
        }

        // Layer shares of a traced repetition's CPU time: span self times,
        // with the engine-step spans split by the resolver estimate. The
        // root span's and the runner's self time is the caller waiting for
        // the pool, not work.
        let mut by_layer: HashMap<&'static str, f64> = HashMap::new();
        for (name, totals) in &by_name {
            if matches!(*name, "bench.sweep" | "scenario.run_range") {
                continue;
            }
            *by_layer.entry(trace::layer_of(name)).or_default() +=
                totals.self_ns as f64 / traced_reps;
        }
        let radio = by_layer.entry("radio").or_default();
        let sinr_ns = sinr_ns.min(*radio);
        *radio -= sinr_ns;
        by_layer.insert("sinr", sinr_ns);
        out.layer_shares = shares(&by_layer.into_iter().collect::<Vec<_>>());
    }
}

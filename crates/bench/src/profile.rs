//! The profiling harness behind `experiments profile`.
//!
//! Runs the flood max-aggregation workload (the same one behind
//! `--scenario`) with an `mca-obs` recorder attached, then renders where
//! the engine's slot time goes: one row per span kind with wall, self,
//! and p50/p95/max durations, what one resolved listen cost in time and in
//! power evaluations, what the run held in memory (the process's peak
//! RSS and the staging arena's high water), the engine's counters, and
//! the per-phase slot coverage.
//!
//! The coverage figure is also the harness's acceptance gate: the phase
//! spans (event drain, gather, stage, resolve, deliver) must account for
//! at least [`COVERAGE_GATE`] of measured slot wall time, or the
//! instrumentation has a hole — `experiments profile` exits non-zero.
//! The default world is a 100k-node dense deployment (16 channels, 8×8
//! shards, fast resolve): twice the benchmark's `dense-engine` world, the
//! regime where nearly every slot runs its units on the pool.

use crate::scenario_run::{scenario_flood_trial_observed, ScenarioTrial};
use mca_analysis::Table;
use mca_obs::{Recorder, Report, SpanKind};
use mca_scenario::{DeploymentSpec, Scenario};
use mca_sinr::{ResolveMode, SinrParams};

/// Minimum fraction of slot wall time the phase spans must cover.
pub const COVERAGE_GATE: f64 = 0.95;

/// Trial seed of every profile (fixed so two profiles of one scenario
/// describe the same world).
pub const PROFILE_SEED: u64 = 7;

/// The default profile world: 100k nodes at 4 nodes per unit², 16
/// channels, 8×8 shards, Fast-mode reception.
pub fn default_profile_scenario(slots: u64) -> Scenario {
    let n = 100_000;
    Scenario::builder("profile-dense-100k")
        .deployment(DeploymentSpec::Uniform {
            n,
            side: (n as f64 / 4.0).sqrt(),
        })
        .sinr(SinrParams::default().with_resolve(ResolveMode::fast()))
        .channels(16)
        .max_slots(slots)
        .shards(8)
        .build()
}

/// One profiled run: the trial outcome, the raw recorder (for JSONL
/// export), and its aggregated report.
pub struct ProfileRun {
    /// The workload's outcome (bit-identical to an unobserved run).
    pub trial: ScenarioTrial,
    /// The raw record streams.
    pub recorder: Recorder,
    /// Per-kind statistics derived from `recorder`.
    pub report: Report,
    /// What those nanoseconds buy — the evaluation count of one listen,
    /// off the reference walk over a slot sampled from the same world
    /// ([`crate::flip_audit::sampled_walk`]).
    pub walk: Option<(f64, f64, usize)>,
    /// The process's peak resident set in kB when the run ended (`VmHWM`
    /// of `/proc/self/status`, read before the reference walk builds its
    /// own world); `None` where the kernel offers no such line.
    pub peak_rss_kb: Option<u64>,
}

impl ProfileRun {
    /// Fraction of slot wall time covered by the phase spans (0 when no
    /// slot spans were recorded).
    pub fn slot_coverage(&self) -> f64 {
        self.report.slot_coverage().unwrap_or(0.0)
    }

    /// Whether the coverage gate holds.
    pub fn gate_ok(&self) -> bool {
        self.slot_coverage() >= COVERAGE_GATE
    }

    /// The staging arena's high water: the most transmitter positions and
    /// the most listener positions (one `shard_rx` entry rides with each)
    /// any slot staged — the per-slot sums over the channel-slots that had
    /// both, the only ones staged. Neither exceeds the node count, however
    /// many channels the world has. `None` like
    /// [`ProfileRun::resolve_cost`].
    pub fn stage_high_water(&self) -> Option<(u64, u64)> {
        let records = self.recorder.channel_records();
        let sums = records.chunk_by(|a, b| a.slot == b.slot).map(|slot| {
            let staged = slot.iter().filter(|c| c.tx > 0 && c.listens > 0);
            staged.fold((0, 0), |(tx, rx), c| {
                (tx + u64::from(c.tx), rx + u64::from(c.listens))
            })
        });
        sums.reduce(|(tx, rx), (t, r)| (tx.max(t), rx.max(r)))
            .filter(|&(tx, _)| tx > 0)
    }

    /// What the resolver kernels cost per listen, read off the records
    /// the recorder already holds: the `unit` spans' total time over the
    /// listens of every channel-slot that had a transmitter (the resolved
    /// ones; a silent channel is booked without a unit). `None` when no
    /// such channel-slot was recorded (nothing resolved, or a scenario
    /// whose `[obs]` table turned the channel stream off).
    pub fn resolve_cost(&self) -> Option<ResolveCost> {
        let unit_ns = self.report.kind(SpanKind::Unit)?.total_ns;
        let (mut channel_slots, mut listens, mut tx) = (0u64, 0u64, 0u64);
        for c in self.recorder.channel_records() {
            if c.tx > 0 && c.listens > 0 {
                channel_slots += 1;
                listens += u64::from(c.listens);
                tx += u64::from(c.tx);
            }
        }
        (channel_slots > 0).then(|| ResolveCost {
            listens,
            ns_per_listen: unit_ns as f64 / listens as f64,
            tx_per_channel: tx as f64 / channel_slots as f64,
        })
    }
}

/// The derived line of the profile: see [`ProfileRun::resolve_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolveCost {
    /// Listens resolved (on channel-slots that had a transmitter).
    pub listens: u64,
    /// Σ `unit` span ns ÷ `listens`.
    pub ns_per_listen: f64,
    /// Mean transmitters per resolved channel-slot — the set size each of
    /// those listens was resolved against.
    pub tx_per_channel: f64,
}

impl std::fmt::Display for ResolveCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resolve: {:.1} ns per listen ({} listens, {:.1} transmitters per resolved channel)",
            self.ns_per_listen, self.listens, self.tx_per_channel
        )
    }
}

/// Profiles `scenario` for trial `seed`: the flood workload with a
/// recorder attached for the whole run.
pub fn profile_scenario(scenario: &Scenario, seed: u64) -> ProfileRun {
    let (trial, recorder) = scenario_flood_trial_observed(scenario, seed);
    let peak_rss_kb = peak_rss_kb();
    let report = recorder.report();
    ProfileRun {
        trial,
        recorder,
        report,
        walk: crate::flip_audit::sampled_walk(scenario, seed),
        peak_rss_kb,
    }
}

/// `VmHWM` of `/proc/self/status`, in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Renders the profile as markdown: the per-phase breakdown (one row per
/// span kind, in the report's fixed kind order), the derived cost of one
/// resolved listen and its evaluation count, the memory line (peak RSS and
/// the staging arena's high water), then the recorder's counters and how
/// many records its retention caps discarded.
pub fn profile_table(scenario: &Scenario, run: &ProfileRun) -> String {
    let mut spans = Table::new(
        format!(
            "profile `{}`: n={}, F={}, {} slots -- phase spans cover {:.1}% of slot time",
            scenario.name,
            scenario.len(),
            scenario.channels,
            run.trial.slots,
            run.slot_coverage() * 100.0
        ),
        [
            "span", "count", "wall ms", "self ms", "p50 us", "p95 us", "max us",
        ],
    );
    for k in &run.report.kinds {
        spans.row([
            k.kind.name().to_string(),
            k.count.to_string(),
            format!("{:.2}", k.total_ns as f64 / 1e6),
            format!("{:.2}", k.self_ns as f64 / 1e6),
            format!("{:.1}", k.p50_ns as f64 / 1e3),
            format!("{:.1}", k.p95_ns as f64 / 1e3),
            format!("{:.1}", k.max_ns as f64 / 1e3),
        ]);
    }
    let mut counters = Table::new("counters", ["counter", "value"]);
    for (name, value) in &run.report.counters {
        counters.row([name.clone(), value.to_string()]);
    }
    counters.row([
        "records_dropped".to_string(),
        run.report.dropped.to_string(),
    ]);
    let resolve = match run.resolve_cost() {
        Some(cost) => cost.to_string(),
        None => "resolve: no channel with both a transmitter and a listener was recorded".into(),
    };
    let walk = match run.walk {
        Some((near, nodes, tx)) => format!(
            "walk: {near:.1} near + {nodes:.1} node evaluations per listen \
             (reference walk, one sampled slot of {tx} transmitters)"
        ),
        None => "walk: the sampled slot has no transmitter or no listener".into(),
    };
    let rss = match run.peak_rss_kb {
        Some(kb) => format!("peak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0),
        None => "peak RSS unavailable".into(),
    };
    let memory = match run.stage_high_water() {
        Some((tx, rx)) => format!(
            "memory: {rss}; staging arena high water {tx} transmitter + {rx} listener \
             positions of {} nodes",
            scenario.len()
        ),
        None => format!("memory: {rss}; nothing was staged"),
    };
    format!("{spans}\n{resolve}\n{walk}\n{memory}\n\n{counters}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_scenario::builtin_scenarios;

    fn small_run() -> (Scenario, ProfileRun) {
        // The catalog's sharded world, shrunk via the slot budget so the
        // test stays fast while still exercising the sharded span path.
        let mut s = builtin_scenarios()
            .iter()
            .find(|e| e.scenario.name == "sharded-dense")
            .expect("catalog has sharded-dense")
            .scenario
            .clone();
        s.max_slots = 40;
        let run = profile_scenario(&s, PROFILE_SEED);
        (s, run)
    }

    #[test]
    fn profile_covers_slot_time_and_renders() {
        let (s, run) = small_run();
        assert!(run.trial.slots > 0);
        assert!(
            run.gate_ok(),
            "phase spans cover only {:.1}% of slot time",
            run.slot_coverage() * 100.0
        );
        let slot = run.report.kind(SpanKind::Slot).expect("slot spans");
        assert_eq!(slot.count, run.trial.slots);
        let table = profile_table(&s, &run);
        for row in [
            "| resolve |",
            "| unit |",
            "| nodes_polled |",
            "| nodes_woken |",
            "| parks_far |",
            "| staged_positions |",
            "| pool_tasks |",
        ] {
            assert!(table.contains(row), "no `{row}` row in:\n{table}");
        }
        assert!(table.contains("| records_dropped | 0 |"), "{table}");
    }

    #[test]
    fn resolve_cost_is_unit_time_over_resolved_listens() {
        let (s, run) = small_run();
        let cost = run.resolve_cost().expect("the flood resolves listens");
        // This world has no fading, so a listen senses power exactly when
        // its channel had a transmitter: the trial's own tallies count the
        // resolved listens a second way.
        let t = &run.trial;
        assert_eq!(cost.listens, t.receptions + t.busy_failures + t.env_drops);
        assert!(cost.tx_per_channel >= 1.0 && cost.tx_per_channel < s.len() as f64);
        let unit = run.report.kind(SpanKind::Unit).expect("unit spans");
        assert_eq!(
            cost.ns_per_listen,
            unit.total_ns as f64 / cost.listens as f64
        );
        let table = profile_table(&s, &run);
        let line = format!("\n{cost}\nwalk: ");
        assert!(table.contains(&line), "no `{line}` in:\n{table}");
        assert!(table.contains(" node evaluations per listen "), "{table}");
    }

    #[test]
    fn memory_line_reads_the_arena_off_the_channel_stream() {
        let (s, run) = small_run();
        let (tx, rx) = run.stage_high_water().expect("the flood stages positions");
        // A node acts on one channel a slot: neither arena vector can
        // outgrow the world, and no slot staged more than both peaks (the
        // two may come from different slots).
        let n = s.len() as u64;
        assert!(
            (1..=n).contains(&tx) && (1..=n).contains(&rx),
            "{tx}, {rx} of {n}"
        );
        let mut counters = run.report.counters.iter();
        let staged = counters
            .find(|(k, _)| k == "staged_positions")
            .expect("counted");
        assert!(staged.1 <= (tx + rx) * run.trial.slots);
        let table = profile_table(&s, &run);
        let line = format!("staging arena high water {tx} transmitter + {rx} listener positions");
        assert!(table.contains(&line), "no `{line}` in:\n{table}");
        if cfg!(target_os = "linux") {
            assert!(run.peak_rss_kb.is_some_and(|kb| kb > 0));
            assert!(table.contains(" MB (VmHWM); "), "{table}");
        }
    }

    #[test]
    fn jsonl_export_of_a_profiled_run_validates() {
        let (_, run) = small_run();
        let jsonl = run.recorder.to_jsonl();
        assert!(!jsonl.is_empty());
        assert!(jsonl.contains(r#""t":"counter","k":"staged_positions""#));
        for line in jsonl.lines() {
            mca_obs::validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn default_profile_world_is_the_sharded_dense_100k() {
        let s = default_profile_scenario(30);
        assert_eq!(s.len(), 100_000);
        assert_eq!(s.channels, 16);
        assert_eq!(s.shards, 8);
        assert_eq!(s.max_slots, 30);
    }
}

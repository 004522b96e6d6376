//! What the benchmark measures: the workloads, every metric's name, unit,
//! direction and regression bound, and which workloads a metric applies
//! to. `BENCHMARK.json` at the repository root is this table rendered by
//! [`benchmark_json`]; a unit test keeps the two identical.

use crate::json::Json;

/// The benchmark's run length per invocation, seconds.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs (it appends `--workload … --seed … --seconds … --trace …`).
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One workload and why it exists.
pub struct WorkloadSpec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// `sweep-small`.
pub const SWEEP_SMALL: &str = "sweep-small";
/// `dense-engine`.
pub const DENSE_ENGINE: &str = "dense-engine";
/// `paper-pipeline`.
pub const PAPER_PIPELINE: &str = "paper-pipeline";
/// `churn-repair`.
pub const CHURN_REPAIR: &str = "churn-repair";

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: SWEEP_SMALL,
        why: "2400-trial generated [matrix] sweep through run_sweep_file: the service path; isolates radio/core fixed per-slot cost, scenario env stepping, pool trial batching and the JSONL sink; sinr does little",
    },
    WorkloadSpec {
        name: DENSE_ENGINE,
        why: "one 50000-node 16-channel Fast-mode sharded world stepped slot by slot: >=90% sinr index build + lane resolution as pool units; serde, obs, sink and core structure code bypassed",
    },
    WorkloadSpec {
        name: PAPER_PIPELINE,
        why: "the paper's build/audit/aggregate/colour pipeline at n=1200, F in {1,8}: ~100k tiny Exact-mode slots where core state machines and engine fixed cost dominate; guards the simulated statistics",
    },
    WorkloadSpec {
        name: CHURN_REPAIR,
        why: "600-node mobile world with joins and crashes under StructureMaintainer repair epochs: core::maintain does the work, the engine is only a clock, sinr runs on masked live subsets",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
pub struct MetricSpec {
    /// Name in every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median; `Some(0.0)`
    /// means the value must repeat exactly; `None` (per-layer metrics)
    /// means reported, never gated.
    pub bound: Option<f64>,
    /// Workloads the metric applies to (empty = all four). Elsewhere it is
    /// reported as 0: the layer is not exercised there.
    pub on: &'static [&'static str],
}

impl MetricSpec {
    /// Whether the metric is measured on `workload`.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

use Better::{Higher, Lower};

const ALL: &[&str] = &[];
const SWEEP: &[&str] = &[SWEEP_SMALL];
const DENSE: &[&str] = &[DENSE_ENGINE];
const PAPER: &[&str] = &[PAPER_PIPELINE];
const CHURN: &[&str] = &[CHURN_REPAIR];
const POOLED: &[&str] = &[SWEEP_SMALL, DENSE_ENGINE];
const DYNAMIC: &[&str] = &[SWEEP_SMALL, CHURN_REPAIR];
const ENGINE_VISIBLE: &[&str] = &[SWEEP_SMALL, DENSE_ENGINE];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    on: &'static [&'static str],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        on,
    }
}

/// The end-to-end metrics, measured with tracing off. The first
/// [`DRIVER_END_TO_END`] of them are defined on every workload and never
/// zero, which is what the acceptance driver's `end_to_end` list needs;
/// the rest are workload-specific or exact counts and are listed for the
/// driver under `per_layer` (see the README), while `run`/`compare` gate
/// all twelve.
///
/// Every host-time bound is the contract's largest, 25%: the reference
/// host's CPU speed is bimodal, ~25% apart, in stretches of up to a whole
/// measuring window, so identical code measures up to ~15% apart from
/// run to run (README, "Noise floor"). A tighter bound would call
/// unchanged code regressed.
pub const END_TO_END: [MetricSpec; 12] = [
    m("setup_s", "s", Lower, Some(0.25), ALL),
    m("wall_s", "s", Lower, Some(0.25), ALL),
    m("cpu_s", "s", Lower, Some(0.25), ALL),
    m("peak_rss_mb", "MB", Lower, Some(0.15), ALL),
    m("failed_share", "ratio", Lower, Some(0.0), ALL),
    m("sim_slots", "slots", Lower, Some(0.0), ALL),
    m("trials_per_s", "1/s", Higher, Some(0.25), SWEEP),
    m("slot_ms_p50", "ms", Lower, Some(0.25), DENSE),
    m("slot_ms_p95", "ms", Lower, Some(0.25), DENSE),
    m("sim_speedup", "ratio", Higher, Some(0.0), PAPER),
    m("repair_ms_p50", "ms", Lower, Some(0.25), CHURN),
    m("repair_ms_p90", "ms", Lower, Some(0.25), CHURN),
];

/// How many leading [`END_TO_END`] entries the driver gates.
pub const DRIVER_END_TO_END: usize = 4;

/// The per-layer metrics of the traced pass.
pub const PER_LAYER: [MetricSpec; 49] = [
    m("geom.deploy_ns_per_node", "ns", Lower, None, ALL),
    m("geom.grid_build_ns_per_point", "ns", Lower, None, ALL),
    m("geom.comm_graph_ns_per_node", "ns", Lower, None, PAPER),
    m("sinr.index_build_ns_per_tx", "ns", Lower, None, ALL),
    m("sinr.resolve_fast_ns_per_listener", "ns", Lower, None, ALL),
    m("sinr.resolve_exact_ns_per_listener", "ns", Lower, None, ALL),
    m(
        "sinr.listener_resolutions",
        "count",
        Lower,
        None,
        ENGINE_VISIBLE,
    ),
    m("sinr.share_est", "ratio", Lower, None, ENGINE_VISIBLE),
    m("radio.step_ns_per_slot", "ns", Lower, None, ALL),
    m("radio.fixed_ns_per_node_slot", "ns", Lower, None, ALL),
    m("radio.engine_new_ns_per_node", "ns", Lower, None, ALL),
    m("radio.rx_per_listen", "ratio", Higher, None, ALL),
    m("radio.busy_share", "ratio", Lower, None, ALL),
    m("core.build_structure_ms", "ms", Lower, None, PAPER),
    m("core.aggregate_ms", "ms", Lower, None, PAPER),
    m("core.color_ms", "ms", Lower, None, PAPER),
    m("core.audit_ms", "ms", Lower, None, PAPER),
    m("core.build_slots", "slots", Lower, None, PAPER),
    m("core.agg_slots_f1", "slots", Lower, None, PAPER),
    m("core.agg_slots_f8", "slots", Lower, None, PAPER),
    m("core.color_slots", "slots", Lower, None, PAPER),
    m("core.host_ns_per_sim_slot", "ns", Lower, None, PAPER),
    m("core.maintainer_build_ms", "ms", Lower, None, CHURN),
    m("core.repair_ms_per_epoch", "ms", Lower, None, CHURN),
    m("core.repair_audit_ms", "ms", Lower, None, CHURN),
    m("core.repair_slots", "slots", Lower, None, CHURN),
    m("core.rebuild_fallbacks", "count", Lower, None, CHURN),
    m("core.flood_coverage", "ratio", Higher, None, SWEEP),
    m("scenario.load_us_per_file", "us", Lower, None, SWEEP),
    m("scenario.expand_ns_per_trial", "ns", Lower, None, SWEEP),
    m("scenario.sim_new_ns_per_node", "ns", Lower, None, DYNAMIC),
    m(
        "scenario.env_step_ns_per_node_slot",
        "ns",
        Lower,
        None,
        DYNAMIC,
    ),
    m(
        "scenario.runner_overhead_share",
        "ratio",
        Lower,
        None,
        SWEEP,
    ),
    m("serde.parse_mb_per_s", "MB/s", Higher, None, SWEEP),
    m("serde.emit_mb_per_s", "MB/s", Higher, None, SWEEP),
    m("obs.trial_line_ns", "ns", Lower, None, SWEEP),
    m("obs.validate_ns_per_line", "ns", Lower, None, SWEEP),
    m("obs.bytes_per_trial", "bytes", Lower, None, SWEEP),
    m(
        "bench.sweep_overhead_us_per_trial",
        "us",
        Lower,
        None,
        SWEEP,
    ),
    m("bench.resume_us_per_trial", "us", Lower, None, SWEEP),
    m("bench.serve_once_overhead_ms", "ms", Lower, None, SWEEP),
    m("bench.out_bytes_per_s", "bytes/s", Higher, None, SWEEP),
    m("pool.tasks", "count", Lower, None, ALL),
    m("pool.steals", "count", Lower, None, ALL),
    m("pool.parks", "count", Lower, None, ALL),
    m("pool.injected", "count", Lower, None, ALL),
    m("pool.scope_roundtrip_ns_per_task", "ns", Lower, None, ALL),
    m("pool.cpu_over_wall", "ratio", Higher, None, ALL),
    m("pool.parallel_efficiency", "ratio", Higher, None, POOLED),
];

/// Reported with the per-layer metrics: what tracing itself costs.
pub const TRACE_OVERHEAD: MetricSpec = m("trace.overhead_share", "ratio", Lower, None, ALL);

/// The metrics the driver gates (`--trace 0` prints exactly these).
pub fn driver_end_to_end() -> &'static [MetricSpec] {
    &END_TO_END[..DRIVER_END_TO_END]
}

/// The metrics `--trace 1` prints: every per-layer metric, the tracing
/// overhead, and the end-to-end metrics the driver cannot gate.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricSpec> {
    PER_LAYER
        .iter()
        .chain(std::iter::once(&TRACE_OVERHEAD))
        .chain(END_TO_END[DRIVER_END_TO_END..].iter())
}

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&TRACE_OVERHEAD))
        .find(|s| s.name == name)
}

/// Whether `name` is a legal metric or workload name under the driver's
/// contract: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is legal under the driver's contract: 1 to 16 of
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the driver's contract: name and unit
/// charsets, unique names, counts, bounds, and `setup_s` carrying the
/// largest bound.
///
/// # Errors
///
/// Returns the first rule a table entry breaks.
pub fn validate() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        if !valid_name(w.name) || !seen.insert(w.name) {
            return Err(format!(
                "workload name `{}` is malformed or repeated",
                w.name
            ));
        }
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload `{}`: `why` must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    for s in driver_end_to_end().iter().chain(driver_per_layer()) {
        if !valid_name(s.name) || !seen.insert(s.name) {
            return Err(format!("metric name `{}` is malformed or repeated", s.name));
        }
        if !valid_unit(s.unit) {
            return Err(format!(
                "metric `{}`: unit `{}` is malformed",
                s.name, s.unit
            ));
        }
        if let Some(w) =
            s.on.iter()
                .find(|w| !WORKLOADS.iter().any(|x| x.name == **w))
        {
            return Err(format!("metric `{}` names unknown workload `{w}`", s.name));
        }
    }
    let e2e = driver_end_to_end();
    if !(1..=16).contains(&e2e.len()) || !(1..=128).contains(&driver_per_layer().count()) {
        return Err("metric counts outside the contract's limits".to_string());
    }
    // Gated by the driver: defined on every workload (never 0 by absence)
    // with a bound in (0, 0.25], `setup_s` carrying the largest.
    let setup = e2e
        .iter()
        .find(|s| s.name == "setup_s" && s.unit == "s" && s.better == Lower);
    let Some(setup) = setup else {
        return Err("the end-to-end list lacks `setup_s` (s, lower)".to_string());
    };
    for s in e2e {
        let bounded = s.bound.is_some_and(|b| b > 0.0 && b <= 0.25) && s.bound <= setup.bound;
        if !s.on.is_empty() || !bounded {
            return Err(format!(
                "end-to-end metric `{}` is not gateable on every workload",
                s.name
            ));
        }
    }
    Ok(())
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                driver_end_to_end()
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("unit", Json::str(s.unit)),
                            ("better", Json::str(s.better.word())),
                            (
                                "bound",
                                Json::Num(s.bound.expect("end-to-end metrics are gated")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                driver_per_layer()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("unit", Json::str(s.unit)),
                            ("better", Json::str(s.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `benchmark_json()` laid out one entry per line, as committed.
pub fn benchmark_json_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let members = doc.as_obj().expect("benchmark_json builds an object");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(&format!("  {}: ", Json::str(key.as_str()).render()));
        match value
            .as_arr()
            .filter(|items| items.iter().all(|v| v.as_obj().is_some()))
        {
            Some(items) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str("  ]");
            }
            None => out.push_str(&value.render()),
        }
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        assert!(valid_name("sinr.resolve_fast_ns_per_listener"));
        assert!(valid_name("sweep-small"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("bytes/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert_eq!(validate(), Ok(()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        // 4 + 22 runs per workload, two builds: inside the 3420 s cap with
        // room for set-up and checks around each measured window.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 9) + 2 * 120 <= 3420);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json_text());
        assert_eq!(crate::json::parse(&committed).unwrap(), benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }
}

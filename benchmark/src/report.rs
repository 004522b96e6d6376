//! Rendering a workload pass: the table of every metric by name with its
//! unit, sample count, direction and bound; the one-line JSON result the
//! acceptance driver reads; and the run files `compare` reads.

use crate::json::{self, Json};
use crate::spec::{self, MetricSpec};
use crate::workloads::Outcome;

/// One result as the driver's contract words it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// The metrics `outcome` owes the driver for this pass: every gated
    /// end-to-end metric with tracing off, every per-layer metric with
    /// tracing on — 0 where the workload does not exercise the layer.
    /// `full` (what `run` asks its children for) makes the untraced pass
    /// list all twelve end-to-end metrics that apply to the workload.
    pub fn of(outcome: &Outcome, traced: bool, full: bool) -> ResultLine {
        let value = |s: &MetricSpec| outcome.metrics.get(s.name).map_or(0.0, |(v, _)| v);
        let entry = |s: &MetricSpec| (s.name.to_string(), value(s), s.unit.to_string());
        ResultLine {
            correct: outcome.checks.failed == 0,
            attempted: outcome.checks.attempted.max(1),
            failed: outcome.checks.failed,
            metrics: pass_metrics(outcome.workload, traced, full)
                .into_iter()
                .map(entry)
                .collect(),
        }
    }

    /// The JSON object with exactly the contract's four keys.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(unit.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a result line back.
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn from_json(v: &Json) -> Result<ResultLine, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result lacks a numeric `{key}`"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result lacks `metrics`")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric `{name}` lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(ResultLine {
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result lacks `correct`")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// The metrics one pass reports, in table order.
fn pass_metrics(workload: &str, traced: bool, full: bool) -> Vec<&'static MetricSpec> {
    match (traced, full) {
        (true, _) => spec::driver_per_layer().collect(),
        (false, false) => spec::driver_end_to_end().iter().collect(),
        (false, true) => spec::END_TO_END
            .iter()
            .filter(|s| s.applies_to(workload))
            .collect(),
    }
}

/// The human-readable table of one pass.
pub fn table(outcome: &Outcome, traced: bool, full: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>16} {:<8} {:>9} {:<7} {}\n",
        "metric", "value", "unit", "samples", "better", "bound"
    ));
    for s in pass_metrics(outcome.workload, traced, full) {
        let bound = match s.bound {
            None => "-".to_string(),
            Some(0.0) => "exact".to_string(),
            Some(b) => format!("{:.0}%", b * 100.0),
        };
        let (value, samples) = match outcome.metrics.get(s.name) {
            Some((v, n)) => (format!("{v:.6}"), n.to_string()),
            None if s.applies_to(outcome.workload) => ("unmeasured".to_string(), "0".to_string()),
            None => ("n/a".to_string(), "0".to_string()),
        };
        out.push_str(&format!(
            "{:<38} {:>16} {:<8} {:>9} {:<7} {}\n",
            s.name,
            value,
            s.unit,
            samples,
            s.better.word(),
            bound
        ));
    }
    for note in &outcome.metrics.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    if let Some((layer, share)) = outcome.metrics.layer_shares.first() {
        let all: Vec<String> = outcome
            .metrics
            .layer_shares
            .iter()
            .map(|(l, s)| format!("{l} {s:.3}"))
            .collect();
        out.push_str(&format!(
            "largest layer: {layer} ({share:.3} of a repetition's CPU time); shares: {}\n",
            all.join(", ")
        ));
    }
    let walls: Vec<String> = outcome
        .rep_wall_s
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    out.push_str(&format!(
        "timed repetitions, wall_s each: {}\n",
        walls.join(" ")
    ));
    out.push_str(&format!(
        "checks: {} operations attempted, {} failed\n",
        outcome.checks.attempted, outcome.checks.failed
    ));
    for message in &outcome.checks.messages {
        out.push_str(&format!("FAILED: {message}\n"));
    }
    out
}

/// One workload's merged result inside a run file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// The workload.
    pub workload: String,
    /// Which of the file's runs this is (0-based).
    pub run: u64,
    /// Both passes' results merged (the traced pass adds its metrics).
    pub result: ResultLine,
}

/// A run file: the host fingerprint and every workload result of every
/// run, as `run --out` writes it and `compare` reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// Host fingerprint (nproc, CPU, SIMD, rustc, flags, commit, seed).
    pub host: Json,
    /// Whether sizes were reduced (`--smoke`); such files carry no bounds.
    pub smoke: bool,
    /// The results.
    pub entries: Vec<RunEntry>,
}

impl RunFile {
    /// Renders the file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("host", self.host.clone()),
            ("smoke", Json::Bool(self.smoke)),
            (
                "results",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            let mut pairs = vec![
                                ("workload".to_string(), Json::str(e.workload.as_str())),
                                ("run".to_string(), Json::Num(e.run as f64)),
                            ];
                            if let Json::Obj(result) = e.result.to_json() {
                                pairs.extend(result);
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a run file.
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let v = json::parse(text)?;
        if v.get("schema").and_then(Json::as_f64) != Some(1.0) {
            return Err("not a schema-1 run file".to_string());
        }
        let entries = v
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("run file lacks `results`")?
            .iter()
            .map(|r| {
                Ok(RunEntry {
                    workload: r
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or("result lacks `workload`")?
                        .to_string(),
                    run: r.get("run").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    result: ResultLine::from_json(r)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunFile {
            host: v.get("host").cloned().unwrap_or(Json::Null),
            smoke: v.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            entries,
        })
    }

    /// Every value of `metric` on `workload`, in run order.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| e.workload == workload)
            .filter_map(|e| e.result.metrics.iter().find(|(n, _, _)| n == metric))
            .map(|(_, v, _)| *v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(wall: f64) -> ResultLine {
        ResultLine {
            correct: true,
            attempted: 2400,
            failed: 0,
            metrics: vec![
                ("wall_s".to_string(), wall, "s".to_string()),
                ("sim_slots".to_string(), 960_000.0, "slots".to_string()),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let json = line(2.713_400_129).to_json();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let text = json.render();
        assert!(!text.contains('\n'));
        assert!(
            text.contains("\"wall_s\":{\"value\":2.713400129,\"unit\":\"s\"}"),
            "{text}"
        );
        assert_eq!(
            ResultLine::from_json(&json::parse(&text).unwrap()).unwrap(),
            line(2.713_400_129)
        );
    }

    #[test]
    fn run_file_round_trips() {
        let file = RunFile {
            host: Json::obj([("nproc", Json::Num(2.0)), ("cpu_model", Json::str("test"))]),
            smoke: true,
            entries: vec![
                RunEntry {
                    workload: "sweep-small".to_string(),
                    run: 0,
                    result: line(2.5),
                },
                RunEntry {
                    workload: "sweep-small".to_string(),
                    run: 1,
                    result: line(2.75),
                },
                RunEntry {
                    workload: "dense-engine".to_string(),
                    run: 0,
                    result: line(3.0),
                },
            ],
        };
        let text = file.to_json().render();
        let back = RunFile::parse(&text).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.values("sweep-small", "wall_s"), [2.5, 2.75]);
        assert_eq!(back.values("dense-engine", "sim_slots"), [960_000.0]);
        assert!(back.values("churn-repair", "wall_s").is_empty());
        assert!(RunFile::parse("{\"schema\":2}").is_err());
        assert!(RunFile::parse("{\"schema\":1,\"results\":[{\"run\":0}]}").is_err());
    }
}

//! The repository's benchmark: four workloads, end-to-end and per-layer
//! metrics, traced from outside. See `README.md` beside this crate.
//!
//! ```text
//! mca-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--full] [--spans FILE]
//! mca-benchmark run [--seed N] [--workload W] [--smoke] [--runs K] [--seconds S] [--out FILE]
//! mca-benchmark compare A.json B.json
//! mca-benchmark spec
//! ```
//!
//! The first form is one pass of one workload in this process — what the
//! acceptance driver invokes, and what `run` spawns per workload so that
//! `peak_rss_mb` is per workload. Its last line of standard output is the
//! JSON result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod host;
mod json;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::{ResultLine, RunEntry, RunFile};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  mca-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--full] [--spans FILE]
  mca-benchmark run [--seed N] [--workload W] [--smoke] [--runs K] [--seconds S] [--out FILE]
  mca-benchmark compare A.json B.json
  mca-benchmark spec";

/// `--key value` options and bare flags of one invocation.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args`; `flags` names the options that take no value.
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => out.flags.push(key.to_string()),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.options.push((key.to_string(), value.clone()));
                }
                None => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects options this subcommand does not know.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// One pass of one workload in this process.
fn pass(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "spans"])?;
    let workload = args.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("seed", 1)?;
    let smoke = args.flag("smoke");
    let seconds: f64 = args.number(
        "seconds",
        if smoke { 0.0 } else { spec::RUN_SECONDS as f64 },
    )?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must lie in [0, 60], got {seconds}"));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            names.join(", ")
        ));
    }

    let threads = host::pool_threads();
    rayon::set_num_threads(threads);
    let tmp = host::TempDir::create(workload).map_err(|e| format!("scratch directory: {e}"))?;
    let tracer = trace::Tracer::new();
    let ctx = workloads::Ctx {
        seed,
        seconds,
        smoke,
        traced,
        threads,
        tmp: tmp.path(),
        tracer: &tracer,
    };
    println!(
        "# mca-benchmark workload={workload} seed={seed} seconds={seconds} trace={} smoke={smoke}",
        traced as u8
    );
    println!("# host: {}", host::fingerprint(seed).render());
    let outcome = workloads::run_named(workload, &ctx)?;
    let full = args.flag("full");
    print!("{}", report::table(&outcome, traced, full));
    if let Some(path) = args.get("spans") {
        std::fs::write(path, trace::to_jsonl(&tracer.spans()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let line = ResultLine::of(&outcome, traced, full);
    println!("{}", line.to_json().render());
    Ok(line.correct)
}

/// Runs one pass in a child process of this executable, echoing its
/// output, and returns its result line.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--full")
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects its pipe, so no process
    // outlives this call.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    match json::parse(last).and_then(|v| ResultLine::from_json(&v)) {
        Ok(line) => Ok(line),
        Err(e) => Err(format!(
            "the {workload} pass ({}) printed no result: {e}",
            output.status
        )),
    }
}

/// `run`: every workload, both passes, each in a child process.
fn run(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "workload", "runs", "seconds", "out"])?;
    let seed: u64 = args.number("seed", 1)?;
    let smoke = args.flag("smoke");
    let runs: u64 = args.number("runs", 1)?;
    let seconds: f64 = args.number(
        "seconds",
        if smoke { 0.0 } else { spec::RUN_SECONDS as f64 },
    )?;
    let only = args.get("workload");
    let mut file = RunFile {
        host: host::fingerprint(seed),
        smoke,
        entries: Vec::new(),
    };
    let mut all_correct = true;
    for run in 0..runs {
        for w in spec::WORKLOADS
            .iter()
            .filter(|w| only.is_none_or(|o| o == w.name))
        {
            let mut result = child_pass(w.name, seed, seconds, false, smoke)?;
            let traced = child_pass(w.name, seed, seconds, true, smoke)?;
            all_correct &= result.correct && traced.correct;
            result.correct &= traced.correct;
            result.failed += traced.failed;
            result.attempted += traced.attempted;
            // The untraced pass owns the end-to-end metrics; the traced
            // pass repeats the workload-specific ones for the driver.
            for m in traced.metrics {
                if !result.metrics.iter().any(|(name, _, _)| *name == m.0) {
                    result.metrics.push(m);
                }
            }
            file.entries.push(RunEntry {
                workload: w.name.to_string(),
                run,
                result,
            });
        }
    }
    if file.entries.is_empty() {
        return Err(format!("no workload is called `{}`", only.unwrap_or("")));
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, file.to_json().render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// `compare A.json B.json`.
fn compare_files(args: &Args) -> Result<bool, String> {
    args.only(&[])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes exactly two run files".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| RunFile::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(a)?, load(b)?);
    if a.smoke || b.smoke {
        println!("note: a --smoke run file carries reduced sizes; its timings prove nothing");
    }
    if a.host != b.host {
        println!("note: the two files were taken under different host fingerprints or seeds");
        println!("  A: {}", a.host.render());
        println!("  B: {}", b.host.render());
    }
    let rows = compare::rows(&a, &b);
    for row in &rows {
        println!("{}", row.text);
    }
    let count = |v: compare::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairings: {} regressions, {} unresolved, {} missing",
        rows.len(),
        count(compare::Verdict::Regression),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Missing)
    );
    Ok(count(compare::Verdict::Regression) == 0 && count(compare::Verdict::Missing) == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..], &["smoke"]).and_then(|a| run(&a)),
        Some("compare") => Args::parse(&argv[1..], &[]).and_then(|a| compare_files(&a)),
        Some("spec") => spec::validate().map(|()| {
            print!("{}", spec::benchmark_json_text());
            true
        }),
        Some(first) if first.starts_with("--") && first != "--help" => {
            Args::parse(&argv, &["smoke", "full"]).and_then(|a| pass(&a))
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mca-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! Prints the paper's claim tables (`EXPERIMENTS.md`), runs scenario
//! files, and serves matrix sweeps.
//!
//! The binary is a declarative subcommand table ([`COMMANDS`]): each entry
//! carries its name, argument synopsis, summary, extended help, and
//! handler, so the overview usage, per-subcommand `--help`, and dispatch
//! all read from one place. The claim tables are the other registry
//! ([`mca_bench::claim_tables`]): their ids and `all`, the default
//! command, dispatch through the same main loop.
//!
//! Every form accepts a global `--threads N` flag pinning the worker
//! count of all parallel paths (0 = one per core) — CI smoke jobs and
//! local benchmarking use it for reproducible wall-clock numbers.
//! Reconfiguration is explicit and immediate (`rayon::set_num_threads`):
//! if the persistent pool is already running at a different size it is
//! retired on the spot and the next parallel operation spawns a fresh
//! pool at the new count, so the flag is honored even after the pool has
//! been used — not only before first use. There is also a
//! global `--log-level {off,summary,verbose}` flag controlling the
//! progress stream on stderr (results on stdout are unaffected).
//!
//! `profile` runs the flood workload with the `mca-obs` recorder attached
//! and prints the per-phase time breakdown (with the resolve units the
//! engine made per resolved channel) and the engine's counters; the run
//! fails unless the phase spans cover ≥ 95% of slot wall time and both
//! Phase-2 arenas stayed within twice the node count (CI profiles
//! `scenarios/sharded-dense.toml` for 40 slots at `--threads 2`).
//!
//! `--scenario` runs any TOML world (see `docs/SCENARIO_FORMAT.md`)
//! through the flood max-aggregation workload; `sweep` expands a
//! `[matrix]` file into a keyed trial set and streams one JSONL record
//! per trial with checkpoint/resume (see `docs/TRIAL_SERVICE.md`);
//! `serve` polls a queue directory of such files; `check-scenarios`
//! parse-validates a directory of scenario/matrix files (the CI gate for
//! `scenarios/`).
//!
//! `artifacts` checks every committed artifact ([`mca_bench::artifacts`])
//! byte for byte, one `ok|STALE|GATE` line per file (`--log-level off`
//! keeps only the failures); `--write` rewrites the stale ones. Unknown
//! subcommands print usage and exit non-zero.

use mca_bench::artifacts::{self, Verdict};
use mca_bench::{LogLevel, ServeConfig, SweepConfig};
use mca_scenario::{Scenario, SweepFile};
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Whether the progress stream (stderr) is at least `level` verbose.
fn logs(level: LogLevel) -> bool {
    mca_bench::log_level() >= level
}

/// One subcommand: everything the overview usage, `--help`, and dispatch
/// need, in one row.
struct Cmd {
    /// The word on the command line.
    name: &'static str,
    /// Argument synopsis shown after the name.
    args: &'static str,
    /// One-or-few-line summary for the usage overview (indented there).
    summary: &'static str,
    /// Extended help for `experiments <name> --help` (empty = summary only).
    help: &'static str,
    /// The handler, given the arguments after the subcommand name.
    run: fn(&[String]) -> ExitCode,
}

/// The subcommand table. Claim-table ids and `all` (the default) dispatch
/// through [`run_tables`] instead of a row here.
const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "artifacts",
        args: "[--write]",
        summary: "regenerate every committed artifact and compare it\n\
                  byte for byte; exits non-zero naming each stale file\n\
                  and each failed gate (--write: rewrite stale files)",
        help: "",
        run: cmd_artifacts,
    },
    Cmd {
        name: "profile",
        args: "[--scenario <file.toml>] [--slots N] [--jsonl <path>]",
        summary: "per-phase time breakdown and engine counters via the\n\
                  mca-obs recorder (default world: 100k dense nodes;\n\
                  exits non-zero if phase spans cover < 95% of slot\n\
                  wall time or an arena outgrew 2n entries)",
        help: "",
        run: run_profile,
    },
    Cmd {
        name: "flip-audit",
        args: "[<scenario.toml> | dense-slot]...",
        summary: "resolve every listen of a Fast-mode run in both modes,\n\
                  list every decode flip and hold each to its bound\n\
                  (no target = every run of scenarios/GOLDEN_flips.json;\n\
                  exits non-zero on a flip outside its bound)",
        help: "",
        run: cmd_flip_audit,
    },
    Cmd {
        name: "sweep",
        args: "<matrix.toml> [--out F] [--journal F] [--limit N] [--fresh] [--sequential]",
        summary: "expand a [matrix] file into a keyed trial set and\n\
                  stream one JSONL trial record per trial, journaling\n\
                  completed keys; rerunning resumes after the journal\n\
                  (exit 3 when --limit leaves the sweep incomplete)",
        help: "Runs every (scenario, seed) trial of the matrix file through the\n\
               flood max-aggregation workload, appending one mca-obs JSONL-v1\n\
               `trial` record per trial to the out file (default:\n\
               <stem>.trials.jsonl beside the input) and each completed key to\n\
               the journal (default: <stem>.journal). A rerun verifies the\n\
               journal against the matrix, truncates any torn tail, and resumes\n\
               exactly where the previous run stopped — the resulting stream is\n\
               byte-identical to an uninterrupted run.\n\
               \n\
               \x20 --out F        record stream path\n\
               \x20 --journal F    checkpoint journal path\n\
               \x20 --limit N      stop after executing N trials (exit 3 if the\n\
               \x20                sweep is then incomplete — the test interrupt)\n\
               \x20 --fresh        discard any existing journal and records\n\
               \x20 --sequential   resolve trials on one worker",
        run: cmd_sweep,
    },
    Cmd {
        name: "serve",
        args: "<queue-dir> [--out-dir D] [--once] [--poll-ms N] [--sequential]",
        summary: "poll a queue directory for matrix/scenario TOML files\n\
                  and sweep each to completion, resumably",
        help: "Scans <queue-dir> for *.toml files without <stem>.done markers\n\
               (sorted by name), sweeps each to completion — journals and record\n\
               streams land in --out-dir (default: the queue directory) and\n\
               resume across restarts — then writes the <stem>.done marker.\n\
               \n\
               \x20 --out-dir D    where records, journals, and done markers land\n\
               \x20 --once         one scan-and-drain pass, then exit\n\
               \x20 --poll-ms N    milliseconds between scans (default 1000)\n\
               \x20 --sequential   resolve trials on one worker",
        run: cmd_serve,
    },
    Cmd {
        name: "check-scenarios",
        args: "[dir]",
        summary: "parse-validate every .toml in a directory\n\
                  (matrix files report their expanded trial count)",
        help: "",
        run: cmd_check_scenarios,
    },
];

const GLOBAL_FLAGS: &str = "\
Global flags:
  --threads N       pin the parallel worker count (0 = one per core); takes
                    effect immediately — a live pool at a different size is
                    retired and relaunched on next use
  --log-level L     progress-stream verbosity: off, summary (default), verbose
";

/// The overview usage, composed from [`COMMANDS`].
fn usage() -> String {
    let mut s = String::from(
        "Usage:\n  experiments [SUBCOMMAND] [trials]   run experiment tables (default: all)\n",
    );
    for cmd in COMMANDS {
        let invocation = format!("  experiments {} {}", cmd.name, cmd.args);
        let mut lines = cmd.summary.lines();
        if invocation.len() <= 37 {
            let first = lines.next().unwrap_or("");
            s.push_str(&format!("{invocation:<38}{first}\n"));
        } else {
            s.push_str(&invocation);
            s.push('\n');
        }
        for line in lines {
            s.push_str(&format!("{:38}{}\n", "", line.trim_start()));
        }
    }
    s.push_str(
        "  experiments --scenario <file.toml> [--seeds N]\n\
         \u{20}                                     run a scenario file end-to-end\n\n",
    );
    s.push_str(GLOBAL_FLAGS);
    let ids: Vec<&str> = mca_bench::claim_tables().iter().map(|c| c.id).collect();
    s.push_str(&format!(
        "\nSubcommands:\n\
         \u{20} {}\n\
         \u{20}     one claim table of EXPERIMENTS.md\n\
         \u{20} all  every claim table, {} trials by default\n\n\
         `experiments <subcommand> --help` prints the subcommand's details.\n",
        ids.join(", "),
        mca_bench::CLAIM_TRIALS
    ));
    s
}

/// The per-subcommand help text for `experiments <name> --help`.
fn cmd_help(cmd: &Cmd) -> String {
    let mut s = format!("Usage: experiments {} {}\n\n", cmd.name, cmd.args);
    let body = if cmd.help.is_empty() {
        cmd.summary
    } else {
        cmd.help
    };
    for line in body.lines() {
        s.push_str(line);
        s.push('\n');
    }
    s.push('\n');
    s.push_str(GLOBAL_FLAGS);
    s
}

/// Extracts the global `--threads` / `--log-level` flags (any position),
/// applying them process-wide. Shared by every subcommand because it runs
/// before dispatch.
fn extract_global_flags(args: &mut Vec<String>) -> Result<(), ExitCode> {
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(n) = args.get(i + 1).and_then(|n| n.parse::<usize>().ok()) else {
            eprintln!(
                "error: --threads needs a worker count (0 = one per core)\n{}",
                usage()
            );
            return Err(ExitCode::from(2));
        };
        rayon::set_num_threads(n);
        args.drain(i..=i + 1);
    }
    if let Some(i) = args.iter().position(|a| a == "--log-level") {
        let Some(level) = args.get(i + 1).and_then(|l| LogLevel::parse(l)) else {
            eprintln!(
                "error: --log-level needs one of off, summary, verbose\n{}",
                usage()
            );
            return Err(ExitCode::from(2));
        };
        mca_bench::set_log_level(level);
        args.drain(i..=i + 1);
    }
    Ok(())
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    if let Err(code) = extract_global_flags(&mut args) {
        return code;
    }

    // Flag form: run a scenario file. Only where no subcommand leads —
    // after one, `--scenario` is that subcommand's own flag (`profile`).
    let leads_with_flag = args.first().is_some_and(|a| a.starts_with('-'));
    if leads_with_flag && args.iter().any(|a| a == "--scenario") {
        return run_scenario_file(&args);
    }
    if let Some(first) = args.first() {
        if first == "--help" || first == "-h" || first == "help" {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        if first.starts_with('-') {
            eprintln!("error: unknown option `{first}`\n{}", usage());
            return ExitCode::from(2);
        }
    }

    let which = args.first().map(String::as_str).unwrap_or("all");
    if let Some(cmd) = COMMANDS.iter().find(|c| c.name == which) {
        let rest = &args[1..];
        if wants_help(rest) {
            print!("{}", cmd_help(cmd));
            return ExitCode::SUCCESS;
        }
        return (cmd.run)(rest);
    }
    if which == "all" || mca_bench::claim_tables().iter().any(|c| c.id == which) {
        if wants_help(&args[1..]) {
            println!(
                "Usage: experiments {which} [trials]\n\n\
                 Prints the `{which}` experiment table(s); see EXPERIMENTS.md.\n"
            );
            print!("{GLOBAL_FLAGS}");
            return ExitCode::SUCCESS;
        }
        return run_tables(which, &args[1..]);
    }
    eprintln!("error: unknown subcommand `{which}`\n{}", usage());
    ExitCode::from(2)
}

/// Parses the experiment tables' optional positional trial count. A table
/// summarizes its trials, so the count must be at least 1.
fn parse_runs(args: &[String], default: usize) -> Result<usize, ExitCode> {
    match args.first() {
        Some(t) => match t.parse() {
            Ok(t) if t > 0 => Ok(t),
            _ => {
                eprintln!(
                    "error: trial count `{t}` must be a positive number\n{}",
                    usage()
                );
                Err(ExitCode::from(2))
            }
        },
        None => Ok(default),
    }
}

/// `experiments [<id>|all] [trials]` — the claim tables. A table whose
/// gate fails prints `GATE <id>: <reason>` to stderr instead, and the run
/// exits 1.
fn run_tables(which: &str, rest: &[String]) -> ExitCode {
    let trials = match parse_runs(rest, mca_bench::CLAIM_TRIALS) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let t0 = Instant::now();
    let mut code = ExitCode::SUCCESS;
    for claim in mca_bench::claim_tables() {
        if which != "all" && which != claim.id {
            continue;
        }
        let t = Instant::now();
        match claim.section(trials) {
            Ok(section) => print!("{section}"),
            Err(why) => {
                eprintln!("GATE {}: {why}", claim.id);
                code = ExitCode::FAILURE;
            }
        }
        if logs(LogLevel::Verbose) {
            eprintln!("[{} in {:.1}s]", claim.id, t.elapsed().as_secs_f64());
        }
    }
    if logs(LogLevel::Summary) {
        eprintln!("[experiments done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
    code
}

/// `experiments sweep <matrix.toml> [--out F] [--journal F] [--limit N]
/// [--fresh] [--sequential]`
fn cmd_sweep(args: &[String]) -> ExitCode {
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut limit: Option<usize> = None;
    let mut fresh = false;
    let mut parallel = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return flag_needs("--out", "a file path"),
            },
            "--journal" => match it.next() {
                Some(p) => journal = Some(PathBuf::from(p)),
                None => return flag_needs("--journal", "a file path"),
            },
            "--limit" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => limit = Some(n),
                None => return flag_needs("--limit", "a trial count"),
            },
            "--fresh" => fresh = true,
            "--sequential" => parallel = false,
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("error: unexpected argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let Some(input) = input else {
        eprintln!("error: sweep needs a matrix file\n{}", usage());
        return ExitCode::from(2);
    };
    let mut cfg = SweepConfig::for_input(&input);
    if let Some(p) = out {
        cfg.out_path = p;
    }
    if let Some(p) = journal {
        cfg.journal_path = p;
    }
    cfg.limit = limit;
    cfg.fresh = fresh;
    cfg.parallel = parallel;

    let t0 = Instant::now();
    let summary = match mca_bench::run_sweep_file(&input, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", summary.line());
    if logs(LogLevel::Summary) {
        eprintln!(
            "[sweep `{}` in {:.1}s: {} -> {}]",
            input.display(),
            t0.elapsed().as_secs_f64(),
            cfg.out_path.display(),
            cfg.journal_path.display()
        );
    }
    if summary.complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// `experiments serve <queue-dir> [--out-dir D] [--once] [--poll-ms N]
/// [--sequential]`
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut queue: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut once = false;
    let mut poll_ms: u64 = 1000;
    let mut parallel = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => match it.next() {
                Some(p) => out_dir = Some(PathBuf::from(p)),
                None => return flag_needs("--out-dir", "a directory"),
            },
            "--poll-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => poll_ms = n,
                None => return flag_needs("--poll-ms", "a millisecond count"),
            },
            "--once" => once = true,
            "--sequential" => parallel = false,
            other if !other.starts_with('-') && queue.is_none() => {
                queue = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("error: unexpected argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let Some(queue) = queue else {
        eprintln!("error: serve needs a queue directory\n{}", usage());
        return ExitCode::from(2);
    };
    let mut cfg = ServeConfig::new(queue);
    if let Some(d) = out_dir {
        cfg.out_dir = d;
    }
    cfg.poll_ms = poll_ms;
    cfg.parallel = parallel;

    let report = |input: &Path, summary: &mca_bench::SweepSummary| {
        println!("served {}: {}", input.display(), summary.line());
    };
    let err = if once {
        match mca_bench::serve_once(&cfg) {
            Ok(served) => {
                for (input, summary) in &served {
                    report(input, summary);
                }
                if logs(LogLevel::Summary) {
                    eprintln!("[serve --once: {} input(s) drained]", served.len());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => e,
        }
    } else {
        match mca_bench::serve(&cfg, |input, summary| report(input, summary)) {
            Ok(never) => match never {},
            Err(e) => e,
        }
    };
    eprintln!("error: {err}");
    ExitCode::FAILURE
}

fn flag_needs(flag: &str, what: &str) -> ExitCode {
    eprintln!("error: {flag} needs {what}\n{}", usage());
    ExitCode::from(2)
}

/// `experiments profile [--scenario <file.toml>] [--slots N] [--jsonl <path>]`
fn run_profile(args: &[String]) -> ExitCode {
    let mut scenario_path: Option<&str> = None;
    let mut slots: Option<u64> = None;
    let mut jsonl_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => match it.next() {
                Some(p) => scenario_path = Some(p),
                None => return flag_needs("--scenario", "a file path"),
            },
            "--slots" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => slots = Some(n),
                _ => return flag_needs("--slots", "a positive number"),
            },
            "--jsonl" => match it.next() {
                Some(p) => jsonl_path = Some(p),
                None => return flag_needs("--jsonl", "a file path"),
            },
            other => {
                eprintln!("error: unexpected argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let scenario = match scenario_path.map(Scenario::load) {
        Some(Ok(mut s)) => {
            if let Some(n) = slots {
                s.max_slots = n;
            }
            s
        }
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        None => mca_bench::default_profile_scenario(slots.unwrap_or(30)),
    };
    let t0 = Instant::now();
    let run = mca_bench::profile_scenario(&scenario, mca_bench::PROFILE_SEED);
    // The recorder's export must satisfy the documented v1 schema before
    // anything is printed or written.
    let jsonl = run.recorder.to_jsonl();
    for (i, line) in jsonl.lines().enumerate() {
        if let Err(e) = mca_obs::validate_jsonl_line(line) {
            eprintln!("error: JSONL line {} violates the v1 schema: {e}", i + 1);
            return ExitCode::FAILURE;
        }
    }
    println!("{}", mca_bench::profile_table(&scenario, &run));
    if logs(LogLevel::Verbose) {
        eprint!("{}", run.report.to_folded());
    }
    if let Some(path) = jsonl_path {
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if logs(LogLevel::Summary) {
            eprintln!("[wrote {path}]");
        }
    }
    if logs(LogLevel::Summary) {
        eprintln!(
            "[profile `{}` in {:.1}s: phase spans cover {:.1}% of slot time]",
            scenario.name,
            t0.elapsed().as_secs_f64(),
            run.slot_coverage() * 100.0
        );
    }
    if !run.gate_ok() {
        eprintln!(
            "error: phase spans cover {:.1}% of slot wall time, below the {:.0}% gate",
            run.slot_coverage() * 100.0,
            mca_bench::COVERAGE_GATE * 100.0
        );
        return ExitCode::FAILURE;
    }
    if !run.arenas_ok(scenario.len()) {
        eprintln!(
            "error: a Phase-2 arena outgrew twice the {} nodes (see the memory line)",
            scenario.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `experiments --scenario <file.toml> [--seeds N]`
fn run_scenario_file(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut seeds: usize = 3;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => match it.next() {
                Some(p) => path = Some(p),
                None => return flag_needs("--scenario", "a file path"),
            },
            "--seeds" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => seeds = n,
                _ => return flag_needs("--seeds", "a positive number"),
            },
            other => {
                eprintln!("error: unexpected argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let path = path.expect("--scenario presence checked by caller");
    let scenario = match Scenario::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    println!("{}", mca_bench::run_scenario(&scenario, seeds));
    if logs(LogLevel::Summary) {
        eprintln!(
            "[scenario `{}` x {seeds} seeds in {:.1}s]",
            scenario.name,
            t0.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

/// `experiments artifacts [--write]`
fn cmd_artifacts(args: &[String]) -> ExitCode {
    let write = match args {
        [] => false,
        [w] if w == "--write" => true,
        _ => {
            eprintln!(
                "error: unexpected arguments `{}`\n{}",
                args.join(" "),
                usage()
            );
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let entries = artifacts::registry();
    let mut failed = 0;
    for artifact in &entries {
        let outcome = artifact.settle(Path::new("."), write);
        failed += usize::from(!outcome.is_ok());
        if outcome.verdict != Verdict::Ok || logs(LogLevel::Summary) {
            println!("{outcome}");
        }
    }
    let (n, secs) = (entries.len(), t0.elapsed().as_secs_f64());
    if failed > 0 {
        eprintln!("error: {failed} of {n} artifacts failed");
        return ExitCode::FAILURE;
    }
    if logs(LogLevel::Summary) {
        eprintln!("[artifacts: {n} files in {secs:.1}s]");
    }
    ExitCode::SUCCESS
}

/// `experiments flip-audit [<scenario.toml> | dense-slot]...`
fn cmd_flip_audit(targets: &[String]) -> ExitCode {
    use mca_bench::flip_audit;
    if let Some(flag) = targets.iter().find(|a| a.starts_with('-')) {
        eprintln!("error: unexpected argument `{flag}`\n{}", usage());
        return ExitCode::from(2);
    }
    let t0 = Instant::now();
    let mut runs = Vec::new();
    for target in targets {
        if target == flip_audit::DENSE_SLOT {
            runs.push(flip_audit::audit_dense_slot());
            continue;
        }
        match Scenario::load(target.as_str()) {
            Ok(s) => runs
                .extend(flip_audit::AUDIT_SEEDS.map(|seed| flip_audit::audit_scenario(&s, seed))),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() {
        runs = flip_audit::audit_all();
    }
    println!("{}", flip_audit::flip_audit_table(&runs));
    if logs(LogLevel::Summary) {
        eprintln!(
            "[flip audit of {} runs in {:.1}s]",
            runs.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    match flip_audit::flips_inside_bounds(&runs) {
        Ok(()) => {
            println!("every flip inside its bound");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `experiments check-scenarios [dir]`
///
/// Loads every file through [`SweepFile`], so plain scenarios and
/// `[matrix]` sweep files both validate; sweep files additionally expand
/// and report their trial count.
fn cmd_check_scenarios(args: &[String]) -> ExitCode {
    let dir = args.first().map_or("scenarios", |s| s.as_str());
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("error: no .toml files under {dir}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for path in &files {
        match SweepFile::load(path) {
            Ok(f) if f.is_sweep() => {
                let s = &f.base;
                println!(
                    "ok   {} (n={}, F={}, {} slots; matrix -> {} scenarios x {} seeds)",
                    path.display(),
                    s.len(),
                    s.channels,
                    s.max_slots,
                    f.scenarios().len(),
                    f.matrix.seeds().len()
                );
            }
            Ok(f) => {
                let s = &f.base;
                println!(
                    "ok   {} (n={}, F={}, {} slots)",
                    path.display(),
                    s.len(),
                    s.channels,
                    s.max_slots
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {e}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{} scenario files failed to parse", files.len());
        ExitCode::FAILURE
    } else {
        println!("{} scenario files parsed cleanly", files.len());
        ExitCode::SUCCESS
    }
}

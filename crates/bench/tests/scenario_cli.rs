//! End-to-end acceptance for scenario files and the `experiments` command
//! line: a world that went through TOML drives the simulator to
//! *bit-identical* results, and usage errors exit 2 naming the argument.

use mca_bench::scenario_flood_trial;
use mca_scenario::{builtin_scenarios, Scenario};
use std::path::PathBuf;
use std::process::Command;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Runs the actual `experiments` binary and returns
/// `(exit_code, stdout, stderr)`.
fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let (code, _, stderr) = run_cli(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    assert!(stderr.contains("Usage:"), "{stderr}");
}

#[test]
fn unknown_option_and_bad_seeds_exit_2() {
    let (code, _, stderr) = run_cli(&["--frobnicate"]);
    assert_eq!(code, 2, "{stderr}");
    let (code, _, stderr) = run_cli(&["--scenario", "x.toml", "--seeds", "zero"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--seeds"), "{stderr}");
}

#[test]
fn a_zero_or_malformed_trial_count_exits_2_naming_it() {
    // A table summarizes its trials; zero of them is a usage error, not a
    // panic in the summary.
    for args in [["e1", "0"], ["all", "0"], ["e1", "two"]] {
        let (code, _, stderr) = run_cli(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("trial count `{}`", args[1])),
            "{stderr}"
        );
    }
}

#[test]
fn quick_is_not_a_subcommand() {
    let (code, _, stderr) = run_cli(&["quick"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown subcommand `quick`"), "{stderr}");
}

#[test]
fn one_claim_table_prints_its_section_of_the_committed_file() {
    let committed = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
    )
    .unwrap();
    let start = committed.find("### E11 ").expect("an E11 section");
    let len = committed[start + 1..]
        .find("### ")
        .map_or(committed.len() - start, |n| n + 1);
    let (code, stdout, stderr) = run_cli(&["e11"]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, committed[start..start + len]);
}

#[test]
fn missing_scenario_file_exits_1_with_the_path() {
    let (code, _, stderr) = run_cli(&["--scenario", "/no/such/world.toml"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("world.toml"), "{stderr}");
}

#[test]
fn malformed_scenario_file_reports_line_and_field() {
    let dir = std::env::temp_dir().join("mca_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.toml");
    std::fs::write(
        &path,
        "name = \"broken\"\n[sinr]\nalpha = 1.0\n[deployment]\nkind = \"line\"\nn = 3\nspacing = 2.0\n",
    )
    .unwrap();
    let (code, _, stderr) = run_cli(&["--scenario", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(stderr.contains("line 3"), "{stderr}");
    assert!(stderr.contains("sinr.alpha"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_with_a_scenario_file_reaches_the_profile_handler() {
    // `--scenario` after a subcommand is that subcommand's flag, not the
    // flag form: this must end in `run_profile`, never in the flag form's
    // "unexpected argument `profile`".
    let path = scenarios_dir().join("static-uniform.toml");
    let (_, stdout, stderr) = run_cli(&[
        "profile",
        "--scenario",
        path.to_str().unwrap(),
        "--slots",
        "5",
    ]);
    assert!(!stderr.contains("unexpected argument"), "{stderr}");
    // Exit status is the coverage gate's business; the table is ours.
    assert!(stdout.contains("static-uniform"), "{stdout}\n{stderr}");
    assert!(stdout.contains("| slot | 5 |"), "{stdout}\n{stderr}");
    assert!(stdout.contains("| nodes_polled |"), "{stdout}\n{stderr}");
}

#[test]
fn scenario_run_via_cli_prints_a_table_and_exits_0() {
    let path = scenarios_dir().join("static-uniform.toml");
    let (code, stdout, _) = run_cli(&["--scenario", path.to_str().unwrap(), "--seeds", "2"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("static-uniform"), "{stdout}");
    assert!(stdout.contains("coverage"), "{stdout}");
}

#[test]
fn check_scenarios_validates_the_catalog_via_cli() {
    let dir = scenarios_dir();
    let (code, stdout, _) = run_cli(&["check-scenarios", dir.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("parsed cleanly"), "{stdout}");
    let (code, _, stderr) = run_cli(&["check-scenarios", "/no/such/dir"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn round_tripped_scenarios_produce_bit_identical_trials() {
    for entry in builtin_scenarios() {
        let original = &entry.scenario;
        let round_tripped = Scenario::from_toml_str(&original.to_toml()).unwrap();
        for seed in [0u64, 1, 17] {
            let a = scenario_flood_trial(original, seed);
            let b = scenario_flood_trial(&round_tripped, seed);
            assert_eq!(
                a, b,
                "{} seed {seed}: TOML round-trip changed the simulation",
                original.name
            );
        }
    }
}

#[test]
fn dynamic_scenarios_report_environment_effects() {
    // The fading world drops receptions; the static baseline never does.
    let entries = builtin_scenarios();
    let fading = entries
        .iter()
        .find(|e| e.scenario.name == "fading-jammer")
        .unwrap();
    let baseline = entries
        .iter()
        .find(|e| e.scenario.name == "static-uniform")
        .unwrap();
    let faded = scenario_flood_trial(&fading.scenario, 2);
    let clear = scenario_flood_trial(&baseline.scenario, 2);
    assert_eq!(clear.env_drops, 0);
    assert!(
        faded.busy_failures + faded.env_drops > 0,
        "fading+jamming left no trace: {faded:?}"
    );
}

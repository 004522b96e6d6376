//! Kill-then-resume byte-identity for `run_sweep`, under forced
//! parallelism.
//!
//! The resume contract: a sweep interrupted at *any* trial boundary (or
//! even mid-write, leaving a torn line) and then resumed must produce an
//! output stream and journal byte-identical to the uninterrupted run.
//! These tests exercise every interrupt point of a small matrix rather
//! than sampling, plus torn-tail and `--fresh` recovery.
//!
//! Lives in its own test binary so `MCA_FORCE_PAR=1` (read once per
//! process by the rayon shim) covers the whole file.

use std::fs;
use std::path::{Path, PathBuf};

use mca_bench::{run_sweep, SweepConfig, SweepError};
use mca_scenario::matrix::SweepFile;

/// Forces the work-stealing pool on even on single-CPU CI runners, so the
/// chunked parallel emission path is what these byte-identity checks see.
fn force_par() {
    std::env::set_var("MCA_FORCE_PAR", "1");
}

/// A small sweep (2 n-values x 2 channel-values x 2 seeds = 8 trials)
/// that still crosses the runner's scenario boundaries several times.
const SWEEP_TOML: &str = r#"
name = "resume-prop"
channels = 2
max_slots = 80

[deployment]
kind = "uniform"
n = 10
side = 4.0

[matrix]
seeds = [1, 7]

[matrix.axes]
n = [8, 12]
channels = [1, 2]
"#;

/// A scratch directory unique to this test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("mca-sweep-resume-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn config(&self, name: &str) -> SweepConfig {
        SweepConfig::for_input(&self.0.join(format!("{name}.toml")))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).expect("read sweep artifact")
}

/// Runs the sweep uninterrupted and returns (out bytes, journal bytes).
fn golden(sweep: &SweepFile, scratch: &Scratch) -> (String, String) {
    let cfg = scratch.config("golden");
    let summary = run_sweep(sweep, &cfg).expect("uninterrupted sweep");
    assert!(summary.complete);
    assert_eq!(summary.skipped, 0);
    assert_eq!(summary.executed, summary.total);
    (read(&cfg.out_path), read(&cfg.journal_path))
}

#[test]
fn resume_is_byte_identical_at_every_interrupt_point() {
    force_par();
    let sweep = SweepFile::from_toml_str(SWEEP_TOML).expect("parse sweep");
    let scratch = Scratch::new("every-point");
    let (out, journal) = golden(&sweep, &scratch);
    let total = sweep.trial_set().expect("trial set").len();
    assert_eq!(total, 8);

    // One more input: the same sweep with a recorder requested on every
    // trial must not move a byte of either file.
    let observed = SweepFile::from_toml_str(&format!("{SWEEP_TOML}\n[obs]\nenabled = true\n"))
        .expect("parse observed sweep");
    assert!(observed.scenarios().iter().all(|s| s.obs.is_some()));
    let cfg = scratch.config("observed");
    assert!(run_sweep(&observed, &cfg).expect("observed sweep").complete);
    assert_eq!(read(&cfg.out_path), out, "[obs] changed the out stream");
    assert_eq!(
        read(&cfg.journal_path),
        journal,
        "[obs] changed the journal"
    );

    for limit in 0..=total {
        let cfg = SweepConfig {
            limit: Some(limit),
            ..scratch.config(&format!("limit-{limit}"))
        };
        let first = run_sweep(&sweep, &cfg).expect("interrupted sweep");
        assert_eq!(first.executed, limit);
        assert_eq!(first.complete, limit == total);

        let resume = SweepConfig {
            limit: None,
            ..cfg.clone()
        };
        let second = run_sweep(&sweep, &resume).expect("resumed sweep");
        assert!(second.complete);
        assert_eq!(
            second.skipped, limit,
            "resume must skip the journaled prefix"
        );
        assert_eq!(second.executed, total - limit);
        assert_eq!(
            read(&cfg.out_path),
            out,
            "out stream diverged at limit {limit}"
        );
        assert_eq!(
            read(&cfg.journal_path),
            journal,
            "journal diverged at limit {limit}"
        );
    }
}

#[test]
fn resume_recovers_from_torn_tails() {
    force_par();
    let sweep = SweepFile::from_toml_str(SWEEP_TOML).expect("parse sweep");
    let scratch = Scratch::new("torn");
    let (out, journal) = golden(&sweep, &scratch);

    let cfg = SweepConfig {
        limit: Some(5),
        ..scratch.config("torn")
    };
    run_sweep(&sweep, &cfg).expect("interrupted sweep");

    // A crash mid-write leaves a record flushed but unjournaled, or a
    // non-newline-terminated tail on either file. All three must heal.
    let out_bytes = read(&cfg.out_path);
    let journal_bytes = read(&cfg.journal_path);
    fs::write(&cfg.out_path, &out_bytes[..out_bytes.len() - 9]).unwrap();
    let trimmed: String = journal_bytes
        .lines()
        .take(4)
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&cfg.journal_path, trimmed).unwrap();

    let resume = SweepConfig {
        limit: None,
        ..cfg.clone()
    };
    let summary = run_sweep(&sweep, &resume).expect("resumed after torn tail");
    assert!(summary.complete);
    // Out was torn inside record 5, journal holds 4 complete lines: the
    // reconciled prefix is min(4, 4) = 4 trials.
    assert_eq!(summary.skipped, 4);
    assert_eq!(summary.executed, 4);
    assert_eq!(read(&cfg.out_path), out);
    assert_eq!(read(&cfg.journal_path), journal);
}

#[test]
fn fresh_discards_a_corrupt_journal() {
    force_par();
    let sweep = SweepFile::from_toml_str(SWEEP_TOML).expect("parse sweep");
    let scratch = Scratch::new("fresh");
    let (out, journal) = golden(&sweep, &scratch);

    let cfg = scratch.config("fresh");
    run_sweep(&sweep, &cfg).expect("first run");
    fs::write(&cfg.journal_path, "not-a-scenario\t999\n").unwrap();

    // A journal that disagrees with the enumeration is an error, not a
    // silent re-run...
    match run_sweep(&sweep, &cfg) {
        Err(SweepError::JournalMismatch { line, .. }) => assert_eq!(line, 1),
        other => panic!("expected JournalMismatch, got {other:?}"),
    }

    // ...and `fresh` is the documented escape hatch, reproducing the
    // golden bytes from scratch.
    let fresh = SweepConfig { fresh: true, ..cfg };
    let summary = run_sweep(&sweep, &fresh).expect("fresh rerun");
    assert!(summary.complete);
    assert_eq!(summary.skipped, 0);
    assert_eq!(read(&fresh.out_path), out);
    assert_eq!(read(&fresh.journal_path), journal);
}

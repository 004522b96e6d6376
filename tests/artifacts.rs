//! The committed artifacts (`mca_bench::artifacts`): every registered
//! file regenerates byte for byte, the files agree with each other, and
//! the check names exactly what is wrong when a file does not match.

use mca_bench::artifacts::{check, registry, Artifact, Verdict};
use mca_bench::claim_tables;
use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(repo().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The integer after `"key": ` on `line`.
fn field(line: &str, key: &str) -> u64 {
    let (_, rest) = line
        .split_once(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no `{key}` in {line}"));
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("`{key}` is not an integer in {line}"))
}

#[test]
fn every_committed_artifact_regenerates_byte_for_byte() {
    let failed: Vec<String> = check(repo(), &registry())
        .iter()
        .filter(|o| !o.is_ok())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn the_flip_audit_agrees_with_the_golden_trials() {
    // Both files are what the code renders (the test above), so they can
    // be read instead of re-audited.
    let flips = read("scenarios/GOLDEN_flips.json");
    let trials = read("scenarios/GOLDEN_trials.json");
    let runs: Vec<&str> = flips.lines().filter(|l| l.contains("\"run\": ")).collect();
    assert!(runs.len() > 1, "{flips}");
    for run in runs {
        let name = run.split('"').nth(3).expect("a run name");
        let seed = field(run, "seed");
        if name == "dense-slot" {
            // The hierarchy's price: on the dense slot the published bound
            // stays a few percent of what a listener senses.
            let mean = field(run, "mean_bound_ppm");
            assert!(mean <= 30_000, "mean bound {mean} ppm of total power");
            continue;
        }
        // The audited runs are the golden trials: what Fast mode decoded
        // there is what the trial metrics count as receptions.
        let key = format!("\"scenario\": \"{name}\", \"seed\": {seed},");
        let trial = trials
            .lines()
            .find(|l| l.contains(&key))
            .unwrap_or_else(|| panic!("no golden trial for {key}"));
        assert_eq!(field(run, "decodes"), field(trial, "receptions"), "{run}");
    }
}

#[test]
fn experiments_md_holds_every_claim_table_in_registry_order() {
    // The committed file against the registry: its `### ` headings, in
    // order, are the ids of `claim_tables()` (an entry may render several
    // tables, each headed by its id), and every table has a header, a rule
    // and at least one row.
    let md = read("EXPERIMENTS.md");
    let sections: Vec<&str> = md.split("\n### ").skip(1).collect();
    let headed_by = |section: &str, id: &str| {
        let id = id.to_uppercase();
        section.starts_with(&id) && !section[id.len()..].starts_with(|c: char| c.is_ascii_digit())
    };
    let mut next = sections.iter().peekable();
    for claim in claim_tables() {
        let mut tables = 0;
        while let Some(section) = next.next_if(|s| headed_by(s, claim.id)) {
            let rows = section.lines().filter(|l| l.starts_with('|')).count();
            assert!(rows >= 3, "{} has no rows: {section}", claim.id);
            tables += 1;
        }
        assert!(tables >= 1, "{} is not next: {:?}", claim.id, next.peek());
    }
    assert_eq!(next.next(), None, "a table beyond the registry");
}

#[test]
fn a_corrupt_missing_or_gated_artifact_is_named_and_nothing_else() {
    // The registry's paths with the committed bytes as their renderers:
    // the check itself under test, at no regeneration cost.
    let files: Vec<(String, String)> = registry()
        .into_iter()
        .map(|a| (a.path.clone(), read(&a.path)))
        .collect();
    let entries: Vec<Artifact> = files
        .iter()
        .map(|(path, text)| {
            let text = text.clone();
            Artifact::new(path.clone(), move || Ok(text.clone()))
        })
        .collect();
    let root: PathBuf = std::env::temp_dir().join(format!("mca-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for entry in &entries {
        assert_eq!(entry.settle(&root, true).verdict, Verdict::Written);
    }
    assert!(check(&root, &entries)
        .iter()
        .all(|o| o.verdict == Verdict::Ok));

    for (i, (path, text)) in files.iter().enumerate() {
        let mut bytes = text.clone().into_bytes();
        bytes[text.len() / 2] ^= 1;
        std::fs::write(root.join(path), &bytes).unwrap();
        let outcomes = check(&root, &entries);
        let named: Vec<&str> = outcomes
            .iter()
            .filter(|o| !o.is_ok())
            .map(|o| o.path.as_str())
            .collect();
        assert_eq!(named, [path.as_str()], "one flipped byte in {path}");
        let line = outcomes[i].to_string();
        assert!(line.starts_with(&format!("STALE {path} (")), "{line}");
        assert!(line.contains(" differs\n"), "{line}");
        std::fs::write(root.join(path), text).unwrap();
    }

    let (path, _) = &files[0];
    std::fs::remove_file(root.join(path)).unwrap();
    let missing = entries[0].settle(&root, false).to_string();
    assert!(missing.starts_with(&format!("STALE {path} (")), "{missing}");
    assert!(
        missing.contains("`experiments artifacts --write`"),
        "{missing}"
    );
    assert_eq!(entries[0].settle(&root, true).verdict, Verdict::Written);
    assert_eq!(entries[0].settle(&root, true).verdict, Verdict::Ok);

    // A failed gate is reported, and `--write` leaves the stale file as
    // it found it.
    let (path, _) = &files[1];
    std::fs::write(root.join(path), "stale\n").unwrap();
    let gated = Artifact::new(path.clone(), || {
        Err("repair 9 slots >= rebuild 8 slots".into())
    });
    let outcome = gated.settle(&root, true);
    assert_eq!(
        outcome.verdict,
        Verdict::Gate("repair 9 slots >= rebuild 8 slots".into())
    );
    assert!(outcome.to_string().starts_with(&format!("GATE {path} (")));
    assert_eq!(std::fs::read_to_string(root.join(path)).unwrap(), "stale\n");
    std::fs::remove_dir_all(&root).unwrap();
}

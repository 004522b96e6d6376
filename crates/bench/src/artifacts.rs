//! The committed artifacts: every file in the repository that code
//! regenerates byte for byte, in one registry.
//!
//! An [`Artifact`] is a repo-relative path plus a renderer that returns
//! the file's bytes, or `Err` when a gate the file carries fails: a flip
//! outside its bound, or a claim table's gate (repair not cheaper than
//! rebuild, proactive repair not beating reactive, an unclean audit).
//! [`check`] regenerates every entry and compares it with the committed
//! bytes. `experiments artifacts [--write]` runs it over [`registry`]; it
//! is the only code that reads or writes a committed artifact.
//!
//! Every renderer is deterministic whatever the thread count, shard grid
//! or vector width, so one check serves every execution leg: plain,
//! `MCA_FORCE_PAR=1` at any `--threads`, and a `target-cpu=x86-64` build.
//! A new committed file is one more line in [`registry`].

use crate::claims::experiments_md;
use crate::{flip_audit, golden_pipeline_json, golden_trials_json};
use mca_scenario::builtin_scenarios;
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// One committed file: where it lives and how to render it.
pub struct Artifact {
    /// Path relative to the repository root.
    pub path: String,
    render: Box<dyn Fn() -> Result<String, String>>,
}

/// What [`Artifact::settle`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The committed bytes are the rendered ones.
    Ok,
    /// The file is missing or differs; the text says where.
    Stale(String),
    /// The file was stale and has been rewritten.
    Written,
    /// The renderer's gate failed; nothing was written.
    Gate(String),
}

/// One artifact's verdict, with what rendering it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Path relative to the repository root.
    pub path: String,
    /// What was found.
    pub verdict: Verdict,
    /// Rendered size (0 when the gate failed).
    pub bytes: usize,
    /// Seconds spent rendering and comparing.
    pub secs: f64,
}

impl Outcome {
    /// Whether the file now holds the rendered bytes.
    pub fn is_ok(&self) -> bool {
        matches!(self.verdict, Verdict::Ok | Verdict::Written)
    }
}

/// `ok|STALE|GATE|wrote <path> (<bytes> B, <secs> s)`, then the reason,
/// indented.
impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, why) = match &self.verdict {
            Verdict::Ok => ("ok", ""),
            Verdict::Stale(why) => ("STALE", why.as_str()),
            Verdict::Written => ("wrote", ""),
            Verdict::Gate(why) => ("GATE", why.as_str()),
        };
        let (path, bytes, secs) = (&self.path, self.bytes, self.secs);
        write!(f, "{tag} {path} ({bytes} B, {secs:.2} s)")?;
        why.lines().try_for_each(|line| write!(f, "\n  {line}"))
    }
}

impl Artifact {
    /// An entry at `path` (repo-relative) rendered by `render`.
    pub fn new(
        path: impl Into<String>,
        render: impl Fn() -> Result<String, String> + 'static,
    ) -> Artifact {
        Artifact {
            path: path.into(),
            render: Box::new(render),
        }
    }

    /// Renders the entry and compares it with the file under `root`. With
    /// `write`, a stale file is replaced by the rendered bytes; a file
    /// that already holds them is not touched, and nothing is written when
    /// the gate fails.
    pub fn settle(&self, root: &Path, write: bool) -> Outcome {
        let t0 = Instant::now();
        let (verdict, bytes) = match (self.render)() {
            Err(gate) => (Verdict::Gate(gate), 0),
            Ok(text) => (compare(&root.join(&self.path), &text, write), text.len()),
        };
        Outcome {
            path: self.path.clone(),
            verdict,
            bytes,
            secs: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Compares the file at `path` with `text`, rewriting it if `write`.
fn compare(path: &Path, text: &str, write: bool) -> Verdict {
    let why = match std::fs::read(path) {
        Ok(committed) if committed == text.as_bytes() => return Verdict::Ok,
        Ok(committed) => first_divergence(&String::from_utf8_lossy(&committed), text),
        Err(e) => format!("cannot read it: {e}"),
    };
    if !write {
        return Verdict::Stale(format!(
            "{why}\nregenerate with `experiments artifacts --write`"
        ));
    }
    let dir = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    match dir.and_then(|()| std::fs::write(path, text)) {
        Ok(()) => Verdict::Written,
        Err(e) => Verdict::Stale(format!("{why}\ncannot write it: {e}")),
    }
}

/// Where `committed` first departs from `rendered`, line by line.
fn first_divergence(committed: &str, rendered: &str) -> String {
    let show = |line: Option<&str>| line.map_or("<end of file>".into(), |l| format!("`{l}`"));
    let (mut c, mut r) = (committed.lines(), rendered.lines());
    for n in 1.. {
        let (a, b) = (c.next(), r.next());
        if a != b {
            let (a, b) = (show(a), show(b));
            return format!("line {n} differs\ncommitted {a}\nrendered  {b}");
        }
        if a.is_none() {
            break;
        }
    }
    "differs in line endings or the final newline".into()
}

/// Settles every entry under `root` without writing.
pub fn check(root: &Path, entries: &[Artifact]) -> Vec<Outcome> {
    entries.iter().map(|a| a.settle(root, false)).collect()
}

/// Every committed artifact, cheapest first: the scenario catalog, the
/// golden trial metrics, the golden pipeline, the flip audit, and the
/// paper's claim tables.
pub fn registry() -> Vec<Artifact> {
    let catalog = builtin_scenarios().into_iter().map(|entry| {
        let path = format!("scenarios/{}", entry.file_name());
        Artifact::new(path, move || Ok(entry.file_contents()))
    });
    catalog
        .chain([
            Artifact::new("scenarios/GOLDEN_trials.json", || Ok(golden_trials_json())),
            Artifact::new("scenarios/GOLDEN_pipeline.json", || {
                Ok(golden_pipeline_json())
            }),
            Artifact::new("scenarios/GOLDEN_flips.json", flip_audit::golden_flips),
            Artifact::new("EXPERIMENTS.md", experiments_md),
        ])
        .collect()
}

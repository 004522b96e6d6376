//! What the benchmark knows about the machine it runs on: the fingerprint
//! printed with every result, and the process counters (CPU time, peak
//! resident memory) the end-to-end metrics read.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat`'s CPU fields
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Worker threads the benchmark pins the pool to: every core, at most 4.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds this process (all threads, including exited
/// ones) has consumed, at the kernel's 10 ms tick resolution; 0 where
/// `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The `[build] rustflags` of the `.cargo/config.toml` in the working
/// directory (what `cargo run` from the repository root compiles with).
fn config_rustflags() -> Option<Vec<String>> {
    let src = std::fs::read_to_string(".cargo/config.toml").ok()?;
    let root = mca_serde::parse(&src).ok()?;
    let build = root.get("build")?.as_table("build").ok()?;
    let flags = build.get("rustflags")?.as_array("build.rustflags").ok()?;
    Some(
        flags
            .iter()
            .filter_map(|v| v.as_str("build.rustflags").ok().map(String::from))
            .collect(),
    )
}

/// `RUSTFLAGS` if set, then the working directory's configured flags.
fn rustflags() -> String {
    let mut flags: Vec<String> = std::env::var("RUSTFLAGS").into_iter().collect();
    flags.extend(config_rustflags().unwrap_or_default());
    flags.join(" ")
}

/// The SIMD features this binary was compiled to use.
fn compiled_simd() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "baseline"
    }
}

/// The host fingerprint recorded with every run.
pub fn fingerprint(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        ("simd_detected", Json::str(mca_sinr::lanes::simd_level())),
        ("simd_compiled", Json::str(compiled_simd())),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("rustflags", Json::str(rustflags())),
        ("pool_threads", Json::Num(pool_threads() as f64)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// A scratch directory under the working directory (the benchmark reads
/// and writes only inside its checkout), removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.bench_tmp/<label>-<pid>` afresh.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory.
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        let path = PathBuf::from(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is ignored by git.
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_sane_values() {
        let mut x = 0u64;
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_seconds() - before;
        assert!((0.02..1.0).contains(&spent), "cpu delta {spent}");
        assert!(peak_rss_mb() > 0.5);
        assert!(pool_threads() >= 1 && pool_threads() <= 4);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint(42);
        for key in [
            "nproc",
            "cpu_model",
            "simd_detected",
            "simd_compiled",
            "rustc",
            "rustflags",
            "pool_threads",
            "git_commit",
            "seed",
        ] {
            assert!(f.get(key).is_some(), "{key}");
        }
        assert_eq!(f.get("seed").and_then(Json::as_f64), Some(42.0));
    }
}

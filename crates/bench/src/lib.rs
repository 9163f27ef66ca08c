//! # figaro-bench — the paper-reproduction benchmark harness
//!
//! Each `cargo bench` target regenerates one table or figure of the
//! paper's evaluation section and prints the measured series next to the
//! paper's reported values (see `EXPERIMENTS.md` at the workspace root
//! for the recorded comparison). Targets share the on-disk result cache
//! under `target/figaro-cache`, so figures built from the same runs
//! (7/9/10/11 and 8/9/10/11) are cheap after the first one.
//!
//! Environment knobs:
//!
//! * `FIGARO_SCALE` = `tiny` | `small` (default) | `full` — instructions
//!   per core;
//! * `FIGARO_FULL_SWEEPS=1` — run sweep figures (12–15) and the
//!   `streaming_scenarios` sensitivity grid over the full set instead of
//!   the representative subset;
//! * `FIGARO_LONG_RUN=<ops>` — append long-run streaming mixes (that
//!   many memory operations per core, bounded memory at any length) to
//!   the `streaming_scenarios` target;
//! * `FIGARO_SCHED=frfcfs|fcfs|frfcfs-cap<N>|wdrain<H>-<L>` — the
//!   memory-controller scheduling policy (non-default policies get
//!   their own result-cache keys; the `sched_sweep` target compares
//!   them explicitly).
//!
//! The `micro` target contains Criterion micro-benchmarks of simulator
//! hot paths (DRAM command issue, controller scheduling, tag-store
//! operations, trace generation).

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use figaro_sim::runner::Scale;
use figaro_sim::Runner;

/// Workspace-root path for a bench artifact (`BENCH_*.json`/`.csv`).
/// Bench binaries run with the *package* directory as cwd, so relative
/// paths would scatter artifacts under `crates/bench/`. The root is found
/// at run time from the working directory, so a relocated build writes
/// into the tree it runs in.
///
/// Exits with status 2 and a message when the working directory is not
/// inside a workspace.
#[must_use]
pub fn artifact_path(name: &str) -> PathBuf {
    let root = std::env::current_dir().and_then(|cwd| workspace_root(&cwd));
    match root {
        Ok(root) => root.join(name),
        Err(e) => {
            eprintln!("error: cannot place bench artifact {name}: {e}");
            std::process::exit(2);
        }
    }
}

/// The nearest ancestor of `start` (itself included) that holds a
/// `Cargo.lock`: the root of the workspace `start` lies in.
///
/// # Errors
///
/// `NotFound` when no ancestor holds a `Cargo.lock`.
fn workspace_root(start: &Path) -> io::Result<PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no Cargo.lock in {} or any parent directory", start.display()),
            )
        })
}

/// Builds the shared runner and prints the standard bench header.
#[must_use]
pub fn bench_runner(name: &str) -> Runner {
    let scale = Scale::from_env();
    println!("--- {name} (scale: {}, cache: target/figaro-cache) ---", scale.label());
    Runner::new(scale)
}

/// Runs `f`, printing its wall-clock duration.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    println!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    r
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;

    #[test]
    fn workspace_root_is_the_nearest_ancestor_with_a_lockfile() {
        let tmp = std::env::temp_dir().join(format!("figaro-bench-root-{}", std::process::id()));
        let nested = tmp.join("ws").join("crates").join("bench");
        fs::create_dir_all(&nested).unwrap();
        fs::write(tmp.join("ws").join("Cargo.lock"), "").unwrap();
        assert_eq!(workspace_root(&nested).unwrap(), tmp.join("ws"));
        assert_eq!(workspace_root(&tmp.join("ws")).unwrap(), tmp.join("ws"));
        fs::remove_file(tmp.join("ws").join("Cargo.lock")).unwrap();
        let err = workspace_root(&nested).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&tmp).unwrap();
    }
}

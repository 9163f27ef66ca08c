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
//! * the result-affecting overrides `FIGARO_KERNEL`, `FIGARO_SCHED`,
//!   `FIGARO_MAP`, `FIGARO_PAGEMAP`, `FIGARO_LOAD`, `FIGARO_WARMUP`,
//!   `FIGARO_FREE_RELOC` and `FIGARO_SNAPSHOT_DIR`, parsed once per bench
//!   by [`env_runner`] ([`Runner::from_env`]). Every cached run is named
//!   by its resolved spec, so each setting gets its own cache entries; a
//!   malformed value exits with status 2.
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

/// [`Runner::from_env`] at `scale`: the runner (and, through
/// [`Runner::system_config`], the system config) every bench derives its
/// runs from. A malformed `FIGARO_*` variable prints the error and exits
/// with status 2.
#[must_use]
pub fn env_runner(scale: Scale) -> Runner {
    with_env(Runner::new(scale))
}

/// `runner` with the process environment's overrides applied
/// ([`Runner::with_env`]); a malformed `FIGARO_*` variable prints the
/// error and exits with status 2.
#[must_use]
pub fn with_env(runner: Runner) -> Runner {
    runner.with_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Builds the shared runner and prints the standard bench header.
#[must_use]
pub fn bench_runner(name: &str) -> Runner {
    let scale = Scale::from_env();
    let runner = env_runner(scale);
    println!("--- {name} (scale: {}, cache: target/figaro-cache) ---", scale.label());
    runner
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

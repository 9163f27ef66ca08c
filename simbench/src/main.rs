//! `simbench`: the FIGARO simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it makes the traced run and prints
//! the per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod calib;
mod check;
mod inputs;
mod layers;
mod report;
mod run;
mod stats;
mod sweep;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use check::Checker;
use inputs::{inputs, Inputs, SweepSpec, Workload};
use report::{json_str, result_line, Metric};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <mix8_figcache|sat1ch_base|single_light|fig7_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The simulator reads `FIGARO_*` variables (kernel, scheduler, mapping,
/// page map, telemetry, ...) and the batch pool reads `RAYON_NUM_THREADS`;
/// any of them would silently time a different program, so the
/// benchmark refuses to start instead of reading them.
fn stray_environment() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("FIGARO_") || k == "RAYON_NUM_THREADS")
        .collect()
}

/// Removes the per-process work directory however the run ends, and its
/// parent once no other run is using it.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn provenance(args: &Args, root: &Path, picked: &str) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"inputs\": {}, \
         \"host_cpus\": {cpus}, \"rustc\": {}, \"git_commit\": {}, \"model\": {}, \"caches\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(picked),
        json_str(env!("SIMBENCH_RUSTC_VERSION")),
        json_str(&report::git_commit(root)),
        json_str("unvalidated against hardware; no error figure is given"),
        json_str("modelled caches start cold on every repetition and sweep point"),
    )
}

/// The runner drive's grid for a system workload: its distinct apps as
/// single-core points under its own mechanism.
fn system_grid(spec: &inputs::SystemSpec) -> SweepSpec {
    let mut apps = spec.apps.clone();
    apps.sort_by_key(|a| a.name);
    apps.dedup_by_key(|a| a.name);
    SweepSpec { apps, kinds: vec![spec.cfg.kind.clone()] }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_environment();
    if !stray.is_empty() {
        eprintln!(
            "simbench: refusing to run with {} set: the simulator would read it and time a \
             different program; unset it first",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    let Ok(root) = std::env::current_dir() else {
        eprintln!("simbench: cannot resolve the working directory");
        return ExitCode::from(2);
    };
    let work = WorkDir(root.join(".simbench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let budget = Duration::from_secs(args.seconds);
    let inputs = inputs(args.workload, args.seed);
    let picked = match &inputs {
        Inputs::System(s) => s.picked.clone(),
        Inputs::Sweep(s) => s.apps.iter().map(|a| a.name).collect::<Vec<_>>().join(","),
    };
    println!("{}", provenance(&args, &root, &picked));

    let mut checker = Checker::new(args.workload.name());
    let metrics: Vec<Metric> = match (&inputs, args.trace) {
        (Inputs::System(spec), false) => {
            let m = run::measure(spec, budget, &mut checker);
            run::reference_check(spec, &mut checker);
            m
        }
        (Inputs::Sweep(spec), false) => sweep::measure(spec, budget, &work.0, &mut checker),
        (Inputs::System(spec), true) => {
            let sources = || spec.sources();
            let mut m = run::layer_metrics(&spec.shape(&sources), budget, &mut checker);
            m.extend(sweep::runner_metrics(&system_grid(spec), &work.0, &mut checker).0);
            m
        }
        (Inputs::Sweep(spec), true) => sweep::layer_metrics(spec, budget, &work.0, &mut checker),
    };
    println!(
        "detail_fail_frac {{\"failed\": {}, \"attempted\": {}, \"fail_frac\": {}}}",
        checker.failed,
        checker.attempted,
        report::json_num(checker.fail_frac())
    );
    drop(work);
    println!("{}", result_line(checker.attempted, checker.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload fig7_sweep --seed 3 --seconds 15 --trace 1"));
        assert_eq!(
            a,
            Ok(Args { workload: Workload::Fig7Sweep, seed: 3, seconds: 15, trace: true })
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 15 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload fig7_sweep --seed 3 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload fig7_sweep --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fig7_sweep --seed 3 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}

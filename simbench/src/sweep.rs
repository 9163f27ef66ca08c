//! The sweep workload (`Runner::run_single_matrix`, cold then hot) and
//! the runner-layer drive every workload's traced run makes.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use figaro_sim::runner::RunSummary;
use figaro_sim::{
    ConfigKind, Kernel, MapKind, PageMapKind, Runner, Scale, SchedPolicyKind, System, SystemConfig,
};
use figaro_workloads::{AppProfile, Trace, TraceSource};

use crate::calib::{self, Calibrator};
use crate::check::Checker;
use crate::inputs::{pinned_config, SweepSpec};
use crate::report::{self, detail_line, Metric};
use crate::run::{self, Shape, MIN_REPS};
use crate::stats::median;

/// Scale of every sweep point.
const SCALE: Scale = Scale::Tiny;

/// A runner over a fresh result cache and snapshot directory under `dir`,
/// with every environment-driven knob pinned in code.
fn fresh_runner(dir: &Path) -> Runner {
    Runner::with_cache_dir(SCALE, dir.join("cache"))
        .with_kernel(Kernel::Event)
        .with_sched(SchedPolicyKind::FrFcfs)
        .with_mapping(MapKind::default())
        .with_page_map(PageMapKind::Identity)
        .with_snapshot_dir(dir.join("snapshots"))
}

fn check_point(cold: &RunSummary, other: &RunSummary, what: &str) -> Result<(), String> {
    if cold.truncated_cores != 0 {
        return Err(format!("{} core(s) hit the cycle cap", cold.truncated_cores));
    }
    if other != cold {
        return Err(format!("{what} differs from the cold result"));
    }
    Ok(())
}

fn grid_points(spec: &SweepSpec) -> Vec<(usize, usize)> {
    (0..spec.apps.len()).flat_map(|a| (0..spec.kinds.len()).map(move |k| (a, k))).collect()
}

/// Host timings and cold results of one pass.
struct Pass {
    setup_s: f64,
    cold_s: f64,
    hot_s: f64,
    cold: Vec<Vec<RunSummary>>,
}

/// One pass: a runner over fresh directories under `dir`, the grid cold,
/// then the grid again from the result cache. The set-up timed is what
/// precedes the sweep's first simulated cycle: the runner, then the first
/// point's trace and system, built as `Runner::run_single` builds them.
/// Checks every point against `reference` (the warm-up pass's cold
/// results; `None` for the warm-up itself).
fn run_pass(
    spec: &SweepSpec,
    dir: &Path,
    reference: Option<&[Vec<RunSummary>]>,
    checker: &mut Checker,
) -> Pass {
    let t0 = Instant::now();
    let runner = fresh_runner(dir);
    let (cfg, trace, insts) = point_parts(&runner, &spec.apps[0], &spec.kinds[0]);
    let first_point = System::new(cfg, vec![trace], &[insts]);
    let setup_s = t0.elapsed().as_secs_f64();
    drop(first_point);
    let t1 = Instant::now();
    let cold = runner.run_single_matrix(&spec.apps, &spec.kinds);
    let cold_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let hot = runner.run_single_matrix(&spec.apps, &spec.kinds);
    let hot_s = t2.elapsed().as_secs_f64();
    let reference = reference.unwrap_or(&cold);
    let pass = dir.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    for (a, k) in grid_points(spec) {
        let at = format!("{pass} point {}/{}", spec.apps[a].name, spec.kinds[k].label());
        checker
            .record(format!("{at} cold"), check_point(&reference[a][k], &cold[a][k], "cold pass"));
        checker.record(format!("{at} hot"), check_point(&cold[a][k], &hot[a][k], "hot pass"));
    }
    let _ = fs::remove_dir_all(dir);
    Pass { setup_s, cold_s, hot_s, cold }
}

/// End-to-end metrics of the sweep. A warm-up pass comes first: every
/// later pass must reproduce its results, and the peak RSS is read right
/// after it. Then passes run until `budget` is spent (at least
/// [`MIN_REPS`]), each between two calibrations on every worker's CPU,
/// and their host times are scaled to the reference host speed.
pub fn measure(
    spec: &SweepSpec,
    budget: Duration,
    work: &Path,
    checker: &mut Checker,
) -> Vec<Metric> {
    let warm = run_pass(spec, &work.join("warm-up"), None, checker);
    let rss = report::peak_rss();
    let points = spec.points() as f64;
    let cycles = warm.cold.iter().flatten().map(|s| s.cpu_cycles).sum::<u64>() as f64;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut cal: Vec<Calibrator> = (0..workers).map(|_| Calibrator::new()).collect();
    let mut cal_before = calib::calibrate(&mut cal);
    let start = Instant::now();
    let (mut setup_s, mut cold_s, mut hot_s) = (Vec::new(), Vec::new(), Vec::new());
    while cold_s.len() < MIN_REPS || start.elapsed() < budget {
        let dir = work.join(format!("pass-{}", cold_s.len() + 1));
        let pass = run_pass(spec, &dir, Some(&warm.cold), checker);
        let cal_after = calib::calibrate(&mut cal);
        let cal_s = (cal_before + cal_after) / 2.0;
        cal_before = cal_after;
        setup_s.push(calib::scale(pass.setup_s, cal_s));
        cold_s.push(calib::scale(pass.cold_s, cal_s));
        hot_s.push(calib::scale(pass.hot_s, cal_s));
    }
    let cycles_per_s: Vec<f64> = cold_s.iter().map(|s| cycles / s).collect();
    let points_per_s: Vec<f64> = cold_s.iter().map(|s| points / s).collect();
    let hit_points_per_s: Vec<f64> = hot_s.iter().map(|s| points / s).collect();
    println!(
        "{}",
        detail_line("sim_cycles_per_s", "cycles/s", &cycles_per_s, "cold_pass_s", &cold_s)
    );
    println!("{}", detail_line("points_per_s", "1/s", &points_per_s, "cold_pass_s", &cold_s));
    println!("{}", detail_line("hit_points_per_s", "1/s", &hit_points_per_s, "hot_pass_s", &hot_s));
    println!("{}", detail_line("setup_s", "s", &setup_s, "setup_s", &setup_s));
    vec![
        Metric::new("sim_cycles_per_s", median(&cycles_per_s), "cycles/s"),
        Metric::new("points_per_s", median(&points_per_s), "1/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        rss,
    ]
}

/// Instructions the runner targets for `profile` at [`SCALE`] (its
/// private rule, restated; the traced run checks the rebuilt point
/// against the runner's own result, so a drift fails loudly).
fn runner_insts(profile: &AppProfile) -> u64 {
    let base = SCALE.target_insts();
    let scaled = (base as f64 * (profile.nonmem_per_mem + 1.0) / 3.0) as u64;
    scaled.clamp(base, base * 12)
}

/// What `Runner::run_single` builds a point's system from: the runner's
/// trace for `app`, the single-core config and the instruction target.
fn point_parts(runner: &Runner, app: &AppProfile, kind: &ConfigKind) -> (SystemConfig, Trace, u64) {
    (pinned_config(1, kind.clone()), runner.trace_for(app, 0), runner_insts(app))
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// The runner layer, driven over `spec`'s grid with a fresh cache under
/// `dir`: every point cold on the batch fan-out (each timed), every point
/// again from the result cache (each timed), trace materialisation per
/// app, and one hot `run_single_matrix` pass. Returns the metrics and the
/// cold results.
pub fn runner_metrics(
    spec: &SweepSpec,
    dir: &Path,
    checker: &mut Checker,
) -> (Vec<Metric>, Vec<RunSummary>) {
    let runner = fresh_runner(dir);
    let points = grid_points(spec);
    let t0 = Instant::now();
    let cold: Vec<(RunSummary, f64)> = Runner::parallel_map(points.len(), |i| {
        let (a, k) = points[i];
        let t = Instant::now();
        let s = runner.run_single(&spec.apps[a], spec.kinds[k].clone());
        (s, t.elapsed().as_secs_f64())
    });
    let wall = t0.elapsed().as_secs_f64();
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(points.len());
    let busy: f64 = cold.iter().map(|(_, s)| s).sum();
    let point_s: Vec<f64> = cold.iter().map(|(_, s)| *s).collect();
    let cache_bytes = dir_bytes(&dir.join("cache"));
    let mut hot_ms = Vec::new();
    for (i, &(a, k)) in points.iter().enumerate() {
        let t = Instant::now();
        let s = runner.run_single(&spec.apps[a], spec.kinds[k].clone());
        hot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let at = format!("runner drive point {}/{}", spec.apps[a].name, spec.kinds[k].label());
        checker.record(at, check_point(&cold[i].0, &s, "cached result"));
    }
    let trace_ms: Vec<f64> = spec
        .apps
        .iter()
        .map(|app| {
            let t0 = Instant::now();
            black_box(runner.trace_for(app, 0));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let t1 = Instant::now();
    black_box(runner.run_single_matrix(&spec.apps, &spec.kinds));
    let hot_pass_s = t1.elapsed().as_secs_f64();
    let metrics = vec![
        Metric::new("runner.trace_for.ms_per_point", median(&trace_ms), "ms"),
        Metric::new("runner.point_s.p50", median(&point_s), "s"),
        Metric::new("runner.parallel_efficiency", busy / (workers as f64 * wall), "frac"),
        Metric::new("runner.cache_read_ms_per_point", median(&hot_ms), "ms"),
        Metric::new("runner.cache_bytes", cache_bytes as f64, "bytes"),
        Metric::new("runner.hit_points_per_s", points.len() as f64 / hot_pass_s, "1/s"),
    ];
    (metrics, cold.into_iter().map(|(s, _)| s).collect())
}

/// The sweep's traced run: the runner drive over its grid, then the
/// lower layers on one grid point (the first app under LISA-VILLA, the
/// engine only this workload exercises), rebuilt from the runner's own
/// trace and checked against the runner's result for that point.
pub fn layer_metrics(
    spec: &SweepSpec,
    budget: Duration,
    dir: &Path,
    checker: &mut Checker,
) -> Vec<Metric> {
    let (mut metrics, cold) = runner_metrics(spec, dir, checker);
    let app = spec.apps[0];
    let kind = ConfigKind::LisaVilla;
    let k = spec.kinds.iter().position(|c| *c == kind).expect("the Fig. 7 set includes LISA-VILLA");
    let (cfg, trace, insts) = point_parts(&fresh_runner(dir), &app, &kind);
    let targets = [insts];
    let sources = || vec![Box::new(trace.clone().into_source()) as Box<dyn TraceSource>];
    let shape = Shape { cfg: &cfg, targets: &targets, max_cycles: insts * 400, sources: &sources };
    let rebuilt = RunSummary::from_stats(&run::plain_rep(&shape).stats);
    checker.record(
        format!("rebuilt point {}/{}", app.name, kind.label()),
        check_point(&cold[k], &rebuilt, "rebuilt point"),
    );
    metrics.extend(run::layer_metrics(&shape, budget, checker));
    metrics
}

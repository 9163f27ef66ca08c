//! System workloads: timed repetitions of `System::from_sources` + `run`,
//! the reference-kernel check, and the traced run that yields the
//! per-layer metrics of the `sim`, `workloads`, `cpu`, `memctrl`, `dram`
//! and `core` layers.

use std::time::{Duration, Instant};

use figaro_sim::{Kernel, RunStats, System, SystemConfig};
use figaro_telemetry::TelemetryConfig;
use figaro_workloads::TraceSource;

use crate::calib::{self, Calibrator};
use crate::check::{same_run, Checker};
use crate::inputs::SystemSpec;
use crate::layers;
use crate::report::{self, detail_line, Metric};
use crate::stats::median;
use crate::timed::{self, Recording, TimedSource};

/// Repetitions made even when `--seconds` is already spent.
pub const MIN_REPS: usize = 3;
/// The reference-kernel check runs this fraction (1/N) of each target.
const REFERENCE_PREFIX_DIV: u64 = 40;

/// Everything one run needs besides its sources.
pub struct Shape<'a> {
    /// Pinned configuration.
    pub cfg: &'a SystemConfig,
    /// Per-core instruction targets.
    pub targets: &'a [u64],
    /// Cycle cap.
    pub max_cycles: u64,
    /// Fresh sources for one run, built the same way every call.
    pub sources: &'a dyn Fn() -> Vec<Box<dyn TraceSource>>,
}

impl SystemSpec {
    /// The spec as a [`Shape`] over `sources` (pass `&|| spec.sources()`).
    pub fn shape<'a>(&'a self, sources: &'a dyn Fn() -> Vec<Box<dyn TraceSource>>) -> Shape<'a> {
        Shape { cfg: &self.cfg, targets: &self.targets, max_cycles: self.max_cycles(), sources }
    }
}

/// One timed repetition.
#[derive(Debug)]
pub struct Rep {
    /// Construction before the first simulated cycle (sources included).
    pub setup_s: f64,
    /// `System::run`.
    pub run_s: f64,
    /// The run's statistics.
    pub stats: RunStats,
    /// Kernel self-profile lines (`None` unless profiling was enabled).
    pub profile: Option<Vec<String>>,
}

/// Builds the system over `sources` with telemetry pinned off, runs it,
/// and times both halves. With `profile`, kernel self-profiling is on.
fn timed_run(shape: &Shape<'_>, sources: Vec<Box<dyn TraceSource>>, profile: bool) -> Rep {
    let t0 = Instant::now();
    let mut sys = System::from_sources(shape.cfg.clone(), sources, shape.targets);
    sys.set_telemetry(&TelemetryConfig::off());
    if profile {
        sys.enable_profiling();
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stats = sys.run(shape.max_cycles);
    let run_s = t1.elapsed().as_secs_f64();
    let profile = sys.profile().map(figaro_sim::KernelProfile::report);
    Rep { setup_s, run_s, stats, profile }
}

/// One repetition over unwrapped sources (the measured path); its set-up
/// includes building the sources.
#[must_use]
pub fn plain_rep(shape: &Shape<'_>) -> Rep {
    let t0 = Instant::now();
    let sources = (shape.sources)();
    let sources_s = t0.elapsed().as_secs_f64();
    let mut rep = timed_run(shape, sources, false);
    rep.setup_s += sources_s;
    rep
}

/// Checks the event kernel against `Kernel::Reference` on a prefix of the
/// same inputs (every core's target divided by [`REFERENCE_PREFIX_DIV`]).
pub fn reference_check(spec: &SystemSpec, checker: &mut Checker) {
    let prefix = spec.prefix(REFERENCE_PREFIX_DIV);
    let run = |kernel: Kernel| {
        let cfg = SystemConfig { kernel, ..prefix.cfg.clone() };
        let mut sys = System::from_sources(cfg, prefix.sources(), &prefix.targets);
        sys.set_telemetry(&TelemetryConfig::off());
        sys.run(prefix.max_cycles())
    };
    let event = run(Kernel::Event);
    let reference = run(Kernel::Reference);
    checker.record("reference-kernel prefix", same_run(&reference, &event));
}

/// End-to-end metrics of a system workload. A warm-up repetition comes
/// first: every later repetition must reproduce its statistics, and the
/// peak RSS is read right after it. Then repetitions run until `budget`
/// is spent (at least [`MIN_REPS`]), each between two calibrations, and
/// their host times are scaled to the reference host speed.
pub fn measure(spec: &SystemSpec, budget: Duration, checker: &mut Checker) -> Vec<Metric> {
    let sources = || spec.sources();
    let shape = spec.shape(&sources);
    let warm = plain_rep(&shape);
    // Comparing the warm-up with itself checks that no core was truncated.
    checker.record("warm-up rep", same_run(&warm.stats, &warm.stats));
    let rss = report::peak_rss();
    let mut cal = [Calibrator::new()];
    let mut cal_before = calib::calibrate(&mut cal);
    let start = Instant::now();
    let (mut setup_s, mut run_s, mut cal_s) = (Vec::new(), Vec::new(), Vec::new());
    while run_s.len() < MIN_REPS || start.elapsed() < budget {
        let rep = plain_rep(&shape);
        let cal_after = calib::calibrate(&mut cal);
        checker.record(format!("rep {}", run_s.len() + 1), same_run(&warm.stats, &rep.stats));
        setup_s.push(rep.setup_s);
        run_s.push(rep.run_s);
        cal_s.push((cal_before + cal_after) / 2.0);
        cal_before = cal_after;
    }
    let scaled = |host: &[f64]| -> Vec<f64> {
        host.iter().zip(&cal_s).map(|(&h, &c)| calib::scale(h, c)).collect()
    };
    let (setup_n, run_n) = (scaled(&setup_s), scaled(&run_s));
    let cycles = warm.stats.cpu_cycles as f64;
    let cycles_per_s: Vec<f64> = run_n.iter().map(|s| cycles / s).collect();
    let point_n: Vec<f64> = setup_n.iter().zip(&run_n).map(|(a, b)| a + b).collect();
    let points_per_s: Vec<f64> = point_n.iter().map(|s| 1.0 / s).collect();
    println!("detail_cycles_per_run {}", warm.stats.cpu_cycles);
    println!("{}", detail_line("sim_cycles_per_s", "cycles/s", &cycles_per_s, "run_s", &run_n));
    println!("{}", detail_line("points_per_s", "1/s", &points_per_s, "point_s", &point_n));
    println!("{}", detail_line("setup_s", "s", &setup_n, "setup_s", &setup_n));
    println!("{}", detail_line("host_run_s", "s", &run_s, "host_run_s", &run_s));
    println!("{}", detail_line("calibration_s", "s", &cal_s, "calibration_s", &cal_s));
    vec![
        Metric::new("sim_cycles_per_s", median(&cycles_per_s), "cycles/s"),
        Metric::new("points_per_s", median(&points_per_s), "1/s"),
        Metric::new("setup_s", median(&setup_n), "s"),
        rss,
    ]
}

/// Reads a bucket's share (0..1) and laps from the kernel self-profile
/// report (`"  memory   74.7 %  (123 laps)"`).
fn profile_bucket(lines: &[String], label: &str) -> Option<(f64, u64)> {
    lines.iter().find_map(|l| {
        let mut it = l.split_whitespace();
        if it.next()? != label {
            return None;
        }
        let pct: f64 = it.next()?.parse().ok()?;
        let _ = it.next()?; // "%"
        let laps: u64 = it.next()?.trim_start_matches('(').parse().ok()?;
        Some((pct / 100.0, laps))
    })
}

/// The traced run: alternating untraced and traced repetitions until
/// `budget` is spent (at least two of each), then the standalone layer
/// drives on the first traced repetition's op stream. Returns the
/// per-layer metrics of every layer below the runner.
pub fn layer_metrics(shape: &Shape<'_>, budget: Duration, checker: &mut Checker) -> Vec<Metric> {
    let start = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced: Vec<(Rep, Vec<Recording>)> = Vec::new();
    let mut first: Option<RunStats> = None;
    while traced.len() < 2 || start.elapsed() < budget {
        let plain = plain_rep(shape);
        let reference = first.get_or_insert_with(|| plain.stats.clone());
        checker.record(
            format!("untraced rep {}", plain_s.len() + 1),
            same_run(reference, &plain.stats),
        );
        plain_s.push(plain.run_s);
        let (wrapped, slots) = TimedSource::wrap_all((shape.sources)(), traced.is_empty());
        let rep = timed_run(shape, wrapped, true);
        let recs = timed::take(&slots);
        checker.record(format!("traced rep {}", traced.len() + 1), same_run(reference, &rep.stats));
        traced.push((rep, recs));
    }

    let traced_med = median(&traced.iter().map(|(r, _)| r.run_s).collect::<Vec<_>>());
    let next_op_med = median(
        &traced
            .iter()
            .map(|(_, recs)| recs.iter().map(|r| r.nanos).sum::<u64>() as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let (mut memory, mut cores, mut laps) = (Vec::new(), Vec::new(), 0);
    for (i, (rep, _)) in traced.iter().enumerate() {
        let lines = rep.profile.as_deref().unwrap_or_default();
        let parsed = match (profile_bucket(lines, "memory"), profile_bucket(lines, "cores")) {
            (Some((m, l)), Some((c, _))) => {
                memory.push(m);
                cores.push(c);
                laps = if i == 0 { l } else { laps };
                Ok(())
            }
            _ => Err("unexpected kernel self-profile format".to_string()),
        };
        checker.record(format!("traced rep {} self-profile", i + 1), parsed);
    }
    // Zero when nothing parsed, which is already counted as a failure.
    let share = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let (memory_share, cores_share) = (share(&memory), share(&cores));

    let (rep, recs) = traced.swap_remove(0);
    let stats = rep.stats;
    let calls: u64 = recs.iter().map(|r| r.calls).sum();
    let ops: Vec<_> = recs.into_iter().map(|r| r.ops).collect();
    let (hier, misses) = layers::drive_hierarchy(shape.cfg, &ops);
    drop(ops);
    let mc = layers::drive_controller(shape.cfg, &misses);
    let dram = layers::drive_dram(shape.cfg, &misses);
    let engine = layers::drive_engine(shape.cfg, &misses);
    checker.record("hierarchy drive never stalls", ok_if(hier.extra == 0, "MSHR stall"));
    checker
        .record("dram drive issues only legal commands", ok_if(dram.extra == 0, "illegal command"));
    println!(
        "detail_drives {{\"hierarchy_calls\": {}, \"llc_misses\": {}, \"controller_requests\": {}, \
         \"controller_ticks\": {}, \"dram_commands\": {}, \"engine_lookups\": {}, \"engine_jobs\": {}}}",
        hier.calls,
        misses.len(),
        mc.calls,
        mc.extra,
        dram.calls,
        engine.calls,
        engine.extra
    );

    let cores = &stats.cores;
    let sum = |f: fn(&figaro_cpu::CoreStats) -> u64| cores.iter().map(f).sum::<u64>() as f64;
    let hist = &stats.mc.read_latency_hist;
    vec![
        Metric::new("sim.laps", laps as f64, "count"),
        Metric::new("sim.cycles_per_lap", stats.cpu_cycles as f64 / laps.max(1) as f64, "cycles"),
        Metric::new("sim.ns_per_lap", traced_med * 1e9 / laps.max(1) as f64, "ns"),
        Metric::new("sim.memory_share", memory_share, "frac"),
        Metric::new("sim.cores_share", cores_share, "frac"),
        Metric::new("sim.self_s", traced_med - next_op_med, "s"),
        Metric::new("workloads.next_op.calls", calls as f64, "count"),
        Metric::new("workloads.next_op.ns_per_call", next_op_med * 1e9 / calls.max(1) as f64, "ns"),
        Metric::new("workloads.share", next_op_med / traced_med, "frac"),
        Metric::new("cpu.retired", sum(|c| c.retired), "count"),
        Metric::new("cpu.mem_ops", sum(|c| c.mem_ops), "count"),
        Metric::new(
            "cpu.llc_misses",
            stats.hierarchy.llc_misses_per_core.iter().sum::<u64>() as f64,
            "count",
        ),
        Metric::new("cpu.mshr_stalls", stats.hierarchy.mshr_stalls as f64, "count"),
        Metric::new("cpu.window_full_cycles", sum(|c| c.window_full_cycles), "cycles"),
        Metric::new("cpu.access.ns_per_call", hier.ns_per_call(), "ns"),
        Metric::new("memctrl.reads_served", stats.mc.reads_served as f64, "count"),
        Metric::new("memctrl.writes_served", stats.mc.writes_served as f64, "count"),
        Metric::new("memctrl.row_hit_rate", stats.mc.row_hit_rate(), "frac"),
        Metric::new("memctrl.read_lat_p50", hist.percentile(0.50) as f64, "bus_cycles"),
        Metric::new("memctrl.read_lat_p99", hist.percentile(0.99) as f64, "bus_cycles"),
        Metric::new("memctrl.read_q_peak", stats.mc.read_q_peak as f64, "count"),
        Metric::new("memctrl.write_q_peak", stats.mc.write_q_peak as f64, "count"),
        Metric::new("memctrl.ns_per_request", mc.ns_per_call(), "ns"),
        Metric::new("memctrl.ticks_per_request", mc.extra as f64 / mc.calls.max(1) as f64, "ticks"),
        Metric::new(
            "dram.activates",
            (stats.dram.activates + stats.dram.activates_fast) as f64,
            "count",
        ),
        Metric::new("dram.reads", stats.dram.reads as f64, "count"),
        Metric::new("dram.writes", stats.dram.writes as f64, "count"),
        Metric::new("dram.refreshes", stats.dram.refreshes as f64, "count"),
        Metric::new("dram.relocs", stats.dram.relocs as f64, "count"),
        Metric::new("dram.ns_per_command", dram.ns_per_call(), "ns"),
        Metric::new("core.lookups", stats.cache.lookups as f64, "count"),
        Metric::new("core.hit_rate", stats.cache.hit_rate(), "frac"),
        Metric::new("core.insertions", stats.cache.insertions as f64, "count"),
        Metric::new("core.insertions_skipped", stats.cache.insertions_skipped as f64, "count"),
        Metric::new("core.blocks_relocated", stats.cache.blocks_relocated as f64, "count"),
        Metric::new("core.ns_per_lookup", engine.ns_per_call(), "ns"),
        Metric::new("trace.overhead_frac", traced_med / median(&plain_s) - 1.0, "frac"),
    ]
}

fn ok_if(ok: bool, why: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_report_parses() {
        let lines = vec![
            "kernel wall time        0.123 s".to_string(),
            "  memory                  74.7 %  (1234 laps)".to_string(),
            "  cores                   25.2 %  (1234 laps)".to_string(),
        ];
        assert_eq!(profile_bucket(&lines, "memory"), Some((0.747, 1234)));
        assert_eq!(profile_bucket(&lines, "cores"), Some((0.252, 1234)));
        assert_eq!(profile_bucket(&lines, "other"), None);
    }
}

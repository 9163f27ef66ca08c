//! `sim_kernel` — wall-clock comparison of the two simulation kernels.
//!
//! Measures three real run shapes from the evaluation suite at
//! `Scale::Tiny` under both [`Kernel::Reference`] (per-cycle clock loop)
//! and [`Kernel::Event`] (next-event time skipping):
//!
//! * `Base` on the single-core system running `zeusmp` (Fig. 7 shape);
//! * `Base` on the eight-core, four-channel system running `mcf` alone
//!   (the weighted-speedup denominator of Fig. 8 — see
//!   [`figaro_sim::Runner::alone_ipc`]);
//! * `FIGCache-Fast` on the single-core system running `zeusmp`.
//!
//! Each shape runs [`SAMPLES`] interleaved reference/event pairs (the
//! per-pair ratio cancels machine clock drift), asserts the two kernels'
//! [`RunStats`] are bit-identical, prints simulated CPU cycles per
//! wall-clock second, and records everything in `BENCH_kernel.json` at
//! the workspace root so the kernel's performance trajectory is tracked
//! across PRs.
//!
//! ```bash
//! cargo bench --bench sim_kernel
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use figaro_sim::runner::{idle_companion_trace, Scale, IDLE_COMPANION_TARGET};
use figaro_sim::{ConfigKind, Kernel, RunStats, System, SystemConfig};
use figaro_workloads::profile_by_name;

const SAMPLES: usize = 5;

/// One measured run shape. Workloads are memory-intensive (paper
/// Table 2): simulated time is dominated by cores blocked on DRAM — the
/// regime FIGARO targets and the event kernel accelerates.
#[derive(Clone, Copy)]
struct Shape {
    config: &'static str,
    workload: &'static str,
    kind_is_figcache: bool,
    /// Eight-core alone-IPC shape (one app + seven idle cores) instead of
    /// the single-core system.
    alone8: bool,
}

impl Shape {
    fn label(&self) -> String {
        format!("{}/{}", self.config, self.workload)
    }

    fn kind(&self) -> ConfigKind {
        if self.kind_is_figcache {
            ConfigKind::FigCacheFast
        } else {
            ConfigKind::Base
        }
    }
}

const SHAPES: [Shape; 3] = [
    Shape { config: "Base", workload: "zeusmp-1core", kind_is_figcache: false, alone8: false },
    Shape { config: "Base", workload: "mcf-alone8", kind_is_figcache: false, alone8: true },
    Shape {
        config: "FIGCache-Fast",
        workload: "zeusmp-1core",
        kind_is_figcache: true,
        alone8: false,
    },
];

/// One uncached run of `shape` under `kernel`.
fn run_once(shape: &Shape, kernel: Kernel, scale: Scale) -> (RunStats, f64) {
    let runner = figaro_bench::env_runner(scale);
    let insts = scale.target_insts();
    let app = shape.workload.split('-').next().expect("workload app prefix");
    let profile = profile_by_name(app).expect("workload profile exists");
    let (cores, mut traces, mut targets) =
        (if shape.alone8 { 8 } else { 1 }, Vec::new(), Vec::new());
    traces.push(runner.trace_for(&profile, 0));
    targets.push(insts);
    for _ in 1..cores {
        // The same idle companions `Runner::alone_ipc` builds.
        traces.push(idle_companion_trace());
        targets.push(IDLE_COMPANION_TARGET);
    }
    let cfg = SystemConfig { kernel, ..runner.system_config(cores, shape.kind()) };
    let mut sys = System::new(cfg, traces, &targets);
    let t = Instant::now();
    let stats = sys.run(insts * 400);
    (stats, t.elapsed().as_secs_f64())
}

/// [`SAMPLES`] interleaved reference/event pairs; returns both final
/// stats (for the equivalence assert) and the median-ratio pair's wall
/// times. Interleaving makes each pair share the machine's momentary
/// clock/thermal state, so the median per-pair ratio is robust to the
/// frequency drift that best-of-N per kernel is not.
fn measure_pair(shape: &Shape, scale: Scale) -> (RunStats, RunStats, f64, f64) {
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(SAMPLES);
    let mut stats = None;
    for _ in 0..SAMPLES {
        let (rs, rt) = run_once(shape, Kernel::Reference, scale);
        let (es, et) = run_once(shape, Kernel::Event, scale);
        pairs.push((rt, et));
        stats = Some((rs, es));
    }
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let (rt, et) = pairs[pairs.len() / 2];
    let (rs, es) = stats.expect("SAMPLES > 0");
    (rs, es, rt, et)
}

struct Measurement {
    shape: Shape,
    kernel: Kernel,
    wall_s: f64,
    sim_cycles: u64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_s
    }
}

fn json_report(scale: Scale, results: &[Measurement]) -> String {
    let mut entries = String::new();
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            entries,
            "{}    {{\"config\": \"{}\", \"workload\": \"{}\", \"kernel\": \"{}\", \
             \"wall_s\": {:.6}, \"sim_cycles\": {}, \"cycles_per_sec\": {:.1}}}",
            if i == 0 { "" } else { ",\n" },
            m.shape.config,
            m.shape.workload,
            m.kernel.label(),
            m.wall_s,
            m.sim_cycles,
            m.cycles_per_sec(),
        );
    }
    let mut speedups = String::new();
    for (i, pair) in results.chunks(2).enumerate() {
        let [reference, event] = pair else { continue };
        let _ = write!(
            speedups,
            "{}\"{}\": {:.2}",
            if i == 0 { "" } else { ", " },
            reference.shape.label(),
            reference.wall_s / event.wall_s,
        );
    }
    format!(
        "{{\n  \"bench\": \"sim_kernel\",\n  \"scale\": \"{}\",\n  \
         \"results\": [\n{entries}\n  ],\n  \"event_speedup\": {{{speedups}}}\n}}\n",
        scale.label(),
    )
}

fn main() {
    if criterion::launched_as_test() {
        return;
    }
    // The kernel comparison is a fixed trajectory point at Tiny;
    // FIGARO_SCALE still sizes the run for ad-hoc exploration.
    let scale = Scale::from_env_or(Scale::Tiny);
    println!(
        "--- sim_kernel (scale: {}, median of {SAMPLES} interleaved pairs) ---",
        scale.label()
    );
    let mut results = Vec::new();
    for shape in SHAPES {
        let (ref_stats, event_stats, ref_s, event_s) = measure_pair(&shape, scale);
        assert_eq!(
            ref_stats,
            event_stats,
            "kernels diverged on {} — the speedup below would be meaningless",
            shape.label()
        );
        for (kernel, wall_s) in [(Kernel::Reference, ref_s), (Kernel::Event, event_s)] {
            let m = Measurement { shape, kernel, wall_s, sim_cycles: ref_stats.cpu_cycles };
            println!(
                "{:<22} {:<10} {:>8.3} s   {:>12.0} sim cycles/s",
                shape.label(),
                kernel.label(),
                m.wall_s,
                m.cycles_per_sec(),
            );
            results.push(m);
        }
        println!("{:<22} event-kernel speedup: {:.2}x", shape.label(), ref_s / event_s);
    }
    let report = json_report(scale, &results);
    let path = figaro_bench::artifact_path("BENCH_kernel.json");
    std::fs::write(&path, &report).expect("write BENCH_kernel.json");
    println!("wrote {}", path.display());
}

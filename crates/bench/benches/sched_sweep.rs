//! `sched_sweep` — the scheduling subsystem's bench: per-policy
//! behavior and the policy × mechanism × workload sweep.
//!
//! Two sections:
//!
//! 1. **Policies** — one timed run per [`SchedPolicyKind`] on the
//!    backlog-saturation shape (8 memory-intensive cores with 16 MSHRs
//!    each contending for one channel, so the 64-entry queues run full;
//!    policies legitimately change results, so throughput and row-hit
//!    rate are reported alongside wall time).
//! 2. **Sweep** — `experiments::scheduler_sweep` at the bench scale,
//!    printed and exported to `BENCH_sched_sweep.csv`.
//!
//! Everything lands in `BENCH_sched.json` at the workspace root so the
//! subsystem's performance trajectory is tracked across PRs.
//!
//! ```bash
//! cargo bench --bench sched_sweep
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use figaro_sim::experiments::{sched_policies, scheduler_sweep};
use figaro_sim::{ConfigKind, Kernel, RunStats, Scale, SchedPolicyKind, System, SystemConfig};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

/// One FIGCache-Fast run of the backlog-saturation shape (event
/// kernel): eight memory-intensive cores with deep MSHRs all contending for a single
/// channel, so the 64-entry queues actually run full.
fn run_backlog(sched: SchedPolicyKind) -> (RunStats, f64) {
    let apps = ["mcf", "com", "tigr", "mum", "lbm", "mcf", "tigr", "com"];
    let traces: Vec<Trace> = apps
        .iter()
        .enumerate()
        .map(|(i, n)| generate_trace(&profile_by_name(n).unwrap(), 60_000, 31 + i as u64))
        .collect();
    let mut cfg = SystemConfig {
        kernel: Kernel::Event,
        ..figaro_bench::env_runner(Scale::Tiny).system_config(8, ConfigKind::FigCacheFast)
    };
    cfg.channels = 1; // every request contends for one controller
    cfg.mc.sched = sched;
    cfg.hierarchy.mshrs_per_core = 16; // 128 outstanding misses vs 64 queue slots
    let insts = 40_000u64;
    let mut sys = System::new(cfg, traces, &[insts; 8]);
    let t = Instant::now();
    let stats = sys.run(insts * 400);
    (stats, t.elapsed().as_secs_f64())
}

fn main() {
    if criterion::launched_as_test() {
        return;
    }
    let runner = figaro_bench::bench_runner("sched_sweep");

    // 1. Per-policy behavior on the backlog-saturation shape.
    println!("--- scheduling policies (backlog saturation, FIGCache-Fast) ---");
    let mut policy_entries = String::new();
    for sched in sched_policies() {
        let (stats, wall) = run_backlog(sched);
        let ipc: f64 = (0..8).map(|c| stats.ipc(c)).sum();
        let row_hit = stats.row_hit_rate();
        println!(
            "{:<14} {wall:>7.3} s   sum-IPC {ipc:.3}   row-hit {row_hit:.3}   cycles {}",
            sched.label(),
            stats.cpu_cycles
        );
        let _ = write!(
            policy_entries,
            "{}    {{\"policy\": \"{}\", \"wall_s\": {wall:.6}, \"sum_ipc\": {ipc:.4}, \
             \"row_hit_rate\": {row_hit:.4}, \"cpu_cycles\": {}}}",
            if policy_entries.is_empty() { "\n" } else { ",\n" },
            sched.label(),
            stats.cpu_cycles,
        );
    }

    // 2. The policy x mechanism x workload sweep (cached runner runs).
    let fig = figaro_bench::timed("scheduler_sweep", || scheduler_sweep(&runner));
    println!("{fig}");
    let csv_path = figaro_bench::artifact_path("BENCH_sched_sweep.csv");
    fig.write_csv(&csv_path).expect("write BENCH_sched_sweep.csv");
    println!("wrote {}", csv_path.display());

    let report = format!(
        "{{\n  \"bench\": \"sched_sweep\",\n  \"scale\": \"{}\",\n  \
         \"policies\": [{policy_entries}\n  ]\n}}\n",
        runner.scale().label(),
    );
    let path = figaro_bench::artifact_path("BENCH_sched.json");
    std::fs::write(&path, &report).expect("write BENCH_sched.json");
    println!("wrote {}", path.display());
}

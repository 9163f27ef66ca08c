//! Prints the deterministic `RunStats` digests for the Figure 7/8
//! config set under both kernels — the golden values hardcoded in
//! `tests/tests/sched_policies.rs` (FR-FCFS bit-identity against the
//! pre-refactor seed). Regenerate with
//! `cargo run --release --example golden_digest` whenever a PR
//! *intentionally* changes controller behavior, and say so in the PR.

use figaro_sim::{ConfigKind, Kernel, System, SystemConfig};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

fn main() {
    // Longer single-core mcf runs that actually drain writes.
    for kind in [ConfigKind::Base, ConfigKind::FigCacheFast] {
        for kernel in [Kernel::Reference, Kernel::Event] {
            let p = profile_by_name("mcf").unwrap();
            let trace = generate_trace(&p, 30_000, 42);
            let cfg = SystemConfig { kernel, ..SystemConfig::paper(1, kind.clone()) };
            let mut sys = System::new(cfg, vec![trace], &[60_000]);
            let s = sys.run(60_000 * 400);
            println!(
                "(\"{}w\", \"{}\", 1, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}),",
                kind.label(),
                kernel.label(),
                s.cpu_cycles,
                s.mc.row_hits,
                s.mc.row_misses,
                s.mc.row_conflicts,
                s.mc.reads_served,
                s.mc.writes_served,
                s.mc.forwarded,
                s.mc.read_latency_sum,
                s.dram.relocs,
                s.dram.refreshes,
                s.cache.insertions,
            );
        }
    }
    let mut kinds = vec![ConfigKind::Base];
    kinds.extend(ConfigKind::figure78_set());
    for kind in &kinds {
        for kernel in [Kernel::Reference, Kernel::Event] {
            for cores in [1usize, 4] {
                let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
                let traces: Vec<Trace> = (0..cores)
                    .map(|i| {
                        let p = profile_by_name(apps[i % apps.len()]).unwrap();
                        generate_trace(&p, 8_000, 7 + i as u64)
                    })
                    .collect();
                let insts = 12_000u64;
                let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
                let mut sys = System::new(cfg, traces, &vec![insts; cores]);
                let s = sys.run(insts * 400);
                println!(
                    "(\"{}\", \"{}\", {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}),",
                    kind.label(),
                    kernel.label(),
                    cores,
                    s.cpu_cycles,
                    s.mc.row_hits,
                    s.mc.row_misses,
                    s.mc.row_conflicts,
                    s.mc.reads_served,
                    s.mc.writes_served,
                    s.mc.forwarded,
                    s.mc.read_latency_sum,
                    s.dram.relocs,
                    s.dram.refreshes,
                    s.cache.insertions,
                );
            }
        }
    }
}

//! Cross-crate proof obligation of the event-driven kernel: for random
//! seeds, workloads, core counts and every evaluated mechanism, the
//! next-event kernel's [`RunStats`] are **bit-identical** to the
//! per-cycle reference loop's. This is the refactor's correctness
//! argument — any divergence in a counter, finish cycle, or energy
//! figure fails the property.

use proptest::prelude::*;

use figaro_sim::{ConfigKind, Kernel, RunStats, System, SystemConfig};
use figaro_workloads::{app_profiles, generate_trace, Trace};

/// Runs one system built from `(seed, cores, kind)` under `kernel`.
fn run(seed: u64, cores: usize, kind: &ConfigKind, kernel: Kernel, insts: u64) -> RunStats {
    let profiles = app_profiles();
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            // Mix intensive and non-intensive profiles across cores.
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seed x Figure 7/8 mechanism x 1-4 cores (powers of two —
    /// the shared LLC scales at 2 MB/core and needs a power-of-two set
    /// count): the two kernels must agree bit-for-bit on the full
    /// statistics record.
    #[test]
    fn event_kernel_is_bit_identical_to_reference(
        seed in 0u64..1_000_000,
        cores_log2 in 0u32..3,
        kind_idx in 0usize..6,
    ) {
        let cores = 1usize << cores_log2;
        let mut kinds = vec![ConfigKind::Base];
        kinds.extend(ConfigKind::figure78_set());
        let kind = &kinds[kind_idx];
        let insts = 10_000;
        let reference = run(seed, cores, kind, Kernel::Reference, insts);
        let event = run(seed, cores, kind, Kernel::Event, insts);
        prop_assert_eq!(
            &reference,
            &event,
            "RunStats diverged: seed={} cores={} kind={}",
            seed,
            cores,
            kind.label()
        );
        // The run must be non-trivial for the comparison to mean much.
        prop_assert!(reference.instructions.iter().all(|&i| i == insts));
        prop_assert!(reference.dram.reads > 0, "workload never reached DRAM");
    }
}

/// The saturated regime the proptest above never reaches: eight
/// write-heavy `lbm` cores on one channel keep every core's MSHRs full,
/// so most core ticks are stall retries (the hierarchy's repeat-stall
/// fast path). Event, Reference and Parallel must still agree.
#[test]
fn saturated_eight_core_one_channel_kernels_agree() {
    let lbm = app_profiles().into_iter().find(|p| p.name == "lbm").expect("lbm profile");
    let insts = 10_000;
    let run = |kernel: Kernel| {
        let traces: Vec<Trace> = (0..8u64)
            .map(|i| generate_trace(&lbm, 6_000, 11 ^ i.wrapping_mul(0x9e37_79b9)))
            .collect();
        let cfg = SystemConfig { kernel, ..SystemConfig::paper(8, ConfigKind::Base) }
            .with_channels(1)
            .with_threads(2);
        System::new(cfg, traces, &[insts; 8]).run(insts * 400)
    };
    let reference = run(Kernel::Reference);
    assert!(reference.instructions.iter().all(|&i| i == insts));
    assert!(reference.hierarchy.mshr_stalls > 0, "MSHRs never filled: not the saturated regime");
    assert_eq!(reference, run(Kernel::Event), "event kernel diverged");
    assert_eq!(reference, run(Kernel::Parallel), "parallel kernel diverged");
}

/// Eight cores on two channels running four streams twice each (core `i`
/// and core `i + 4` replay the same trace), so every block is shared:
/// one core's fill regularly lands on a block another core sits stalled
/// on, the path where the event kernel books a lazy core's deferred stall
/// retries and ticks it again.
fn shared_footprint_system(kernel: Kernel) -> System {
    let profiles = app_profiles();
    let app = |name: &str| *profiles.iter().find(|p| p.name == name).expect("profile");
    let apps = [app("lbm"), app("mcf")];
    let traces: Vec<Trace> =
        (0..8u64).map(|i| generate_trace(&apps[(i % 2) as usize], 6_000, 29 + i % 4)).collect();
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(8, ConfigKind::Base) }
        .with_channels(2)
        .with_threads(2);
    System::new(cfg, traces, &[8_000; 8])
}

#[test]
fn shared_footprint_eight_core_kernels_agree() {
    let reference = shared_footprint_system(Kernel::Reference).run(8_000 * 400);
    assert!(reference.instructions.iter().all(|&i| i == 8_000));
    assert!(reference.hierarchy.mshr_stalls > 0, "MSHRs never filled");
    assert!(reference.hierarchy.llc.hits > 0, "no block was shared through the LLC");
    assert_eq!(reference, shared_footprint_system(Kernel::Event).run(8_000 * 400));
    assert_eq!(reference, shared_footprint_system(Kernel::Parallel).run(8_000 * 400));
}

/// Telemetry samples every 97 cycles force the event kernel to catch its
/// lazy cores up mid-span far more often than it ticks them: the interval
/// series and the Chrome trace must still match the other kernels' byte
/// for byte, and the run must match an unsampled one.
#[test]
fn small_interval_telemetry_is_identical_across_kernels() {
    use figaro_telemetry::{parse_trace_spec, TelemetryConfig};
    let plain = shared_footprint_system(Kernel::Reference).run(8_000 * 400);
    let mut outputs = Vec::new();
    for (tag, kernel) in
        [("reference", Kernel::Reference), ("event", Kernel::Event), ("parallel", Kernel::Parallel)]
    {
        let mut sys = shared_footprint_system(kernel);
        sys.set_telemetry(&TelemetryConfig { interval: Some(97), trace: None });
        assert_eq!(sys.run(8_000 * 400), plain, "sampling perturbed RunStats under {tag}");
        let csv = sys.telemetry_series().expect("interval series").to_csv();
        // A trace sink consumes the series, so the trace is a second run.
        let path = std::env::temp_dir()
            .join(format!("figaro-kernel-eq-{}-{tag}.json", std::process::id()));
        let mut sys = shared_footprint_system(kernel);
        sys.set_telemetry(&TelemetryConfig {
            interval: Some(97),
            trace: Some(parse_trace_spec(&path.display().to_string())),
        });
        assert_eq!(sys.run(8_000 * 400), plain, "tracing perturbed RunStats under {tag}");
        drop(sys);
        let trace = std::fs::read(&path).expect("trace file");
        let _ = std::fs::remove_file(&path);
        outputs.push((tag, csv, trace));
    }
    let (base_tag, base_csv, base_trace) = &outputs[0];
    assert!(base_csv.lines().count() > 100, "too few samples to mean much");
    assert!(!base_trace.is_empty());
    for (tag, csv, trace) in &outputs[1..] {
        assert_eq!(csv, base_csv, "series diverged: {tag} vs {base_tag}");
        assert_eq!(trace, base_trace, "trace bytes diverged: {tag} vs {base_tag}");
    }
}

/// Three cores with direct-mapped 2/4/8-set caches, one MSHR each, and
/// random loads and stores over a shared 24-block footprint. Dirty L1/L2
/// victims keep landing in the LLC on blocks another core is stalled on,
/// so the event kernel must book that core's deferred retries by tick
/// order and tick it in the same cycle (a later core) or the next one.
#[test]
fn tiny_shared_hierarchy_kernels_agree() {
    use figaro_cpu::{CacheParams, HierarchyConfig};
    use figaro_workloads::TraceOp;
    for seed in 1..=4u64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let traces: Vec<Trace> = (0..3)
            .map(|_| Trace {
                name: "shared".into(),
                ops: (0..500)
                    .map(|_| {
                        let r = next();
                        let block = (r >> 8) % 24 * 8191 % (1 << 14);
                        TraceOp {
                            nonmem: (r % 3) as u32,
                            addr: block * 64,
                            is_write: r >> 40 & 1 == 1,
                        }
                    })
                    .collect(),
            })
            .collect();
        let run = |kernel: Kernel| {
            let mut cfg = SystemConfig { kernel, ..SystemConfig::paper(3, ConfigKind::Base) }
                .with_channels(1);
            cfg.hierarchy = HierarchyConfig {
                l1: CacheParams { size_bytes: 128, ways: 1, block_bytes: 64, latency: 1 },
                l2: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 2 },
                llc: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 3 },
                mshrs_per_core: 1,
                fill_latency: 1,
            };
            System::new(cfg, traces.clone(), &[4_000; 3]).run(4_000 * 1_000)
        };
        let reference = run(Kernel::Reference);
        assert!(reference.instructions.iter().all(|&i| i == 4_000), "seed {seed}");
        assert!(reference.hierarchy.mshr_stalls > 0, "seed {seed}: MSHRs never filled");
        assert_eq!(reference, run(Kernel::Event), "seed {seed}: event kernel diverged");
    }
}

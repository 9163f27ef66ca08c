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

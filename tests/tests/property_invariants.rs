//! Property-based invariants across the stack: random command schedules
//! against the DRAM timing engine, random request streams against the
//! FIGCache engine and the memory controller, and metric laws.

use proptest::prelude::*;

use figaro_core::{CacheEngine, FigCacheConfig, FigCacheEngine, NullEngine};
use figaro_dram::{BankAddr, DramChannel, DramCommand, DramConfig, PhysAddr, SubarrayLayout};
use figaro_memctrl::{McConfig, MemoryController, Request};

fn fig_dram() -> DramConfig {
    DramConfig {
        layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
        ..DramConfig::ddr4_paper_default()
    }
}

/// Number of completions drained this cycle (via
/// `drain_completions_into`, the controller's only drain).
fn drained_count(mc: &mut MemoryController) -> u64 {
    let mut buf = Vec::new();
    mc.drain_completions_into(&mut buf);
    buf.len() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever command the fuzzer proposes, `can_issue == true` implies
    /// `issue` succeeds, and the bank's open-row state follows the
    /// activate/precharge commands exactly.
    #[test]
    fn channel_state_follows_issued_commands(ops in proptest::collection::vec((0u8..6, 0u32..1024, 0u32..64), 1..300)) {
        let cfg = fig_dram();
        let mut ch = DramChannel::new(&cfg);
        let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
        let mut now = 0u64;
        let mut issued_acts = 0u64;
        for (op, row, col) in ops {
            let cmd = match op {
                0 => DramCommand::Activate { row },
                1 => DramCommand::Precharge,
                2 => DramCommand::Read { col: col % 128, auto_pre: false },
                3 => DramCommand::Write { col: col % 128, auto_pre: false },
                4 => DramCommand::Reloc { src_col: col % 128, dst_subarray: 64, dst_col: col % 128 },
                _ => DramCommand::ActivateMerge { row: cfg.layout.fast_row_base(0) },
            };
            let earliest = ch.earliest_issue(bank, &cmd, now);
            if earliest == u64::MAX {
                continue; // structurally illegal in this state
            }
            now = now.max(earliest);
            prop_assert!(ch.can_issue(bank, &cmd, now));
            ch.issue(bank, &cmd, now);
            match cmd {
                DramCommand::Activate { row } => {
                    issued_acts += 1;
                    prop_assert_eq!(ch.open_row(bank), Some(row));
                }
                DramCommand::Precharge => prop_assert_eq!(ch.open_row(bank), None),
                _ => {}
            }
            now += 1;
        }
        let s = ch.stats();
        prop_assert_eq!(s.activates + s.activates_fast, issued_acts);
    }

    /// Engine bookkeeping: lookups partition into hits, misses and
    /// uncacheable; completed insertions never exceed allocation attempts.
    #[test]
    fn engine_stats_partition_lookups(reqs in proptest::collection::vec((0u32..40_000, 0u32..128, any::<bool>()), 1..400)) {
        let dram = fig_dram();
        let mut e = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
        for (row, col, w) in reqs {
            let _ = e.on_request(0, row % 33_000, col, w, None, 0);
            // Run any pending job synchronously.
            while let Some(mut job) = e.take_job(0, 0) {
                let mut open = Some(row % 33_000);
                while let Some(cmd) = job.peek(open, false) {
                    if let DramCommand::Activate { row } = cmd {
                        open = Some(row);
                    }
                    if matches!(cmd, DramCommand::Precharge) {
                        open = None;
                    }
                    job.on_issued(&cmd);
                }
                e.on_job_complete(0, job.id, 0);
            }
        }
        let s = e.stats();
        prop_assert_eq!(s.hits + s.misses + s.uncacheable, s.lookups);
        prop_assert!(s.hits_bypassed <= s.hits);
        prop_assert!(s.insertions + s.insertions_cancelled <= s.misses);
    }

    /// The controller conserves requests: everything enqueued is served
    /// (reads complete exactly once, writes drain), and the row-locality
    /// classification covers every DRAM-served access.
    #[test]
    fn controller_conserves_requests(blocks in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..120)) {
        let dram = DramConfig::ddr4_paper_default();
        let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
        let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()));
        let mut now = 0u64;
        let mut sent_reads = 0u64;
        let mut sent_writes = 0u64;
        let mut completions = 0u64;
        for (i, (block, is_write)) in blocks.iter().enumerate() {
            while !mc.can_accept(*is_write) {
                mc.tick(now);
                completions += drained_count(&mut mc);
                now += 1;
            }
            let addr = PhysAddr((block % (1 << 25)) * 64);
            mc.enqueue(Request { id: i as u64, addr, is_write: *is_write, core: 0, arrival: now }, now);
            if *is_write { sent_writes += 1 } else { sent_reads += 1 }
            mc.tick(now);
            completions += drained_count(&mut mc);
            now += 1;
        }
        let deadline = now + 200_000;
        while !mc.is_idle() && now < deadline {
            mc.tick(now);
            completions += drained_count(&mut mc);
            now += 1;
        }
        prop_assert!(mc.is_idle(), "controller must drain");
        prop_assert_eq!(completions, sent_reads);
        let s = *mc.stats();
        prop_assert_eq!(s.reads_served, sent_reads);
        prop_assert_eq!(s.writes_served, sent_writes);
        prop_assert_eq!(
            s.row_hits + s.row_misses + s.row_conflicts + s.forwarded,
            sent_reads + sent_writes
        );
    }

    /// Weighted speedup is 1-homogeneous in the shared IPCs and equals the
    /// core count for identical shared/alone vectors.
    #[test]
    fn weighted_speedup_laws(ipc in proptest::collection::vec(0.01f64..4.0, 1..9), k in 0.1f64..10.0) {
        use figaro_sim::metrics::weighted_speedup;
        let ws_self = weighted_speedup(&ipc, &ipc);
        prop_assert!((ws_self - ipc.len() as f64).abs() < 1e-9);
        let scaled: Vec<f64> = ipc.iter().map(|v| v * k).collect();
        let ws_scaled = weighted_speedup(&scaled, &ipc);
        prop_assert!((ws_scaled - k * ipc.len() as f64).abs() < 1e-6);
    }

    /// Trace generation is a pure function of (profile, seed) and stays in
    /// the footprint for every app.
    #[test]
    fn traces_deterministic_and_bounded(seed in any::<u64>(), n in 1usize..2000) {
        for p in figaro_workloads::app_profiles().into_iter().take(4) {
            let a = figaro_workloads::generate_trace(&p, n, seed);
            let b = figaro_workloads::generate_trace(&p, n, seed);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.ops.iter().all(|o| o.addr < p.footprint_bytes));
        }
    }
}

/// Failure injection: a refresh storm (pathologically short tREFI) must
/// not deadlock the controller or lose requests.
#[test]
fn refresh_storm_does_not_deadlock() {
    let mut dram = fig_dram();
    dram.timing.refi = 600; // ~13x the paper's refresh duty cycle
    dram.timing.rfc = 280;
    let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
    let cfg = McConfig { enable_refresh: true, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
    let mut now = 0u64;
    let mut completions = 0u64;
    let mut sent = 0u64;
    while now < 120_000 {
        if now.is_multiple_of(23) && mc.can_accept(false) {
            mc.enqueue(
                Request {
                    id: sent,
                    addr: PhysAddr((sent * 977 % 100_000) * 64),
                    is_write: false,
                    core: 0,
                    arrival: now,
                },
                now,
            );
            sent += 1;
        }
        mc.tick(now);
        completions += drained_count(&mut mc);
        now += 1;
    }
    let deadline = now + 100_000;
    while !mc.is_idle() && now < deadline {
        mc.tick(now);
        completions += drained_count(&mut mc);
        now += 1;
    }
    assert!(mc.is_idle(), "refresh storm deadlocked the controller");
    assert_eq!(completions, sent);
    assert!(mc.dram_stats().refreshes > 100);
}

/// Failure injection: saturating the write queue must stall acceptance,
/// not drop or reorder writes.
#[test]
fn write_queue_saturation_is_lossless() {
    let dram = DramConfig::ddr4_paper_default();
    let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()));
    let mut now = 0u64;
    let mut sent = 0u64;
    // Hammer writes as fast as the queue accepts them.
    while sent < 500 {
        if mc.can_accept(true) {
            mc.enqueue(
                Request {
                    id: sent,
                    addr: PhysAddr((sent % 64) * 8192 * 16 + sent * 64),
                    is_write: true,
                    core: 0,
                    arrival: now,
                },
                now,
            );
            sent += 1;
        }
        mc.tick(now);
        now += 1;
    }
    let deadline = now + 300_000;
    while !mc.is_idle() && now < deadline {
        mc.tick(now);
        now += 1;
    }
    assert!(mc.is_idle());
    assert_eq!(mc.stats().writes_served, 500);
}

//! Integration tests of the substrates below the full system: controller ×
//! engine × DRAM interplay, functional data movement under the timing
//! engine, and the circuit/energy/area models' paper anchors.

use figaro_core::{FigCacheConfig, FigCacheEngine, LisaVillaConfig, LisaVillaEngine, NullEngine};
use figaro_dram::{
    AddressMapping, BankAddr, DataStore, DramChannel, DramCommand, DramConfig, PhysAddr,
    SubarrayLayout, TimingParams,
};
use figaro_energy::{AreaModel, DramEnergyModel};
use figaro_memctrl::{McConfig, MemoryController, Request};
use figaro_spice::{run_monte_carlo, RelocCircuit};

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

/// Drives a controller until idle, bounded.
fn drain(mc: &mut MemoryController, start: u64, bound: u64) -> u64 {
    let mut now = start;
    while !mc.is_idle() && now < start + bound {
        mc.tick(now);
        let _ = drained_count(mc);
        now += 1;
    }
    assert!(mc.is_idle(), "controller must drain");
    now
}

#[test]
fn controller_drives_full_relocation_and_redirects_hits() {
    let dram = fig_dram();
    let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
    let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
    // Miss: triggers a compound relocation.
    mc.enqueue(Request { id: 1, addr: PhysAddr(0), is_write: false, core: 0, arrival: 0 }, 0);
    let now = drain(&mut mc, 0, 5000);
    assert_eq!(mc.engine_stats().insertions, 1);
    assert_eq!(mc.dram_stats().relocs, 16);
    assert_eq!(mc.dram_stats().merges_fast, 1);
    // Re-access every block of the cached segment.
    for (i, col) in (0..16u64).enumerate() {
        mc.enqueue(
            Request {
                id: 10 + i as u64,
                addr: PhysAddr(col * 64),
                is_write: false,
                core: 0,
                arrival: now,
            },
            now,
        );
    }
    drain(&mut mc, now, 5000);
    assert_eq!(mc.engine_stats().hits, 16);
}

#[test]
fn relocation_concurrent_with_demand_to_other_subarrays() {
    // A pinned train must not block an unrelated row of the same bank.
    let dram = fig_dram();
    let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
    let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
    let same_bank_other_subarray = 128 * 64 * 16 * 100u64; // row 100, bank 0
    mc.enqueue(Request { id: 1, addr: PhysAddr(0), is_write: false, core: 0, arrival: 0 }, 0);
    mc.enqueue(
        Request {
            id: 2,
            addr: PhysAddr(same_bank_other_subarray),
            is_write: false,
            core: 0,
            arrival: 1,
        },
        1,
    );
    let mut now = 1;
    let mut done = Vec::new();
    while done.len() < 2 && now < 4000 {
        mc.tick(now);
        mc.drain_completions_into(&mut done);
        now += 1;
    }
    assert_eq!(done.len(), 2);
    // The second read must complete well before a serialized train+demand
    // sequence would allow (ACT by 30 + pin overlap).
    assert!(done[1].done_at < 120, "overlapped demand finished at {}", done[1].done_at);
    drain(&mut mc, now, 5000);
}

#[test]
fn lisa_controller_path_clones_rows() {
    let dram = DramConfig {
        layout: SubarrayLayout::homogeneous(64, 512).with_interleaved_fast(16, 32),
        ..DramConfig::ddr4_paper_default()
    };
    let engine = LisaVillaEngine::new(&dram, &LisaVillaConfig::paper_default(), 16);
    let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
    // Two misses to the same row cross the hot-row threshold.
    mc.enqueue(Request { id: 1, addr: PhysAddr(0), is_write: false, core: 0, arrival: 0 }, 0);
    let now = drain(&mut mc, 0, 5000);
    mc.enqueue(Request { id: 2, addr: PhysAddr(64), is_write: false, core: 0, arrival: now }, now);
    let now = drain(&mut mc, now, 5000);
    assert_eq!(mc.dram_stats().lisa_clones, 1);
    mc.enqueue(Request { id: 3, addr: PhysAddr(128), is_write: false, core: 0, arrival: now }, now);
    drain(&mut mc, now, 5000);
    assert_eq!(mc.engine_stats().hits, 1);
    assert!(mc.dram_stats().activates_fast >= 1, "hit served from the fast cache row");
}

#[test]
fn functional_segment_relocation_moves_every_byte() {
    // Timing engine + data store together: a full 16-block segment copy
    // with unaligned placement, validated byte-for-byte.
    let config = fig_dram();
    let mut channel = DramChannel::new(&config);
    let mut data = DataStore::new(&config.geometry);
    let layout = config.layout;
    let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
    let src_row = 42;
    let dst_row = layout.fast_row_base(0); // first cache row
    let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 253) as u8).collect();
    data.store_row(0, src_row, &pattern);

    let mut now = 0;
    channel.issue(bank, &DramCommand::Activate { row: src_row }, now);
    data.activate(&layout, 0, src_row);
    for i in 0..16u32 {
        let cmd = DramCommand::Reloc { src_col: 16 + i, dst_subarray: 64, dst_col: 32 + i };
        now = channel.earliest_issue(bank, &cmd, now).max(now);
        channel.issue(bank, &cmd, now);
        data.reloc(&layout, 0, src_row, 16 + i, 64, 32 + i);
    }
    let merge = DramCommand::ActivateMerge { row: dst_row };
    now = channel.earliest_issue(bank, &merge, now).max(now);
    channel.issue(bank, &merge, now);
    data.activate_merge(&layout, 0, dst_row);

    let dst = data.row(0, dst_row);
    assert_eq!(&dst[32 * 64..48 * 64], &pattern[16 * 64..32 * 64], "segment bytes must match");
    assert!(dst[..32 * 64].iter().all(|&b| b == 0), "untouched columns stay zero");
    assert_eq!(channel.stats().relocs, 16);
}

#[test]
fn reloc_timing_anchor_matches_paper() {
    // One-column relocation into a closed bank: 63.5 ns (Sec. 4.2).
    let t = TimingParams::ddr4_1600();
    let ns = t.cycles_to_ns(u64::from(t.ras + t.reloc + t.rcd + t.rp));
    assert!((ns - 63.5).abs() < 1.5, "{ns} ns");
    // Circuit model: worst case near 0.57 ns, guardbanded near 1 ns.
    let mc = run_monte_carlo(&RelocCircuit::paper_default(), 500, 0.05, 7);
    assert!(mc.all_correct);
    assert!(mc.worst_ns > 0.4 && mc.worst_ns < 0.7);
    // Energy model: one-block relocation within the paper's order (0.03 uJ).
    let nj = DramEnergyModel::ddr4_1600().one_block_relocation_nj();
    assert!(nj > 5.0 && nj < 60.0);
}

#[test]
fn area_anchors_match_paper() {
    let r = AreaModel::paper_default().paper_report();
    assert!(r.figaro_chip_overhead < 0.003);
    assert!((r.figcache_fast_overhead - 0.007).abs() < 0.001);
    assert!((r.lisa_villa_overhead - 0.056).abs() < 0.002);
    assert!(r.fts.total_kib > 24.0 && r.fts.total_kib < 27.0);
}

#[test]
fn refresh_interacts_safely_with_relocation_traffic() {
    // Refresh must wait for in-flight jobs and then fire; the system
    // keeps making progress around it.
    let dram = fig_dram();
    let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
    let cfg = McConfig { enable_refresh: true, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
    let mapping = AddressMapping::new(dram.geometry);
    let mut id = 0u64;
    let mut completed = 0u64;
    for now in 0..40_000u64 {
        if now % 37 == 0 && mc.can_accept(false) {
            let addr = PhysAddr((id * 131) % (1 << 30) * 64);
            let loc = mapping.decode(addr);
            assert_eq!(loc.channel, 0);
            mc.enqueue(
                Request { id, addr, is_write: id.is_multiple_of(5), core: 0, arrival: now },
                now,
            );
            id += 1;
        }
        mc.tick(now);
        completed += drained_count(&mut mc);
    }
    assert!(mc.dram_stats().refreshes >= 5, "refreshes: {}", mc.dram_stats().refreshes);
    assert!(completed > 500, "reads completed: {completed}");
    assert!(mc.dram_stats().relocs > 0);
}

#[test]
fn null_engine_base_system_issues_no_figaro_commands() {
    let dram = DramConfig::ddr4_paper_default();
    let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
    let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()));
    for i in 0..32u64 {
        mc.enqueue(
            Request { id: i, addr: PhysAddr(i * 8192 * 3), is_write: false, core: 0, arrival: 0 },
            0,
        );
    }
    drain(&mut mc, 0, 20_000);
    assert_eq!(mc.dram_stats().relocs, 0);
    assert_eq!(mc.dram_stats().merges + mc.dram_stats().merges_fast, 0);
    assert_eq!(mc.dram_stats().lisa_clones, 0);
    assert_eq!(mc.stats().reads_served, 32);
}

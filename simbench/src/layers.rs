//! Standalone drives: each layer's public entry point replayed on a
//! workload's own op stream (recorded by [`crate::timed::TimedSource`])
//! or on the LLC-miss stream that op stream produces.
//!
//! The drives isolate one layer's host cost per call. They are not the
//! real run: the hierarchy drive answers every fill at once, the
//! controller drive keeps its queues full, and the DRAM drive issues
//! each request's commands in order with an open-page policy. Their
//! counts explain the drive's own timings, not the simulated results.

use std::time::Instant;

use figaro_cpu::{Access, CacheHierarchy};
use figaro_dram::channel::ILLEGAL;
use figaro_dram::{AddressMapping, DramChannel, DramCommand, DramConfig, PhysAddr, RowId};
use figaro_memctrl::{Completion, MemoryController, Request};
use figaro_sim::SystemConfig;
use figaro_workloads::TraceOp;

/// One request leaving the LLC (a fill or a dirty writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miss {
    /// Block address.
    pub addr: u64,
    /// Writeback (`true`) or fill (`false`).
    pub is_write: bool,
    /// Requesting core.
    pub core: u8,
}

/// Host time of one drive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Drive {
    /// Calls into the layer's entry point.
    pub calls: u64,
    /// Host nanoseconds for all of them.
    pub nanos: u64,
    /// A drive-specific count: MSHR stalls (hierarchy), bus ticks
    /// (controller), refused commands (DRAM), relocation jobs (engine).
    pub extra: u64,
}

impl Drive {
    /// Nanoseconds per call.
    #[must_use]
    pub fn ns_per_call(&self) -> f64 {
        self.nanos as f64 / self.calls.max(1) as f64
    }
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays the per-core op streams, interleaved one op per core per
/// step, through `CacheHierarchy::access`. Every fill completes at once
/// (`on_completion` on the same step), so MSHRs never fill; returns the
/// drive and the LLC-miss stream in issue order.
#[must_use]
pub fn drive_hierarchy(cfg: &SystemConfig, ops: &[Vec<TraceOp>]) -> (Drive, Vec<Miss>) {
    let mut h = CacheHierarchy::new(cfg.hierarchy, ops.len());
    let mut misses: Vec<Miss> = Vec::new();
    let mut fills: Vec<u64> = Vec::new();
    let mut drive = Drive::default();
    let longest = ops.iter().map(Vec::len).max().unwrap_or(0);
    let t0 = Instant::now();
    for step in 0..longest {
        for (core, stream) in ops.iter().enumerate() {
            let Some(op) = stream.get(step) else { continue };
            if h.access(core, op.addr, op.is_write, step as u64) == Access::Stall {
                drive.extra += 1;
            }
            drive.calls += 1;
            if h.has_outgoing() {
                for r in h.take_outgoing() {
                    misses.push(Miss { addr: r.addr.0, is_write: r.is_write, core: r.core });
                    if !r.is_write {
                        fills.push(r.id);
                    }
                }
                for id in fills.drain(..) {
                    let _ = h.on_completion(id);
                }
            }
        }
    }
    drive.nanos = nanos_since(t0);
    (drive, misses)
}

/// The miss stream split by channel, as `Request`s with their position
/// in the stream as id.
fn by_channel(cfg: &SystemConfig, mapping: &AddressMapping, misses: &[Miss]) -> Vec<Vec<Request>> {
    let mut out = vec![Vec::new(); cfg.channels as usize];
    for (id, m) in misses.iter().enumerate() {
        let ch = mapping.decode(PhysAddr(m.addr)).channel as usize;
        out[ch].push(Request {
            id: id as u64,
            addr: PhysAddr(m.addr),
            is_write: m.is_write,
            core: m.core,
            arrival: 0,
        });
    }
    out
}

fn dram_and_mapping(cfg: &SystemConfig) -> (DramConfig, AddressMapping) {
    let dram = cfg.dram_config();
    let mapping = dram.address_mapping(cfg.mc.map);
    (dram, mapping)
}

/// Feeds each channel's misses to a fresh `MemoryController` (with the
/// workload's cache engine) in order, as fast as it accepts them, ticking
/// every bus cycle and draining completions until it is idle. `extra`
/// counts controller ticks.
#[must_use]
pub fn drive_controller(cfg: &SystemConfig, misses: &[Miss]) -> Drive {
    let (dram, mapping) = dram_and_mapping(cfg);
    let streams = by_channel(cfg, &mapping, misses);
    let mut controllers: Vec<MemoryController> = (0..cfg.channels)
        .map(|ch| MemoryController::new(&dram, cfg.mc, ch, cfg.build_engine(&dram)))
        .collect();
    let mut done: Vec<Completion> = Vec::new();
    let mut drive = Drive::default();
    let t0 = Instant::now();
    for (mc, reqs) in controllers.iter_mut().zip(&streams) {
        let mut next = 0;
        let mut bus = 0u64;
        while next < reqs.len() || !mc.is_idle() {
            while next < reqs.len() && mc.can_accept(reqs[next].is_write) {
                mc.enqueue(Request { arrival: bus, ..reqs[next] }, bus);
                next += 1;
                drive.calls += 1;
            }
            mc.tick(bus);
            mc.drain_completions_into(&mut done);
            done.clear();
            bus += 1;
        }
        drive.extra += bus;
    }
    drive.nanos = nanos_since(t0);
    drive
}

/// Issues each channel's misses to a fresh `DramChannel` in order, open
/// page: precharge and activate on a row change, then the column command,
/// each at its `earliest_issue` cycle. `extra` counts commands the timing
/// model refused (always 0 for a legal sequence).
#[must_use]
pub fn drive_dram(cfg: &SystemConfig, misses: &[Miss]) -> Drive {
    let (dram, mapping) = dram_and_mapping(cfg);
    let streams = by_channel(cfg, &mapping, misses);
    let mut channels: Vec<DramChannel> =
        (0..cfg.channels).map(|_| DramChannel::new(&dram)).collect();
    let mut drive = Drive::default();
    let t0 = Instant::now();
    for (ch, reqs) in channels.iter_mut().zip(&streams) {
        let mut now = 0;
        for r in reqs {
            let loc = mapping.decode(r.addr);
            let bank = loc.bank_addr();
            let column = if r.is_write {
                DramCommand::Write { col: loc.col, auto_pre: false }
            } else {
                DramCommand::Read { col: loc.col, auto_pre: false }
            };
            let open = ch.open_row(bank);
            let cmds: &[DramCommand] = match open {
                Some(row) if row == loc.row => &[column],
                Some(_) => {
                    &[DramCommand::Precharge, DramCommand::Activate { row: loc.row }, column]
                }
                None => &[DramCommand::Activate { row: loc.row }, column],
            };
            for cmd in cmds {
                let at = ch.earliest_issue(bank, cmd, now);
                if at == ILLEGAL {
                    drive.extra += 1;
                    break;
                }
                let _ = ch.issue(bank, cmd, at);
                now = at;
                drive.calls += 1;
            }
        }
    }
    drive.nanos = nanos_since(t0);
    drive
}

/// Looks every miss up in a fresh cache engine of the workload's kind
/// (`CacheEngine::on_request`), tracking each bank's open row from the
/// engine's own answers; relocation jobs complete as soon as they are
/// handed out.
#[must_use]
pub fn drive_engine(cfg: &SystemConfig, misses: &[Miss]) -> Drive {
    let (dram, mapping) = dram_and_mapping(cfg);
    let streams = by_channel(cfg, &mapping, misses);
    let banks = dram.geometry.banks_per_channel() as usize;
    let mut engines: Vec<_> = (0..cfg.channels).map(|_| cfg.build_engine(&dram)).collect();
    let mut drive = Drive::default();
    let t0 = Instant::now();
    for (engine, reqs) in engines.iter_mut().zip(&streams) {
        let mut open: Vec<Option<RowId>> = vec![None; banks];
        for (now, r) in reqs.iter().enumerate() {
            let now = now as u64;
            let loc = mapping.decode(r.addr);
            let flat = loc.flat_bank(&dram.geometry);
            let target =
                engine.on_request(flat, loc.row, loc.col, r.is_write, open[flat as usize], now);
            open[flat as usize] = Some(target.row);
            drive.calls += 1;
            while let Some(job) = engine.take_job(flat, now) {
                engine.on_job_complete(flat, job.id, now);
                drive.extra += 1;
            }
        }
    }
    drive.nanos = nanos_since(t0);
    drive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::pinned_config;
    use figaro_sim::ConfigKind;
    use figaro_workloads::{profile_by_name, TraceGenerator};

    #[test]
    fn drives_replay_every_request_for_each_engine() {
        let mcf = profile_by_name("mcf").expect("Table 2 has mcf");
        let mut gen = TraceGenerator::new(&mcf, 11);
        let ops: Vec<TraceOp> = (0..20_000).map(|_| gen.next().expect("endless")).collect();
        for kind in [ConfigKind::Base, ConfigKind::LisaVilla, ConfigKind::FigCacheFast] {
            let cfg = pinned_config(1, kind);
            let (hier, misses) = drive_hierarchy(&cfg, std::slice::from_ref(&ops));
            assert_eq!(hier.calls, ops.len() as u64);
            assert_eq!(hier.extra, 0, "fills complete at once, so no MSHR stalls");
            assert!(!misses.is_empty());
            let n = misses.len() as u64;
            let mc = drive_controller(&cfg, &misses);
            assert_eq!(mc.calls, n);
            assert!(mc.extra > 0);
            let dram = drive_dram(&cfg, &misses);
            assert_eq!(dram.extra, 0, "the open-page sequence is always legal");
            assert!(dram.calls >= n);
            assert_eq!(drive_engine(&cfg, &misses).calls, n);
        }
    }
}

//! The three-level cache hierarchy with per-core MSHRs.
//!
//! Private L1/L2 per core, one shared LLC. Misses past the LLC allocate an
//! MSHR entry (merging same-block misses from the same core) and emit a
//! fill request toward the memory controllers; fills propagate back
//! through LLC → L2 → L1, pushing dirty victims downward (ultimately as
//! write requests to DRAM).

use std::collections::{HashMap, VecDeque};

use figaro_dram::PhysAddr;
use figaro_memctrl::Request;

use crate::cache::{CacheParams, CacheStats, SetAssocCache};

/// Hierarchy configuration (paper Table 1 defaults via
/// [`HierarchyConfig::paper_default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Private L1 (per core).
    pub l1: CacheParams,
    /// Private L2 (per core).
    pub l2: CacheParams,
    /// Shared LLC (total size; callers scale by core count).
    pub llc: CacheParams,
    /// MSHRs per core (outstanding LLC misses).
    pub mshrs_per_core: usize,
    /// Extra CPU cycles from LLC data arrival to the waiting load
    /// (fill-to-use).
    pub fill_latency: u32,
}

impl HierarchyConfig {
    /// The paper's hierarchy for `cores` cores: L1 64 kB 4-way (4 cycles),
    /// L2 256 kB 8-way (12 cycles), shared LLC 2 MB/core 16-way
    /// (38 cycles), 8 MSHRs/core.
    #[must_use]
    pub fn paper_default(cores: usize) -> Self {
        Self {
            l1: CacheParams { size_bytes: 64 << 10, ways: 4, block_bytes: 64, latency: 4 },
            l2: CacheParams { size_bytes: 256 << 10, ways: 8, block_bytes: 64, latency: 12 },
            llc: CacheParams {
                size_bytes: (2 << 20) * cores as u64,
                ways: 16,
                block_bytes: 64,
                latency: 38,
            },
            mshrs_per_core: 8,
            fill_latency: 4,
        }
    }
}

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Served by some cache level; data usable at `ready_at` (CPU cycles).
    Hit {
        /// CPU cycle the data is available.
        ready_at: u64,
    },
    /// LLC miss in flight; `token` will be woken via
    /// [`CacheHierarchy::on_completion`].
    Pending {
        /// Wake-up token.
        token: u64,
    },
    /// Structural stall (MSHRs full); retry next cycle.
    Stall,
}

#[derive(Debug)]
struct MshrEntry {
    waiters: Vec<u64>,
    store: bool,
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-core L1 counters.
    pub l1: Vec<CacheStats>,
    /// Per-core L2 counters.
    pub l2: Vec<CacheStats>,
    /// Shared LLC counters.
    pub llc: CacheStats,
    /// LLC misses (fills requested) per core — the MPKI numerator.
    pub llc_misses_per_core: Vec<u64>,
    /// Misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Accesses rejected because the core's MSHRs were full.
    pub mshr_stalls: u64,
}

/// A core's stall ledger: the block its last access stalled on while
/// that stall provably persists, and the cycle through which the core's
/// stall retries are booked (see [`CacheHierarchy::apply_stall_retries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StallLedger {
    /// The stalled block, or [`StallLedger::NO_BLOCK`].
    block: u64,
    booked_through: u64,
}

impl StallLedger {
    /// No standing stall. Blocks are block-aligned, so no access matches.
    const NO_BLOCK: u64 = u64::MAX;
}

/// Where an LLC fill sits in a system's tick order: during cycle `now`,
/// cores `0..first_after` have already ticked (and retried any stalled
/// access), the rest tick after the fill.
#[derive(Debug, Clone, Copy)]
struct Filler {
    now: u64,
    first_after: usize,
}

/// The shared cache hierarchy.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    mshrs: Vec<HashMap<u64, MshrEntry>>,
    req_map: HashMap<u64, (usize, u64)>,
    outbox: VecDeque<Request>,
    next_req_id: u64,
    next_token: u64,
    llc_misses_per_core: Vec<u64>,
    mshr_merges: u64,
    mshr_stalls: u64,
    /// Per-core stall ledger. The block is cleared by the core's own
    /// slow-path accesses and completions, by an LLC fill of that block,
    /// and by `load_state`/`forget_stall`.
    ledger: Vec<StallLedger>,
    /// Cores whose standing stall was ended by another event (an LLC fill
    /// of their block, or their own completion), at most once each, until
    /// the caller takes them.
    unstalled: Vec<usize>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores.
    #[must_use]
    pub fn new(cfg: HierarchyConfig, cores: usize) -> Self {
        Self {
            cfg,
            l1: (0..cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            mshrs: (0..cores).map(|_| HashMap::new()).collect(),
            req_map: HashMap::new(),
            outbox: VecDeque::new(),
            next_req_id: 0,
            next_token: 0,
            llc_misses_per_core: vec![0; cores],
            mshr_merges: 0,
            mshr_stalls: 0,
            ledger: vec![StallLedger { block: StallLedger::NO_BLOCK, booked_through: 0 }; cores],
            unstalled: Vec::new(),
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !u64::from(self.cfg.l1.block_bytes - 1)
    }

    /// Demand access from `core`. Loads may return [`Access::Pending`];
    /// stores are posted, so they return [`Access::Hit`] even when the
    /// line is being fetched (the MSHR records that the eventual fill must
    /// be dirty). [`Access::Stall`] means the core must retry.
    ///
    /// A core retrying the block it last stalled on takes a fast path
    /// while its stall ledger still holds that block: the stall depends
    /// only on the core's own L1, L2 and MSHRs (which change only through
    /// its own slow-path accesses and completions, both of which clear the
    /// ledger) and on the block's LLC presence (which changes only through
    /// an LLC fill of the block, which clears it too). The fast path books
    /// exactly the slow path's side effects.
    ///
    /// A stalled core is modelled as retrying every cycle until its stall
    /// ends. When this access's fills bring a block another core is
    /// stalled on into the LLC, that core's unbooked retries are booked
    /// first, with `core` ticking at `now` in ascending core order (see
    /// [`CacheHierarchy::on_completion_at`]); a caller that retries every
    /// cycle has none left to book.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> Access {
        let block = self.block_of(addr);
        if self.ledger[core].block == block {
            self.book_stall_retries(core, block, 1);
            self.ledger[core].booked_through = now;
            return Access::Stall;
        }
        self.ledger[core].block = StallLedger::NO_BLOCK;
        let by = Some(Filler { now, first_after: core });
        let lat1 = u64::from(self.cfg.l1.latency);
        if self.l1[core].access(block, is_write) {
            return Access::Hit { ready_at: now + lat1 };
        }
        let lat2 = lat1 + u64::from(self.cfg.l2.latency);
        if self.l2[core].access(block, false) {
            self.fill_l1(core, block, is_write, by);
            return Access::Hit { ready_at: now + lat2 };
        }
        let lat3 = lat2 + u64::from(self.cfg.llc.latency);
        if self.llc.access(block, false) {
            self.fill_l2(core, block, by);
            self.fill_l1(core, block, is_write, by);
            return Access::Hit { ready_at: now + lat3 };
        }
        // LLC miss → MSHR.
        if let Some(entry) = self.mshrs[core].get_mut(&block) {
            entry.store |= is_write;
            self.mshr_merges += 1;
            if is_write {
                return Access::Hit { ready_at: now + lat1 }; // posted
            }
            let token = self.next_token;
            self.next_token += 1;
            entry.waiters.push(token);
            return Access::Pending { token };
        }
        if self.mshrs[core].len() >= self.cfg.mshrs_per_core {
            self.mshr_stalls += 1;
            self.ledger[core] = StallLedger { block, booked_through: now };
            return Access::Stall;
        }
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.llc_misses_per_core[core] += 1;
        self.outbox.push_back(Request {
            id: req_id,
            addr: PhysAddr(block),
            is_write: false,
            core: core as u8,
            arrival: 0, // stamped by the sim when it reaches the controller
        });
        self.req_map.insert(req_id, (core, block));
        let mut entry = MshrEntry { waiters: Vec::new(), store: is_write };
        if is_write {
            self.mshrs[core].insert(block, entry);
            return Access::Hit { ready_at: now + lat1 }; // posted store
        }
        let token = self.next_token;
        self.next_token += 1;
        entry.waiters.push(token);
        self.mshrs[core].insert(block, entry);
        Access::Pending { token }
    }

    fn fill_l1(&mut self, core: usize, block: u64, dirty: bool, by: Option<Filler>) {
        if let Some(victim) = self.l1[core].fill(block, dirty) {
            self.fill_l2_dirty(core, victim, by);
        }
    }

    fn fill_l2(&mut self, core: usize, block: u64, by: Option<Filler>) {
        if let Some(victim) = self.l2[core].fill(block, false) {
            self.fill_llc(victim, true, by);
        }
    }

    fn fill_l2_dirty(&mut self, core: usize, block: u64, by: Option<Filler>) {
        if let Some(victim) = self.l2[core].fill(block, true) {
            self.fill_llc(victim, true, by);
        }
    }

    /// Every LLC insertion goes through here, so a core stalled on
    /// `block` has its retries booked up to the fill (see
    /// [`CacheHierarchy::end_stall`]) and its ledger cleared first.
    fn fill_llc(&mut self, block: u64, dirty: bool, by: Option<Filler>) {
        for core in 0..self.ledger.len() {
            if self.ledger[core].block == block {
                self.end_stall(core, by);
            }
        }
        if let Some(victim) = self.llc.fill(block, dirty) {
            self.push_writeback(victim);
        }
    }

    fn push_writeback(&mut self, block: u64) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.outbox.push_back(Request {
            id: req_id,
            addr: PhysAddr(block),
            is_write: true,
            core: 0,
            arrival: 0,
        });
    }

    /// A fill returned from memory, for callers that retry every stalled
    /// access each cycle (so no stall retry is ever deferred): installs
    /// the block in LLC/L2/L1 and returns the load tokens to wake (the
    /// core adds [`HierarchyConfig::fill_latency`]). The simulation
    /// kernels use [`CacheHierarchy::on_completion_at`]; this form serves
    /// the unit tests and the benchmark's cache-layer probe
    /// (`simbench/src/layers.rs`).
    ///
    /// # Panics
    ///
    /// Panics on completions for unknown request ids (writes are posted
    /// and produce no completions).
    pub fn on_completion(&mut self, req_id: u64) -> Vec<u64> {
        self.deliver(req_id, None)
    }

    /// [`CacheHierarchy::on_completion`] delivered at CPU cycle `now`,
    /// before any core ticks in that cycle, for callers that defer stall
    /// retries through [`CacheHierarchy::apply_stall_retries`]. Every
    /// core whose stall this completion ends — the owner, whose MSHR
    /// frees, and any core stalled on a block the fills bring into the
    /// LLC — has its retries booked through `now - 1` first and is
    /// reported by [`CacheHierarchy::take_unstalled`]. A fill caused by
    /// an [`CacheHierarchy::access`] of core `c` at `now` books cores
    /// below `c` through `now` (they retried at `now` before `c` ticked)
    /// and the rest through `now - 1`.
    ///
    /// # Panics
    ///
    /// Panics on completions for unknown request ids.
    pub fn on_completion_at(&mut self, req_id: u64, now: u64) -> Vec<u64> {
        self.deliver(req_id, Some(Filler { now, first_after: 0 }))
    }

    fn deliver(&mut self, req_id: u64, by: Option<Filler>) -> Vec<u64> {
        let (core, block) = self.req_map.remove(&req_id).expect("completion for unknown request");
        self.end_stall(core, by);
        let entry = self.mshrs[core].remove(&block).expect("MSHR entry must exist");
        self.fill_llc(block, false, by);
        self.fill_l2(core, block, by);
        self.fill_l1(core, block, entry.store, by);
        entry.waiters
    }

    /// Ends `core`'s standing stall, if any, ahead of an event that may
    /// lift it: books its deferred retries up to the event's place in tick
    /// order (nothing for per-cycle callers, `by == None`), clears the
    /// ledger block and reports the core as unstalled.
    fn end_stall(&mut self, core: usize, by: Option<Filler>) {
        let block = self.ledger[core].block;
        if block == StallLedger::NO_BLOCK {
            return;
        }
        if let Some(by) = by {
            let through = if core < by.first_after { by.now } else { by.now.saturating_sub(1) };
            self.book_through(core, block, through);
        }
        self.ledger[core].block = StallLedger::NO_BLOCK;
        if !self.unstalled.contains(&core) {
            self.unstalled.push(core);
        }
    }

    /// Takes the cores whose stall on full MSHRs was ended by something
    /// other than their own access — an LLC fill of the stalled block or
    /// their own completion — since the last call, each at most once. A
    /// system that ticks a stalled core only when its stall can end ticks
    /// these next.
    pub fn take_unstalled(&mut self) -> std::vec::Drain<'_, usize> {
        self.unstalled.drain(..)
    }

    /// Forgets `core`'s standing stall, for a core that stops retrying
    /// its stalled access (it finished, or a functional fast-forward
    /// dropped the access): no retries are booked for it afterwards, and
    /// its next access walks the full lookup path.
    pub fn forget_stall(&mut self, core: usize) {
        self.ledger[core].block = StallLedger::NO_BLOCK;
    }

    /// Deferred accounting for the retries of an access that stalls on
    /// full MSHRs: books every retry of cycles up to and including
    /// `through` that is not booked yet — the exact per-cycle side
    /// effects of [`CacheHierarchy::access`] returning [`Access::Stall`],
    /// an L1, L2 and LLC miss plus one MSHR-stall count per cycle, without
    /// walking the lookup path each cycle. An event-driven system loop
    /// uses this to skip over stalled intervals while keeping every
    /// counter (and the caches' recency clocks) bit-identical to
    /// per-cycle ticking.
    ///
    /// The ledger records the last booked cycle per core, so booking is
    /// idempotent. Retries are booked ahead of any event that ends the
    /// stall (see [`CacheHierarchy::on_completion_at`]), so the stall
    /// predicate holds at every booking.
    pub fn apply_stall_retries(&mut self, core: usize, addr: u64, through: u64) {
        self.book_through(core, self.block_of(addr), through);
    }

    /// Books `core`'s unbooked retries on `block` through cycle `through`.
    fn book_through(&mut self, core: usize, block: u64, through: u64) {
        let booked = self.ledger[core].booked_through;
        if through > booked {
            self.book_stall_retries(core, block, through - booked);
            self.ledger[core].booked_through = through;
        }
    }

    /// Books `times` retries of `core`'s access to `block` that stall on
    /// full MSHRs: one L1, L2 and LLC miss each (advancing the recency
    /// clocks as the lookups would) and one MSHR stall.
    fn book_stall_retries(&mut self, core: usize, block: u64, times: u64) {
        debug_assert!(
            self.stalls_on_full_mshrs(core, block),
            "stall retries require the block to miss every level and full MSHRs without a \
             mergeable entry"
        );
        self.l1[core].note_misses(times);
        self.l2[core].note_misses(times);
        self.llc.note_misses(times);
        self.mshr_stalls += times;
    }

    /// The full stall predicate of [`CacheHierarchy::access`]: `block`
    /// misses every level and `core`'s MSHRs are full with no entry to
    /// merge into.
    fn stalls_on_full_mshrs(&self, core: usize, block: u64) -> bool {
        !self.l1[core].probe(block)
            && !self.l2[core].probe(block)
            && !self.llc.probe(block)
            && !self.mshrs[core].contains_key(&block)
            && self.mshrs[core].len() >= self.cfg.mshrs_per_core
    }

    /// The next CPU cycle strictly after `now` at which the hierarchy has
    /// work for the system loop: the bus boundary that will route pending
    /// outgoing requests toward the memory controllers. `None` when the
    /// outbox is empty (fills and wakes are driven externally via
    /// [`CacheHierarchy::on_completion`]).
    #[must_use]
    pub fn next_event_at(&self, now: u64, cpu_cycles_per_bus: u64) -> Option<u64> {
        self.has_outgoing().then(|| (now / cpu_cycles_per_bus + 1) * cpu_cycles_per_bus)
    }

    /// Drains fill/writeback requests headed to the memory controllers.
    pub fn take_outgoing(&mut self) -> std::collections::vec_deque::Drain<'_, Request> {
        self.outbox.drain(..)
    }

    /// Peeks whether any outgoing request is waiting.
    #[must_use]
    pub fn has_outgoing(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Outstanding LLC misses of `core`.
    #[must_use]
    pub fn outstanding(&self, core: usize) -> usize {
        self.mshrs[core].len()
    }

    /// Appends the hierarchy's live state (cache lines, MSHRs, in-flight
    /// request map, outbox, counters) to a snapshot word stream. Hash maps
    /// are walked in sorted-key order so the byte stream is deterministic.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        for c in &self.l1 {
            c.save_state(out);
        }
        for c in &self.l2 {
            c.save_state(out);
        }
        self.llc.save_state(out);
        for per_core in &self.mshrs {
            let mut blocks: Vec<u64> = per_core.keys().copied().collect();
            blocks.sort_unstable();
            out.push(blocks.len() as u64);
            for block in blocks {
                let entry = &per_core[&block];
                out.push(block);
                out.push(u64::from(entry.store));
                out.push(entry.waiters.len() as u64);
                out.extend_from_slice(&entry.waiters);
            }
        }
        let mut ids: Vec<u64> = self.req_map.keys().copied().collect();
        ids.sort_unstable();
        out.push(ids.len() as u64);
        for id in ids {
            let (core, block) = self.req_map[&id];
            out.push(id);
            out.push(core as u64);
            out.push(block);
        }
        out.push(self.outbox.len() as u64);
        for r in &self.outbox {
            out.push(r.id);
            out.push(r.addr.0);
            out.push(u64::from(r.is_write));
            out.push(u64::from(r.core));
            out.push(r.arrival);
        }
        out.push(self.next_req_id);
        out.push(self.next_token);
        out.push(self.llc_misses_per_core.len() as u64);
        out.extend_from_slice(&self.llc_misses_per_core);
        out.push(self.mshr_merges);
        out.push(self.mshr_stalls);
    }

    /// Restores state saved by [`CacheHierarchy::save_state`] into a
    /// hierarchy built with the same configuration and core count.
    ///
    /// # Panics
    ///
    /// Panics on a truncated stream or geometry mismatch.
    pub fn load_state(&mut self, src: &mut &[u64]) {
        for c in &mut self.l1 {
            c.load_state(src);
        }
        for c in &mut self.l2 {
            c.load_state(src);
        }
        self.llc.load_state(src);
        for per_core in &mut self.mshrs {
            per_core.clear();
            let n = crate::take(src) as usize;
            for _ in 0..n {
                let block = crate::take(src);
                let store = crate::take(src) != 0;
                let waiters = (0..crate::take(src)).map(|_| crate::take(src)).collect();
                per_core.insert(block, MshrEntry { waiters, store });
            }
        }
        self.req_map.clear();
        for _ in 0..crate::take(src) {
            let id = crate::take(src);
            let core = crate::take(src) as usize;
            let block = crate::take(src);
            self.req_map.insert(id, (core, block));
        }
        self.outbox.clear();
        for _ in 0..crate::take(src) {
            let id = crate::take(src);
            let addr = PhysAddr(crate::take(src));
            let is_write = crate::take(src) != 0;
            let core = crate::take(src) as u8;
            let arrival = crate::take(src);
            self.outbox.push_back(Request { id, addr, is_write, core, arrival });
        }
        self.next_req_id = crate::take(src);
        self.next_token = crate::take(src);
        let cores = crate::take(src) as usize;
        assert_eq!(cores, self.llc_misses_per_core.len(), "snapshot core-count mismatch");
        for v in &mut self.llc_misses_per_core {
            *v = crate::take(src);
        }
        self.mshr_merges = crate::take(src);
        self.mshr_stalls = crate::take(src);
        for core in 0..self.ledger.len() {
            self.forget_stall(core);
        }
        self.unstalled.clear();
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.iter().map(|c| c.stats).collect(),
            l2: self.l2.iter().map(|c| c.stats).collect(),
            llc: self.llc.stats,
            llc_misses_per_core: self.llc_misses_per_core.clone(),
            mshr_merges: self.mshr_merges,
            mshr_stalls: self.mshr_stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::paper_default(2), 2)
    }

    #[test]
    fn first_access_misses_to_memory_second_hits_l1() {
        let mut h = hierarchy();
        let a = h.access(0, 0x1000, false, 100);
        let Access::Pending { token } = a else { panic!("expected Pending, got {a:?}") };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        assert_eq!(reqs.len(), 1);
        assert!(!reqs[0].is_write);
        let woken = h.on_completion(reqs[0].id);
        assert_eq!(woken, vec![token]);
        match h.access(0, 0x1000, false, 200) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 204),
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn same_block_misses_merge_in_mshr() {
        let mut h = hierarchy();
        let Access::Pending { .. } = h.access(0, 0x2000, false, 0) else { panic!() };
        let Access::Pending { .. } = h.access(0, 0x2040 - 0x40, false, 1) else { panic!() };
        assert_eq!(h.take_outgoing().count(), 1, "one fill for two merged misses");
        assert_eq!(h.stats().mshr_merges, 1);
    }

    #[test]
    fn mshr_fills_up_then_stalls() {
        let mut h = hierarchy();
        for i in 0..8u64 {
            assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
        }
        assert_eq!(h.access(0, 99 * 0x10000, false, 0), Access::Stall);
        assert_eq!(h.stats().mshr_stalls, 1);
        // The other core has its own MSHRs.
        assert!(matches!(h.access(1, 99 * 0x10000, false, 0), Access::Pending { .. }));
    }

    #[test]
    fn apply_stall_retries_matches_per_cycle_stalling_accesses() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        for h in [&mut a, &mut b] {
            for i in 0..8u64 {
                assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
            }
        }
        let addr = 99 * 0x10000;
        for now in 0..6u64 {
            assert_eq!(a.access(0, addr, false, now), Access::Stall);
        }
        assert_eq!(b.access(0, addr, false, 0), Access::Stall);
        b.apply_stall_retries(0, addr, 5);
        assert_eq!(a.stats().mshr_stalls, b.stats().mshr_stalls);
        assert_eq!(a.stats().l1[0], b.stats().l1[0]);
        assert_eq!(a.stats().l2[0], b.stats().l2[0]);
        assert_eq!(a.stats().llc, b.stats().llc);
    }

    #[test]
    fn next_event_at_reflects_outbox_and_bus_alignment() {
        let mut h = hierarchy();
        assert_eq!(h.next_event_at(7, 4), None);
        let Access::Pending { .. } = h.access(0, 0x9000, false, 0) else { panic!() };
        // Pending outgoing request: routed at the next bus boundary.
        assert_eq!(h.next_event_at(7, 4), Some(8));
        assert_eq!(h.next_event_at(8, 4), Some(12), "a boundary routes only the next cycle over");
        let _ = h.take_outgoing().count();
        assert_eq!(h.next_event_at(7, 4), None);
    }

    #[test]
    fn store_miss_is_posted_and_fill_becomes_dirty() {
        let mut h = hierarchy();
        assert!(matches!(h.access(0, 0x3000, true, 0), Access::Hit { .. }));
        let reqs: Vec<Request> = h.take_outgoing().collect();
        assert_eq!(reqs.len(), 1);
        let woken = h.on_completion(reqs[0].id);
        assert!(woken.is_empty(), "no load waiters for a posted store");
        // Evict the line by filling enough conflicting blocks through L1.
        // Instead, verify via a second store hit: the line is in L1.
        assert!(
            matches!(h.access(0, 0x3000, true, 10), Access::Hit { ready_at } if ready_at == 14)
        );
    }

    #[test]
    fn l2_hit_latency_is_l1_plus_l2() {
        let mut h = hierarchy();
        let Access::Pending { .. } = h.access(0, 0x4000, false, 0) else { panic!() };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        h.on_completion(reqs[0].id);
        // Evict from tiny L1 by filling 4 ways of its set + more.
        let l1_set_stride = 256 * 64u64; // 256 sets
        for i in 1..=4u64 {
            let Access::Pending { .. } = h.access(0, 0x4000 + i * l1_set_stride, false, 0) else {
                panic!()
            };
        }
        let reqs: Vec<Request> = h.take_outgoing().collect();
        for r in reqs {
            h.on_completion(r.id);
        }
        // 0x4000 fell out of L1 but sits in L2.
        match h.access(0, 0x4000, false, 1000) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 1000 + 4 + 12),
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_llc_eviction_emits_writeback() {
        // Tiny hierarchy to force LLC evictions quickly.
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 1024, ways: 1, block_bytes: 64, latency: 3 },
            mshrs_per_core: 8,
            fill_latency: 1,
        };
        let mut h = CacheHierarchy::new(cfg, 1);
        // Write block A (posted store), fill it.
        assert!(matches!(h.access(0, 0, true, 0), Access::Hit { .. }));
        let reqs: Vec<Request> = h.take_outgoing().collect();
        h.on_completion(reqs[0].id);
        // Stream conflicting blocks through the same sets to push A out of
        // L1 -> L2 -> LLC -> memory.
        let mut wrote_back = false;
        for i in 1..64u64 {
            match h.access(0, i * 1024, false, i) {
                Access::Pending { .. } => {
                    let reqs: Vec<Request> = h.take_outgoing().collect();
                    for r in &reqs {
                        if r.is_write {
                            wrote_back = true;
                            assert_eq!(r.addr, PhysAddr(0));
                        }
                    }
                    for r in reqs.iter().filter(|r| !r.is_write) {
                        h.on_completion(r.id);
                    }
                    // Writebacks may also surface after fills.
                    for r in h.take_outgoing() {
                        if r.is_write && r.addr == PhysAddr(0) {
                            wrote_back = true;
                        }
                    }
                }
                Access::Hit { .. } => {}
                Access::Stall => panic!("unexpected stall"),
            }
            if wrote_back {
                break;
            }
        }
        assert!(wrote_back, "dirty block 0 must eventually be written back");
    }

    /// Core 0 holds eight outstanding misses and has stalled twice on
    /// `STALLED` (the second time through the repeat-stall fast path).
    /// Returns the read requests issued so far, in order.
    fn stall_core0(h: &mut CacheHierarchy) -> Vec<Request> {
        for i in 0..8u64 {
            assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
        }
        assert_eq!(h.access(0, STALLED, false, 1), Access::Stall);
        assert_eq!(h.access(0, STALLED, false, 2), Access::Stall);
        assert_eq!(h.stats().mshr_stalls, 2);
        h.take_outgoing().collect()
    }

    const STALLED: u64 = 99 * 0x10000;

    #[test]
    fn repeat_stall_ends_when_another_cores_completion_fills_the_llc() {
        let mut h = hierarchy();
        let _ = stall_core0(&mut h);
        let Access::Pending { .. } = h.access(1, STALLED, false, 3) else { panic!() };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        h.on_completion(reqs[0].id);
        match h.access(0, STALLED, false, 10) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 10 + 4 + 12 + 38),
            other => panic!("expected LLC hit, got {other:?}"),
        }
        assert_eq!(h.stats().mshr_stalls, 2);
    }

    #[test]
    fn repeat_stall_ends_when_another_cores_dirty_l2_victim_reaches_the_llc() {
        // Direct-mapped levels: L1 2 sets, L2 4 sets, LLC 8 sets; one MSHR
        // per core. Block n sits in L1 set n%2, L2 set n%4, LLC set n%8.
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 128, ways: 1, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 3 },
            mshrs_per_core: 1,
            fill_latency: 1,
        };
        let mut h = CacheHierarchy::new(cfg, 2);
        let block = |n: u64| n * 64;
        let fetch = |h: &mut CacheHierarchy, core: usize, n: u64, is_write: bool| {
            let _ = h.access(core, block(n), is_write, 0);
            let reqs: Vec<Request> = h.take_outgoing().collect();
            assert_eq!(reqs.len(), 1);
            h.on_completion(reqs[0].id);
        };
        // Core 1 stores block 0, then block 2 pushes it out of L1, leaving
        // it dirty in core 1's L2.
        fetch(&mut h, 1, 0, true);
        fetch(&mut h, 1, 2, false);
        // Core 0 brings block 4 into the LLC, then block 8 evicts block 0
        // (clean there) from LLC set 0.
        fetch(&mut h, 0, 4, false);
        fetch(&mut h, 0, 8, false);
        // Core 0's single MSHR goes to block 3; block 0 now stalls.
        assert!(matches!(h.access(0, block(3), false, 0), Access::Pending { .. }));
        let _ = h.take_outgoing().count();
        assert_eq!(h.access(0, block(0), false, 1), Access::Stall);
        assert_eq!(h.access(0, block(0), false, 2), Access::Stall);
        // Core 1's LLC hit on block 4 evicts its dirty L2 copy of block 0
        // into the LLC: no completion is involved.
        assert!(matches!(h.access(1, block(4), false, 3), Access::Hit { .. }));
        match h.access(0, block(0), false, 10) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 10 + 1 + 2 + 3),
            other => panic!("expected LLC hit, got {other:?}"),
        }
    }

    #[test]
    fn repeat_stall_ends_when_the_cores_own_completion_frees_an_mshr() {
        let mut h = hierarchy();
        let reqs = stall_core0(&mut h);
        h.on_completion(reqs[0].id);
        assert!(matches!(h.access(0, STALLED, false, 10), Access::Pending { .. }));
        assert_eq!(h.stats().mshr_stalls, 2);
    }

    #[test]
    fn repeat_stall_ends_when_state_is_loaded() {
        let mut h = hierarchy();
        let mut empty = Vec::new();
        h.save_state(&mut empty);
        let _ = stall_core0(&mut h);
        h.load_state(&mut &empty[..]);
        assert!(matches!(h.access(0, STALLED, false, 10), Access::Pending { .. }));
        assert_eq!(h.stats().mshr_stalls, 0);
    }

    #[test]
    fn repeat_stall_books_what_the_lookup_walk_books() {
        let mut fast = hierarchy();
        let mut slow = hierarchy();
        let _ = stall_core0(&mut fast);
        let _ = stall_core0(&mut slow);
        for now in 3..10u64 {
            assert_eq!(fast.access(0, STALLED, true, now), Access::Stall);
            round_trip(&mut slow);
            assert_eq!(slow.access(0, STALLED, true, now), Access::Stall);
        }
        assert_eq!(fast.stats(), slow.stats());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fast.save_state(&mut a);
        slow.save_state(&mut b);
        assert_eq!(a, b, "recency clocks and lines advance identically");
    }

    #[test]
    fn deferred_booking_equals_per_cycle_retries_including_lru_clocks() {
        let mut deferred = hierarchy();
        let mut per_cycle = hierarchy();
        let _ = stall_core0(&mut deferred);
        let _ = stall_core0(&mut per_cycle);
        for now in 3..=20u64 {
            assert_eq!(per_cycle.access(0, STALLED, false, now), Access::Stall);
        }
        // Booking is idempotent: overlapping and repeated targets book
        // each cycle once.
        deferred.apply_stall_retries(0, STALLED, 9);
        deferred.apply_stall_retries(0, STALLED, 5);
        deferred.apply_stall_retries(0, STALLED, 20);
        deferred.apply_stall_retries(0, STALLED, 20);
        assert_eq!(deferred.stats(), per_cycle.stats());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        deferred.save_state(&mut a);
        per_cycle.save_state(&mut b);
        assert_eq!(a, b, "recency clocks and lines advance identically");
        // The ledger keeps the fast path: the next retry books one more.
        assert_eq!(deferred.access(0, STALLED, false, 21), Access::Stall);
        assert_eq!(deferred.stats().mshr_stalls, 21);
    }

    /// Core `stalled` sits stalled on block 0 since cycle 1 (one MSHR,
    /// busy with block 3), while core `filler` holds block 0 dirty in its
    /// L2 and block 4 waits in the LLC: `filler`'s access to block 4 at
    /// any later cycle pushes block 0 into the LLC as a dirty L2 victim.
    fn dirty_victim_stall(stalled: usize, filler: usize) -> CacheHierarchy {
        // Direct-mapped levels: L1 2 sets, L2 4 sets, LLC 8 sets; one MSHR
        // per core. Block n sits in L1 set n%2, L2 set n%4, LLC set n%8.
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 128, ways: 1, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 3 },
            mshrs_per_core: 1,
            fill_latency: 1,
        };
        let mut h = CacheHierarchy::new(cfg, 2);
        let fetch = |h: &mut CacheHierarchy, core: usize, n: u64, is_write: bool| {
            let _ = h.access(core, n * 64, is_write, 0);
            let reqs: Vec<Request> = h.take_outgoing().collect();
            assert_eq!(reqs.len(), 1);
            h.on_completion(reqs[0].id);
        };
        fetch(&mut h, filler, 0, true);
        fetch(&mut h, filler, 2, false);
        fetch(&mut h, stalled, 4, false);
        fetch(&mut h, stalled, 8, false);
        assert!(matches!(h.access(stalled, 3 * 64, false, 0), Access::Pending { .. }));
        let _ = h.take_outgoing().count();
        assert_eq!(h.access(stalled, 0, false, 1), Access::Stall);
        h
    }

    #[test]
    fn dirty_victim_fill_books_the_stalled_cores_retries_by_tick_order() {
        // (stalled, filler, cycle the deferred retries are booked through)
        for (stalled, filler, through) in [(0, 1, 10u64), (1, 0, 9)] {
            let mut deferred = dirty_victim_stall(stalled, filler);
            let mut per_cycle = dirty_victim_stall(stalled, filler);
            for now in 2..=through {
                assert_eq!(per_cycle.access(stalled, 0, false, now), Access::Stall);
            }
            assert!(matches!(per_cycle.access(filler, 4 * 64, false, 10), Access::Hit { .. }));
            assert!(matches!(deferred.access(filler, 4 * 64, false, 10), Access::Hit { .. }));
            assert_eq!(deferred.stats(), per_cycle.stats(), "stalled={stalled} filler={filler}");
            assert_eq!(deferred.stats().mshr_stalls, through);
            assert_eq!(deferred.take_unstalled().collect::<Vec<_>>(), vec![stalled]);
            // Everything up to the fill is booked; the stall has ended.
            deferred.apply_stall_retries(stalled, 0, through);
            assert_eq!(deferred.stats().mshr_stalls, through);
            assert!(matches!(deferred.access(stalled, 0, false, 11), Access::Hit { .. }));
        }
    }

    #[test]
    fn completion_fill_books_the_stalled_cores_retries_through_the_previous_cycle() {
        let mut deferred = hierarchy();
        let mut per_cycle = hierarchy();
        for h in [&mut deferred, &mut per_cycle] {
            let _ = stall_core0(h);
            let Access::Pending { .. } = h.access(1, STALLED, false, 3) else { panic!() };
        }
        let id = deferred.take_outgoing().next().expect("core 1's fill request").id;
        let _ = per_cycle.take_outgoing().count();
        for now in 3..10u64 {
            assert_eq!(per_cycle.access(0, STALLED, false, now), Access::Stall);
        }
        per_cycle.on_completion(id);
        deferred.on_completion_at(id, 10);
        assert_eq!(deferred.stats(), per_cycle.stats());
        assert_eq!(deferred.stats().mshr_stalls, 9);
        assert_eq!(deferred.take_unstalled().collect::<Vec<_>>(), vec![0]);
        assert!(matches!(deferred.access(0, STALLED, false, 10), Access::Hit { .. }));
    }

    #[test]
    fn own_completion_books_the_cores_retries_through_the_previous_cycle() {
        let mut deferred = hierarchy();
        let mut per_cycle = hierarchy();
        let reqs = stall_core0(&mut deferred);
        let _ = stall_core0(&mut per_cycle);
        for now in 3..10u64 {
            assert_eq!(per_cycle.access(0, STALLED, false, now), Access::Stall);
        }
        per_cycle.on_completion(reqs[0].id);
        deferred.on_completion_at(reqs[0].id, 10);
        assert_eq!(deferred.stats(), per_cycle.stats());
        assert_eq!(deferred.stats().mshr_stalls, 9);
        assert_eq!(deferred.take_unstalled().collect::<Vec<_>>(), vec![0]);
        assert!(matches!(deferred.access(0, STALLED, false, 10), Access::Pending { .. }));
    }

    #[test]
    fn a_finished_core_books_no_further_retries() {
        let mut h = hierarchy();
        let reqs = stall_core0(&mut h);
        h.forget_stall(0);
        h.on_completion_at(reqs[0].id, 50);
        assert_eq!(h.stats().mshr_stalls, 2);
        assert_eq!(h.take_unstalled().count(), 0);
    }

    /// Saves and reloads `h`, which clears every repeat-stall memo, so the
    /// next access walks the full lookup path.
    pub(super) fn round_trip(h: &mut CacheHierarchy) {
        let mut words = Vec::new();
        h.save_state(&mut words);
        h.load_state(&mut &words[..]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::round_trip;
    use super::*;
    use proptest::prelude::*;

    fn small_hierarchy(cores: usize) -> CacheHierarchy {
        // Small, low-associativity levels and two MSHRs per core, so that
        // stalls, evictions, dirty writebacks and LLC fills all interleave.
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 256, ways: 2, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 512, ways: 2, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 1024, ways: 2, block_bytes: 64, latency: 3 },
            mshrs_per_core: 2,
            fill_latency: 1,
        };
        CacheHierarchy::new(cfg, cores)
    }

    proptest! {
        /// The repeat-stall fast path is invisible: a hierarchy that takes
        /// it agrees, access by access and counter by counter, with a
        /// shadow whose ledger is cleared (by a snapshot round trip) before
        /// every access, so the shadow always walks the full lookup path.
        ///
        /// Each op is one cycle, and every core still stalled retries in
        /// it, as a core does: both hierarchies book those retries the way
        /// an event-driven caller defers them (through this cycle for the
        /// cores before the op's core in tick order, through the previous
        /// one for the rest), so a fill that ends a stall finds them
        /// booked in the fast hierarchy too.
        #[test]
        fn repeat_stall_fast_path_matches_full_walks(
            ops in proptest::collection::vec((0u8..8, 0u8..3, 0u64..48, any::<bool>()), 1..400)
        ) {
            let cores = 3;
            let mut fast = small_hierarchy(cores);
            let mut shadow = small_hierarchy(cores);
            let mut last = [0u64; 3];
            let mut stalled: [Option<u64>; 3] = [None; 3];
            let mut in_flight: Vec<u64> = Vec::new();
            for (now, (kind, core, x, is_write)) in (1u64..).zip(ops) {
                let core = usize::from(core);
                // A completion lands before any core ticks.
                let first_after = if kind == 7 { 0 } else { core };
                for (c, s) in stalled.iter().enumerate() {
                    if let Some(addr) = *s {
                        let through = if c < first_after { now } else { now - 1 };
                        fast.apply_stall_retries(c, addr, through);
                        shadow.apply_stall_retries(c, addr, through);
                    }
                }
                if kind == 7 {
                    // Complete an outstanding fill, if any.
                    if !in_flight.is_empty() {
                        let id = in_flight.remove(x as usize % in_flight.len());
                        prop_assert_eq!(fast.on_completion_at(id, now), shadow.on_completion(id));
                    }
                } else {
                    // Kinds 0..4 retry the core's last address, so repeat
                    // stalls are common; the rest pick a fresh block.
                    let addr = if kind < 4 { last[core] } else { x * 64 };
                    last[core] = addr;
                    round_trip(&mut shadow);
                    let got = fast.access(core, addr, is_write, now);
                    prop_assert_eq!(got, shadow.access(core, addr, is_write, now));
                    stalled[core] = (got == Access::Stall).then_some(addr);
                    let out: Vec<Request> = fast.take_outgoing().collect();
                    let shadow_out: Vec<Request> = shadow.take_outgoing().collect();
                    prop_assert_eq!(&out, &shadow_out);
                    in_flight.extend(out.iter().filter(|r| !r.is_write).map(|r| r.id));
                }
                prop_assert_eq!(fast.stats(), shadow.stats());
                for c in fast.take_unstalled() {
                    stalled[c] = None;
                }
                shadow.take_unstalled().for_each(drop);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            fast.save_state(&mut a);
            shadow.save_state(&mut b);
            prop_assert_eq!(a, b);
        }
    }
}

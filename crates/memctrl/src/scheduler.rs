//! Pluggable demand-scheduling policies.
//!
//! The controller's tick ladder delegates its two demand decisions —
//! which ready **column command** to issue (priority 1) and which
//! **ACT/PRE preparation** to issue (priority 3) — to a
//! [`SchedPolicy`]. The selection and event-horizon algorithms live
//! here as functions over the per-bank [`IndexedQueue`]; policies steer
//! them through small hooks, so the default [`FrFcfs`] reproduces the
//! classic first-ready / first-come-first-serve ladder bit for bit
//! while [`Fcfs`], [`FrFcfsCap`] and [`WriteDrainTuned`] reuse the same
//! machinery.
//!
//! Apart from strict FCFS, which looks only at the queue head, every
//! selection visits only the banks that have queued entries, probing
//! DRAM timing once per bank and command class and reading each bank's
//! entries through its memoised [`crate::queues::BankView`] (re-walked
//! only after the bank's list or open row changed); pinned closed banks
//! still walk their entries.
//!
//! The policy in force is chosen by [`crate::McConfig::sched`].

use figaro_dram::{Cycle, DramChannel, DramCommand};

use crate::bank::BankState;
use crate::queues::{BankView, Entry, IndexedQueue};

/// Identifies a scheduling policy — the value form carried by
/// [`crate::McConfig`] and scenario overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicyKind {
    /// First-ready FCFS: ready row hits bypass older requests, then
    /// oldest-first ACT/PRE (the paper's controller; the default).
    #[default]
    FrFcfs,
    /// Strict in-order service: only the oldest queued request of the
    /// active queue is ever a candidate.
    Fcfs,
    /// FR-FCFS with a cap on consecutive row hits per bank: once `cap`
    /// column commands in a row hit a bank's open row while a
    /// conflicting request waits on the same bank, row hits stop
    /// bypassing and the row is closed (starvation freedom).
    FrFcfsCap {
        /// Maximum consecutive row hits per bank while a conflicting
        /// request waits (≥ 1; 0 is treated as 1).
        cap: u32,
    },
    /// FR-FCFS selection with tunable write-drain watermarks replacing
    /// [`crate::McConfig::wq_high`]/[`crate::McConfig::wq_low`].
    WriteDrain {
        /// Enter write-drain mode at this write-queue occupancy.
        high: u32,
        /// Leave write-drain mode at this occupancy (< `high`).
        low: u32,
    },
}

impl SchedPolicyKind {
    /// Stable label for reports and `FIGARO_SCHED`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedPolicyKind::FrFcfs => "frfcfs".into(),
            SchedPolicyKind::Fcfs => "fcfs".into(),
            SchedPolicyKind::FrFcfsCap { cap } => format!("frfcfs-cap{cap}"),
            SchedPolicyKind::WriteDrain { high, low } => format!("wdrain{high}-{low}"),
        }
    }

    /// Parses a [`SchedPolicyKind::label`]-style name:
    /// `frfcfs` | `fcfs` | `frfcfs-capN` (or `capN`) | `wdrainH-L`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        match name.as_str() {
            "frfcfs" | "fr-fcfs" => return Some(SchedPolicyKind::FrFcfs),
            "fcfs" => return Some(SchedPolicyKind::Fcfs),
            _ => {}
        }
        if let Some(n) = name.strip_prefix("frfcfs-cap").or_else(|| name.strip_prefix("cap")) {
            return n.parse().ok().map(|cap| SchedPolicyKind::FrFcfsCap { cap });
        }
        if let Some(rest) = name.strip_prefix("wdrain") {
            let (h, l) = rest.split_once('-')?;
            let (high, low) = (h.parse().ok()?, l.parse().ok()?);
            if low >= high {
                return None;
            }
            return Some(SchedPolicyKind::WriteDrain { high, low });
        }
        None
    }

    /// Builds the policy for a channel with `banks` banks.
    #[must_use]
    pub fn build(self, banks: usize) -> Box<dyn SchedPolicy> {
        match self {
            SchedPolicyKind::FrFcfs => Box::new(FrFcfs),
            SchedPolicyKind::Fcfs => Box::new(Fcfs),
            SchedPolicyKind::FrFcfsCap { cap } => {
                Box::new(FrFcfsCap { cap: cap.max(1), streak: vec![0; banks] })
            }
            SchedPolicyKind::WriteDrain { high, low } => {
                assert!(low < high, "write-drain watermarks need low < high");
                Box::new(WriteDrainTuned { high, low })
            }
        }
    }
}

/// A demand-scheduling policy: small hooks steering the shared
/// selection/horizon machinery ([`pick_column`], [`pick_prep`],
/// [`queue_horizon`]). Every hook has the FR-FCFS default, so the
/// trivial implementation *is* FR-FCFS.
pub trait SchedPolicy: std::fmt::Debug + Send {
    /// The policy's identifying value form.
    fn kind(&self) -> SchedPolicyKind;

    /// Write-drain watermarks `(enter, leave)` given the configured ones.
    fn watermarks(&self, high: usize, low: usize) -> (usize, usize) {
        (high, low)
    }

    /// Strict in-order service: only the oldest entry of the active
    /// queue is ever a candidate (no row-hit bypassing).
    fn in_order_only(&self) -> bool {
        false
    }

    /// May a row hit on `flat_bank` bypass older waiting requests?
    /// `bank_has_conflict` reports whether the active queue holds a
    /// request for a *different* row of this (open) bank.
    fn allow_row_hit(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        let _ = (flat_bank, bank_has_conflict);
        true
    }

    /// Do queued same-row hits keep `flat_bank`'s row open, i.e.
    /// suppress closing it on behalf of a conflicting request?
    fn hits_suppress_prep(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        let _ = (flat_bank, bank_has_conflict);
        true
    }

    /// Notification of every DRAM command the controller issues
    /// (row-hit streak tracking).
    fn on_issue(&mut self, flat_bank: u32, cmd: &DramCommand) {
        let _ = (flat_bank, cmd);
    }

    /// Appends the policy's mutable state (if any) to a snapshot word
    /// stream. Stateless policies — the default — write nothing.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores state saved by [`SchedPolicy::save_state`] into a policy
    /// built from the same [`SchedPolicyKind`].
    fn load_state(&mut self, src: &mut &[u64]) {
        let _ = src;
    }
}

/// First-ready FCFS — the paper's scheduler and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl SchedPolicy for FrFcfs {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::FrFcfs
    }
}

/// Strict first-come-first-serve (no row-hit reordering).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedPolicy for Fcfs {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::Fcfs
    }

    fn in_order_only(&self) -> bool {
        true
    }
}

/// FR-FCFS with a per-bank cap on consecutive row hits (starvation
/// freedom for conflicting requests behind a hit streak).
#[derive(Debug)]
pub struct FrFcfsCap {
    cap: u32,
    /// Consecutive column commands served from each bank's open row
    /// since it was last activated/precharged.
    streak: Vec<u32>,
}

impl SchedPolicy for FrFcfsCap {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::FrFcfsCap { cap: self.cap }
    }

    fn allow_row_hit(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        !(bank_has_conflict && self.streak[flat_bank as usize] >= self.cap)
    }

    fn hits_suppress_prep(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        self.allow_row_hit(flat_bank, bank_has_conflict)
    }

    fn on_issue(&mut self, flat_bank: u32, cmd: &DramCommand) {
        match cmd {
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                self.streak[flat_bank as usize] += 1;
            }
            DramCommand::Activate { .. }
            | DramCommand::ActivateMerge { .. }
            | DramCommand::Precharge
            | DramCommand::PrechargeAll => self.streak[flat_bank as usize] = 0,
            DramCommand::Refresh => self.streak.fill(0),
            _ => {}
        }
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.streak.len() as u64);
        for &s in &self.streak {
            out.push(u64::from(s));
        }
    }

    fn load_state(&mut self, src: &mut &[u64]) {
        let n = crate::take(src) as usize;
        assert_eq!(n, self.streak.len(), "snapshot scheduler bank-count mismatch");
        for s in &mut self.streak {
            *s = crate::take(src) as u32;
        }
    }
}

/// FR-FCFS selection with tunable write-drain watermarks.
#[derive(Debug, Clone, Copy)]
pub struct WriteDrainTuned {
    high: u32,
    low: u32,
}

impl SchedPolicy for WriteDrainTuned {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::WriteDrain { high: self.high, low: self.low }
    }

    fn watermarks(&self, _high: usize, _low: usize) -> (usize, usize) {
        (self.high as usize, self.low as usize)
    }
}

/// The ACT/PRE decision of a prep pass (slot id of the entry the action
/// is issued on behalf of).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepAction {
    /// Activate the entry's serve row (its bank is closed).
    Act(u32),
    /// Precharge the entry's bank (row conflict).
    Pre(u32),
}

/// The demand column command serving `e`.
#[must_use]
pub(crate) fn column_cmd(e: &Entry) -> DramCommand {
    if e.req.is_write {
        DramCommand::Write { col: e.serve_col, auto_pre: false }
    } else {
        DramCommand::Read { col: e.serve_col, auto_pre: false }
    }
}

/// Priority 1: the queued demand entry whose column command is ready to
/// issue this cycle, or `None`. FR-FCFS picks the oldest ready row hit
/// (ties by queue position); hooks restrict the candidate set.
pub(crate) fn pick_column(
    policy: &dyn SchedPolicy,
    q: &mut IndexedQueue,
    banks: &[BankState],
    chan: &DramChannel,
    now: Cycle,
) -> Option<u32> {
    if q.is_empty() {
        return None;
    }
    if policy.in_order_only() {
        let id = q.head_id()?;
        let e = q.entry(id);
        if chan.open_row(e.bank) == Some(e.serve_row)
            && !chan.must_precharge(e.bank)
            && chan.can_issue(e.bank, &column_cmd(e), now)
        {
            return Some(id);
        }
        return None;
    }
    // Oldest ready row hit = min (arrival, enqueue seq) over candidates:
    // one timing probe per bank, its oldest hit from the bank's memoised
    // view.
    let mut best: Option<(Cycle, u64, u32)> = None;
    for (b, st) in (0u32..).zip(banks) {
        if q.bank_len(b) == 0 {
            continue;
        }
        let Some(open) = chan.open_row(st.addr) else { continue };
        if chan.must_precharge(st.addr) {
            continue;
        }
        let view = q.bank_view(b, Some(open));
        let Some((arrival, seq, id)) = view.oldest_hit else { continue };
        if !policy.allow_row_hit(b, view.first_miss.is_some()) {
            continue;
        }
        if best.is_none_or(|(a, s, _)| (arrival, seq) < (a, s))
            && chan.can_issue(st.addr, &column_cmd(q.entry(id)), now)
        {
            best = Some((arrival, seq, id));
        }
    }
    best.map(|(_, _, id)| id)
}

/// Priority 3: the oldest queued entry whose ACT or PRE can issue this
/// cycle, subject to the FR-FCFS skip rules (job-owned banks wait;
/// same-row hits keep a row open unless the policy says otherwise).
pub(crate) fn pick_prep(
    policy: &dyn SchedPolicy,
    q: &mut IndexedQueue,
    banks: &[BankState],
    chan: &DramChannel,
    now: Cycle,
) -> Option<PrepAction> {
    if q.is_empty() {
        return None;
    }
    if policy.in_order_only() {
        return pick_prep_in_order(q, banks, chan, now);
    }
    let mut best: Option<(u64, PrepAction)> = None;
    let mut consider = |seq: u64, act: PrepAction| {
        if best.is_none_or(|(s, _)| seq < s) {
            best = Some((seq, act));
        }
    };
    for (b, st) in (0u32..).zip(banks) {
        if q.bank_len(b) == 0 {
            continue;
        }
        let pinned = chan.is_pinned(st.addr);
        if st.job.is_some() && !pinned {
            continue; // the bank belongs to a job still setting up
        }
        let open = chan.open_row(st.addr);
        if open.is_none() && pinned {
            // A pinned bank's ACT legality is per-subarray, so walk its
            // entries for the oldest one that can activate.
            for (id, e) in q.iter_bank(b) {
                let act = DramCommand::Activate { row: e.serve_row };
                if chan.can_issue(st.addr, &act, now) {
                    consider(q.seq(id), PrepAction::Act(id));
                    break;
                }
            }
            continue;
        }
        // Open bank: the oldest conflicting entry precharges unless a hit
        // keeps the row open. Closed, unpinned bank: ACT timing is
        // row-independent, so only the oldest entry need be probed.
        let view = q.bank_view(b, open);
        let Some((seq, id)) = view.first_miss else { continue };
        if open.is_some() {
            if view.oldest_hit.is_some() && policy.hits_suppress_prep(b, true) {
                continue;
            }
            if chan.can_issue(st.addr, &DramCommand::Precharge, now) {
                consider(seq, PrepAction::Pre(id));
            }
        } else {
            let act = DramCommand::Activate { row: q.entry(id).serve_row };
            if chan.can_issue(st.addr, &act, now) {
                consider(seq, PrepAction::Act(id));
            }
        }
    }
    best.map(|(_, act)| act)
}

/// Strict-FCFS prep: the head entry drives; a must-precharge bank is
/// precharged first (it cannot serve anything until then).
fn pick_prep_in_order(
    q: &IndexedQueue,
    banks: &[BankState],
    chan: &DramChannel,
    now: Cycle,
) -> Option<PrepAction> {
    let id = q.head_id()?;
    let e = q.entry(id);
    let st = &banks[e.flat_bank as usize];
    let pinned = chan.is_pinned(st.addr);
    if st.job.is_some() && !pinned {
        return None; // wait for the job to finish
    }
    let open = chan.open_row(st.addr);
    if chan.must_precharge(st.addr) || open.is_some_and(|r| r != e.serve_row) {
        return chan
            .can_issue(st.addr, &DramCommand::Precharge, now)
            .then_some(PrepAction::Pre(id));
    }
    if open.is_none() {
        let act = DramCommand::Activate { row: e.serve_row };
        return chan.can_issue(st.addr, &act, now).then_some(PrepAction::Act(id));
    }
    None // head is a row hit; priority 1 handles it
}

/// Earliest cycle `>= from` at which [`pick_column`] or [`pick_prep`]
/// over the active queue could return `Some` — the demand half of the
/// controller's event horizon. A lower bound for every policy: a
/// too-early horizon only costs a no-op tick.
pub(crate) fn queue_horizon(
    policy: &dyn SchedPolicy,
    q: &mut IndexedQueue,
    banks: &[BankState],
    chan: &DramChannel,
    from: Cycle,
) -> Cycle {
    if q.is_empty() {
        return Cycle::MAX;
    }
    if policy.in_order_only() {
        return in_order_horizon(q, banks, chan, from);
    }
    // Summarise each occupied bank through its memoised view, then probe
    // it once per command class.
    let mut best = Cycle::MAX;
    for b in 0..banks.len() as u32 {
        if q.bank_len(b) == 0 {
            continue;
        }
        let view = q.bank_view(b, chan.open_row(banks[b as usize].addr));
        best = best.min(bank_horizon(policy, q, banks, b, &view, chan, from));
    }
    best
}

/// Horizon candidates of one bank, from its view of the active queue:
/// DRAM timing for column commands is column-independent and for
/// ACT/PRE row-independent (pinned banks excepted), so one
/// `next_ready` per command class covers every queued entry.
fn bank_horizon(
    policy: &dyn SchedPolicy,
    q: &IndexedQueue,
    banks: &[BankState],
    b: u32,
    view: &BankView,
    chan: &DramChannel,
    from: Cycle,
) -> Cycle {
    let addr = banks[b as usize].addr;
    let mut best = Cycle::MAX;
    let has_conflict = view.open.is_some() && view.first_miss.is_some();
    if view.oldest_hit.is_some() {
        // Row-hit candidates; a must-precharge bank serves nothing (and
        // its same-row entries suppress prep regardless).
        if !chan.must_precharge(addr) && policy.allow_row_hit(b, has_conflict) {
            if view.read_hit {
                let rd = DramCommand::Read { col: 0, auto_pre: false };
                if let Some(t) = chan.next_ready(addr, &rd, from) {
                    best = best.min(t);
                }
            }
            if view.write_hit {
                let wr = DramCommand::Write { col: 0, auto_pre: false };
                if let Some(t) = chan.next_ready(addr, &wr, from) {
                    best = best.min(t);
                }
            }
        }
        // An entry that can still hit the open row suppresses the prep
        // scan for every conflicting entry on this bank — unless the
        // policy lifted that protection (row-hit cap reached).
        if policy.hits_suppress_prep(b, has_conflict) {
            return best;
        }
    }
    let Some((_, miss_id)) = view.first_miss else { return best };
    let pinned = chan.is_pinned(addr);
    if banks[b as usize].job.is_some() && !pinned {
        return best; // the bank belongs to a job still setting up
    }
    if view.open.is_some() {
        if let Some(t) = chan.next_ready(addr, &DramCommand::Precharge, from) {
            best = best.min(t);
        }
    } else if !pinned {
        let act = DramCommand::Activate { row: q.entry(miss_id).serve_row };
        if let Some(t) = chan.next_ready(addr, &act, from) {
            best = best.min(t);
        }
    } else {
        // Pinned + closed: ACT legality is per-subarray, so check each
        // of this bank's entries.
        for (_, e) in q.iter_bank(b) {
            let act = DramCommand::Activate { row: e.serve_row };
            if let Some(t) = chan.next_ready(addr, &act, from) {
                best = best.min(t);
            }
        }
    }
    best
}

/// Strict-FCFS horizon: the head entry's one possible command.
fn in_order_horizon(
    q: &IndexedQueue,
    banks: &[BankState],
    chan: &DramChannel,
    from: Cycle,
) -> Cycle {
    let Some(id) = q.head_id() else { return Cycle::MAX };
    let e = q.entry(id);
    let st = &banks[e.flat_bank as usize];
    let open = chan.open_row(st.addr);
    let must_pre = chan.must_precharge(st.addr);
    if open == Some(e.serve_row) && !must_pre {
        // Head is a row hit; job ownership never gates column commands.
        return chan.next_ready(st.addr, &column_cmd(e), from).unwrap_or(Cycle::MAX);
    }
    // Prep half: a job still setting up owns the bank (the job-step
    // horizon covers the unblock).
    if st.job.is_some() && !chan.is_pinned(st.addr) {
        return Cycle::MAX;
    }
    let cmd = if must_pre || open.is_some() {
        DramCommand::Precharge
    } else {
        DramCommand::Activate { row: e.serve_row }
    };
    chan.next_ready(st.addr, &cmd, from).unwrap_or(Cycle::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_from_name() {
        let kinds = [
            SchedPolicyKind::FrFcfs,
            SchedPolicyKind::Fcfs,
            SchedPolicyKind::FrFcfsCap { cap: 4 },
            SchedPolicyKind::WriteDrain { high: 48, low: 8 },
        ];
        for k in kinds {
            assert_eq!(SchedPolicyKind::from_name(&k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(SchedPolicyKind::from_name("cap2"), Some(SchedPolicyKind::FrFcfsCap { cap: 2 }));
        assert_eq!(SchedPolicyKind::from_name("bogus"), None);
        assert_eq!(SchedPolicyKind::from_name("wdrain8-8"), None, "low must be < high");
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::FrFcfs);
    }

    #[test]
    fn cap_policy_tracks_streaks_per_bank() {
        let mut p = SchedPolicyKind::FrFcfsCap { cap: 2 }.build(4);
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        assert!(p.allow_row_hit(0, true));
        p.on_issue(0, &rd);
        p.on_issue(0, &rd);
        assert!(!p.allow_row_hit(0, true), "streak of 2 with a conflict must cap");
        assert!(p.allow_row_hit(0, false), "no conflict: streak may continue");
        assert!(p.allow_row_hit(1, true), "other banks unaffected");
        assert!(!p.hits_suppress_prep(0, true), "capped bank lets prep close the row");
        p.on_issue(0, &DramCommand::Activate { row: 7 });
        assert!(p.allow_row_hit(0, true), "activation resets the streak");
    }

    #[test]
    fn write_drain_policy_overrides_watermarks() {
        let p = SchedPolicyKind::WriteDrain { high: 48, low: 8 }.build(4);
        assert_eq!(p.watermarks(40, 16), (48, 8));
        let d = SchedPolicyKind::FrFcfs.build(4);
        assert_eq!(d.watermarks(40, 16), (40, 16));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn write_drain_rejects_inverted_watermarks() {
        let _ = SchedPolicyKind::WriteDrain { high: 8, low: 8 }.build(4);
    }
}

//! Per-bank controller state.
//!
//! The controller keeps one [`BankState`] per bank of its channel: the
//! bank's (precomputed) address and the relocation-job slot the cache
//! engine's jobs execute in. The DRAM-side row state (open row,
//! must-precharge, pinned subarrays) lives in
//! [`figaro_dram::DramChannel`], and each bank's queued entries are
//! summarised by the queues' [`crate::queues::BankView`].

use figaro_core::RelocationJob;
use figaro_dram::{BankAddr, DramGeometry};

/// Controller-side state of one bank.
#[derive(Debug)]
pub struct BankState {
    /// The bank's decoded address (precomputed from the flat index).
    pub addr: BankAddr,
    /// The relocation job currently executing on this bank, if any.
    pub job: Option<RelocationJob>,
}

impl BankState {
    /// State for flat bank index `flat` of `geometry`.
    #[must_use]
    pub fn new(flat: u32, geometry: &DramGeometry) -> Self {
        Self { addr: BankAddr::from_flat(flat, geometry), job: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_dram::DramConfig;

    #[test]
    fn flat_index_round_trips_through_bank_addr() {
        let g = DramConfig::ddr4_paper_default().geometry;
        for flat in 0..g.banks_per_channel() {
            let st = BankState::new(flat, &g);
            assert_eq!(st.addr.flat_bank(&g), flat);
            assert!(st.job.is_none());
        }
    }
}

//! The model revision: a fingerprint of what the simulator computes.
//!
//! Every result-cache entry and every FGSN warm snapshot is named by a
//! spec that includes [`MODEL_REV`] (see [`crate::runner`] and
//! [`crate::snapshot::config_hash`]). The value is the FNV-1a hash of
//! the `Debug` text of the results of fixed tiny runs:
//!
//! * the four-core golden shape of `tests/tests/sched_policies.rs` under
//!   each of the six evaluated mechanisms, plus FIGCache-Fast with the
//!   free-relocation ablation;
//! * one streamed scenario off every default: a phased workload under
//!   Poisson arrivals, FCFS scheduling, row-interleaved mapping and
//!   page colouring, run under the event kernel.
//!
//! A behaviour change that moves any counter of those runs fails the
//! unit test below, which prints the new value; updating the constant
//! then invalidates every older cache entry and snapshot at once. A
//! change no fingerprinted run exercises leaves the constant as it is,
//! so such a change still needs a manual bump.

/// The current model revision (see the module docs).
pub const MODEL_REV: u64 = 0x6d4e_fde7_14b7_52e8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigKind, Kernel, SystemConfig};
    use crate::runner::{Runner, Scale, Scenario, ScenarioWorkload};
    use crate::snapshot::key_hash;
    use crate::system::System;
    use figaro_dram::MapKind;
    use figaro_memctrl::SchedPolicyKind;
    use figaro_workloads::{
        generate_trace, profile_by_name, ArrivalKind, PageMapKind, PhasedProfile, Trace,
    };

    #[test]
    fn model_rev_fingerprints_the_golden_runs() {
        let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
        let insts = 12_000u64;
        let mut cfgs: Vec<SystemConfig> = vec![SystemConfig::paper(4, ConfigKind::Base)];
        cfgs.extend(ConfigKind::figure78_set().into_iter().map(|k| SystemConfig::paper(4, k)));
        let mut free_reloc = SystemConfig::paper(4, ConfigKind::FigCacheFast);
        free_reloc.mc.free_reloc = true;
        cfgs.push(free_reloc);
        let mut results: Vec<String> = cfgs
            .into_iter()
            .map(|cfg| {
                let traces: Vec<Trace> = (0..4)
                    .map(|i| {
                        generate_trace(&profile_by_name(apps[i]).unwrap(), 8_000, 7 + i as u64)
                    })
                    .collect();
                format!("{:?}", System::new(cfg, traces, &[insts; 4]).run(insts * 400))
            })
            .collect();
        let phased = PhasedProfile::standard(profile_by_name("mcf").unwrap(), 2_000);
        let sc = Scenario::new(
            "model-rev",
            ConfigKind::FigCacheFast,
            ScenarioWorkload::Phased(vec![phased; 2]),
        )
        .with_arrival(ArrivalKind::Poisson { mean_gap: 20 })
        .with_sched(SchedPolicyKind::Fcfs)
        .with_mapping(MapKind::from_name("rowint").unwrap())
        .with_page_map(PageMapKind::from_name("color16").unwrap())
        .with_target_insts(insts);
        let run = Runner::uncached(Scale::Tiny).with_kernel(Kernel::Event).run_scenario(&sc);
        results.push(format!("{run:?}"));
        let rev = key_hash(&results.join("\n"));
        assert_eq!(
            rev, MODEL_REV,
            "simulated behaviour changed: set MODEL_REV to {rev:#018x} (this invalidates \
             every cached result and warm snapshot)"
        );
    }
}

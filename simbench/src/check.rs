//! The output check: every run must finish all its cores and reproduce
//! the reference run's statistics exactly; mismatches are counted and
//! printed with the workload and repetition.

use std::fmt::Display;

use figaro_sim::RunStats;

/// Attempted and failed checks of one invocation.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checker {
    /// A checker labelling its failures with `workload`.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Self { workload, attempted: 0, failed: 0 }
    }

    /// Counts one check; prints `what` and the reason when it failed.
    pub fn record(&mut self, what: impl Display, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            let line = format!("FAIL workload={} {what}: {why}", self.workload);
            println!("{line}");
            eprintln!("{line}");
        }
    }

    /// Failed share of attempted checks.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A run passes when no core was truncated by the cycle cap and its
/// statistics equal the reference run's (`first`) bit for bit.
///
/// # Errors
///
/// Describes the first difference found.
pub fn same_run(first: &RunStats, this: &RunStats) -> Result<(), String> {
    let unfinished = this.unfinished_cores();
    if unfinished != 0 {
        return Err(format!("{unfinished} core(s) hit the cycle cap"));
    }
    if this != first {
        return Err(format!(
            "RunStats differ from the reference run (cycles {} vs {}, instructions {:?} vs {:?})",
            this.cpu_cycles, first.cpu_cycles, this.instructions, first.instructions
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{inputs, Inputs, Workload};
    use figaro_sim::System;

    fn small_run() -> RunStats {
        let Inputs::System(spec) = inputs(Workload::SingleLight, 1) else { unreachable!() };
        let spec = spec.prefix(100);
        System::from_sources(spec.cfg.clone(), spec.sources(), &spec.targets).run(spec.max_cycles())
    }

    #[test]
    fn identical_runs_pass() {
        let a = small_run();
        assert_eq!(same_run(&a, &small_run()), Ok(()));
        let mut c = Checker::new("test");
        c.record("rep 1", same_run(&a, &a));
        assert_eq!((c.attempted, c.failed), (1, 0));
        assert_eq!(c.fail_frac(), 0.0);
    }

    #[test]
    fn mismatched_stats_count_as_failures() {
        let a = small_run();
        let mut b = a.clone();
        b.mc.reads_served += 1;
        let mut truncated = a.clone();
        truncated.finish_cycles[0] = truncated.cpu_cycles;
        let mut c = Checker::new("test");
        c.record("rep 1", same_run(&a, &a));
        c.record("rep 2", same_run(&a, &b));
        c.record("rep 3", same_run(&a, &truncated));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!((c.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}

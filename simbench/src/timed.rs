//! A [`TraceSource`] wrapper that times every `next_op` inside a real
//! `System::run` and can record the op stream for the standalone layer
//! drives.
//!
//! The system owns its sources, so each wrapper hands its recording to a
//! shared slot when the system drops it. Spans are aggregated (count and
//! total nanoseconds) in memory; nothing is written until the run ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use figaro_workloads::{TraceOp, TraceSource};

/// What one wrapped source saw.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// `next_op` calls.
    pub calls: u64,
    /// Host nanoseconds spent inside the wrapped `next_op`.
    pub nanos: u64,
    /// The ops handed out, in order (empty unless recording was asked for).
    pub ops: Vec<TraceOp>,
}

/// Per-core recordings, filled as the wrapped sources drop.
pub type Slots = Arc<Mutex<Vec<Recording>>>;

/// The timing wrapper.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    core: usize,
    record_ops: bool,
    rec: Recording,
    slots: Slots,
}

impl TimedSource {
    /// Wraps each of `sources`; returns the wrapped sources and the slots
    /// their recordings land in once the system holding them is dropped.
    #[must_use]
    pub fn wrap_all(
        sources: Vec<Box<dyn TraceSource>>,
        record_ops: bool,
    ) -> (Vec<Box<dyn TraceSource>>, Slots) {
        let slots: Slots = Arc::new(Mutex::new(vec![Recording::default(); sources.len()]));
        let wrapped = sources
            .into_iter()
            .enumerate()
            .map(|(core, inner)| {
                Box::new(TimedSource {
                    inner,
                    core,
                    record_ops,
                    rec: Recording::default(),
                    slots: Arc::clone(&slots),
                }) as Box<dyn TraceSource>
            })
            .collect();
        (wrapped, slots)
    }
}

impl TraceSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> TraceOp {
        let t0 = Instant::now();
        let op = self.inner.next_op();
        self.rec.nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rec.calls += 1;
        if self.record_ops {
            self.rec.ops.push(op);
        }
        op
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        // A poisoned lock means another wrapper panicked mid-hand-over;
        // the benchmark is failing anyway, and Drop must not panic.
        if let Ok(mut slots) = self.slots.lock() {
            slots[self.core] = std::mem::take(&mut self.rec);
        }
    }
}

/// Takes the recordings out of `slots` (call after the system dropped).
///
/// # Panics
///
/// Panics if a wrapper panicked while handing over its recording.
#[must_use]
pub fn take(slots: &Slots) -> Vec<Recording> {
    std::mem::take(&mut *slots.lock().expect("no wrapper panicked during hand-over"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{inputs, Inputs, Workload};
    use figaro_sim::System;

    #[test]
    fn wrapper_leaves_run_stats_bit_identical() {
        for w in [Workload::Mix8FigCache, Workload::Sat1chBase, Workload::SingleLight] {
            let Inputs::System(spec) = inputs(w, 3) else { unreachable!() };
            let spec = spec.prefix(50);
            let plain = System::from_sources(spec.cfg.clone(), spec.sources(), &spec.targets)
                .run(spec.max_cycles());
            let (wrapped, slots) = TimedSource::wrap_all(spec.sources(), true);
            let mut sys = System::from_sources(spec.cfg.clone(), wrapped, &spec.targets);
            let traced = sys.run(spec.max_cycles());
            drop(sys);
            assert_eq!(plain, traced, "{}", w.name());
            let recs = take(&slots);
            assert_eq!(recs.len(), spec.apps.len());
            for (rec, mut src) in recs.iter().zip(spec.sources()) {
                assert!(rec.calls > 0);
                assert_eq!(rec.ops.len() as u64, rec.calls);
                let replay: Vec<TraceOp> = (0..rec.ops.len()).map(|_| src.next_op()).collect();
                assert_eq!(rec.ops, replay, "recorded stream is the generated stream");
            }
        }
    }
}

//! Host-speed calibration: a fixed workload timed between repetitions, so
//! each repetition's host time can be scaled to a reference host speed.
//!
//! The shared reference host slows by 30–40% for minutes at a time, with
//! no steal time and on-CPU time equal to wall time: neighbours contend
//! for the same cores and caches. That drift alone exceeded the gate's
//! bounds. The kernel below mixes what the simulator does (random
//! read-modify-writes over a buffer larger than the host's caches, a
//! set-associative LRU tag model with a hash map and a queue, and
//! branchy integer work), so it slows with the host much as the simulator
//! does. Over six runs of each workload, scaling cut the spread of per-run
//! medians from 0.14 to 0.05 (`single_light`), from 0.22 to 0.10–0.13
//! (`mix8_figcache`) and from 0.11 to 0.07 (`sat1ch_base`). Tracking is
//! partial: within a run, the two times correlate at 0.2–0.9.
//!
//! The kernel is part of the benchmark, not of the simulator, so a change
//! to the simulator cannot move it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Calibration time of the reference host speed, seconds. Scaled times
/// read as host seconds on a host where one calibration takes this long
/// (the median on the 2-CPU reference host).
pub const REFERENCE_S: f64 = 0.02;

/// 32 MiB: larger than the host's last-level cache share.
const BUF_WORDS: usize = 4 << 20;
const SETS: usize = 4096;
const WAYS: usize = 16;

/// One thread's calibration state; buffers are allocated and touched
/// once, before the first timed calibration.
#[derive(Debug)]
pub struct Calibrator {
    buf: Vec<u64>,
    tags: Vec<(u64, u64)>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// Allocates and touches the buffers.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: vec![1; BUF_WORDS], tags: vec![(u64::MAX, 0); SETS * WAYS] }
    }

    /// Runs the fixed kernel once; returns its host seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        // Random read-modify-write over the buffer.
        let mut acc = 0u64;
        for _ in 0..200_000 {
            let i = (xorshift(&mut x) % BUF_WORDS as u64) as usize;
            self.buf[i] = self.buf[i].wrapping_add(acc);
            acc = acc.wrapping_add(self.buf[(i * 7 + 3) % BUF_WORDS]);
        }
        // A set-associative LRU cache model with an MSHR-like map and queue.
        for t in &mut self.tags {
            *t = (u64::MAX, 0);
        }
        let mut mshr: HashMap<u64, u64> = HashMap::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        let (mut hits, mut stream) = (0u64, 0u64);
        for clock in 0..75_000u64 {
            let r = xorshift(&mut x);
            let addr = if r & 7 < 5 {
                stream = stream.wrapping_add(64);
                (stream % (1 << 22)) ^ ((r >> 40) & 0xFC0)
            } else {
                r & ((1 << 30) - 64)
            };
            let block = addr >> 6;
            let set = (block as usize) % SETS;
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            if let Some(w) = ways.iter_mut().find(|w| w.0 == block) {
                w.1 = clock;
                hits += 1;
                continue;
            }
            if let Some(victim) = ways.iter_mut().min_by_key(|w| w.1) {
                *victim = (block, clock);
            }
            *mshr.entry(block).or_default() += 1;
            queue.push_back(block);
            if queue.len() > 32 {
                if let Some(b) = queue.pop_front() {
                    mshr.remove(&b);
                }
            }
        }
        // Branchy integer work.
        for i in 0..1_500_000u64 {
            let v = xorshift(&mut x);
            if v & 3 == 0 {
                acc = acc.wrapping_add(v >> 3);
            } else {
                acc ^= v.rotate_left((i & 31) as u32);
            }
        }
        black_box((acc, hits, mshr.len()));
        t0.elapsed().as_secs_f64()
    }
}

/// Runs every calibrator at once, one thread each (so a multi-threaded
/// workload calibrates every CPU it uses); returns the mean seconds.
pub fn calibrate(cals: &mut [Calibrator]) -> f64 {
    let total: f64 = if cals.len() == 1 {
        cals[0].run()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = cals.iter_mut().map(|c| s.spawn(move || c.run())).collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).sum()
        })
    };
    total / cals.len() as f64
}

/// Scales host seconds measured while calibration took `cal_s` to the
/// reference host speed.
#[must_use]
pub fn scale(host_s: f64, cal_s: f64) -> f64 {
    host_s * REFERENCE_S / cal_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_times_are_positive_and_scale_linearly() {
        let mut cals = [Calibrator::new(), Calibrator::new()];
        assert!(calibrate(&mut cals[..1]) > 0.0);
        assert!(calibrate(&mut cals) > 0.0);
        assert_eq!(scale(1.0, REFERENCE_S), 1.0);
        assert_eq!(scale(3.0, 2.0 * REFERENCE_S), 1.5);
    }
}

//! The experiment runner: scales, deterministic trace construction,
//! alone-IPC measurement for weighted speedup, a file-backed result cache
//! (so benches that share runs — e.g. Figs. 7/9/10/11 — do not recompute
//! them), and a parallel batch API over independent runs.
//!
//! ## Run specs
//!
//! Every run is named by one **spec text**: the `{:?}` rendering of
//! [`MODEL_REV`], the resolved [`SystemConfig`] (kernel included), each
//! core's load (generator inputs, or the scenario workload and arrival
//! pacing — never a materialised trace), the per-core instruction
//! targets, the cycle cap and the warmup. Derived `Debug` covers every
//! field and prints floats as their shortest round-tripping text, so two
//! runs that simulate anything differently get different specs. The
//! result-cache file is named by the spec's 64-bit FNV-1a hash and stores
//! the spec on its first line; a file is served only when that line
//! equals the requested spec, so a hash collision or a stale file costs a
//! re-simulation, never a wrong result.
//!
//! ## Parallel batches
//!
//! Every run is a pure function of `(scale, workload, config)`, so
//! independent runs parallelize trivially. The `*_batch` / `*_matrix`
//! methods fan a job list out over rayon and return results **in input
//! order**, which makes a parallel batch bit-identical to the equivalent
//! serial loop — same `RunSummary` values, same run specs, same on-disk
//! cache contents. The on-disk cache is safe under this concurrency: a
//! process-wide per-file mutex serializes compute-and-publish per cache
//! file (so duplicate jobs in one batch compute once), and files are
//! published with a write-temp-then-rename so concurrent *processes*
//! never observe torn files.
//!
//! Batches are the only parallelism in the workspace: each run is one
//! single-threaded event loop, so a batch on N workers uses N threads.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use rayon::prelude::*;

use figaro_workloads::{
    generate_trace, AppProfile, ArrivalKind, ArrivalSchedule, Mix, PageMapKind, PhasedGenerator,
    PhasedProfile, Trace, TraceGenerator, TraceOp, TraceSource,
};

use figaro_dram::MapKind;
use figaro_memctrl::SchedPolicyKind;

use crate::config::{ConfigKind, Kernel, SystemConfig};
use crate::metrics::{ChannelStats, RunStats};
use crate::model_rev::MODEL_REV;
use crate::snapshot::key_hash;
use crate::system::System;

/// Simulation scale: instructions per core.
///
/// The paper runs ≥1 B instructions per core; these scales trade fidelity
/// for turnaround. Set the `FIGARO_SCALE` environment variable to
/// `tiny`/`small`/`full` (default `small`) — EXPERIMENTS.md records which
/// scale produced its numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 k instructions per core — CI/integration tests.
    Tiny,
    /// 400 k instructions per core — default for `cargo bench`.
    Small,
    /// 2 M instructions per core — overnight-quality numbers.
    Full,
}

impl Scale {
    /// Reads `FIGARO_SCALE` (default [`Scale::Small`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_env_or(Scale::Small)
    }

    /// Reads `FIGARO_SCALE`, falling back to `default` when unset or
    /// unrecognized. The integration suite's fast tier uses
    /// `from_env_or(Scale::Tiny)` so CI stays fast while a local
    /// `FIGARO_SCALE=small` run can still exercise bigger runs.
    #[must_use]
    pub fn from_env_or(default: Scale) -> Self {
        match std::env::var("FIGARO_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "full" => Scale::Full,
            _ => default,
        }
    }

    /// Retired instructions each core targets.
    #[must_use]
    pub fn target_insts(&self) -> u64 {
        match self {
            Scale::Tiny => 100_000,
            Scale::Small => 400_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Safety bound on simulated CPU cycles.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.target_insts() * 400
    }

    /// Label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// The flattened per-run numbers the figures need (cacheable on disk).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-core IPC.
    pub ipc: Vec<f64>,
    /// Per-core MPKI.
    pub mpki: Vec<f64>,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// In-DRAM cache hit rate.
    pub cache_hit_rate: f64,
    /// Energy components `(cpu, l1l2, llc, offchip, dram)` in nJ.
    pub energy: (f64, f64, f64, f64, f64),
    /// CPU cycles of the run.
    pub cpu_cycles: u64,
    /// RELOC commands issued.
    pub relocs: u64,
    /// LISA clones issued.
    pub lisa_clones: u64,
    /// Average read latency (bus cycles).
    pub avg_read_latency: f64,
    /// Reads the memory controllers served (the numerator of achieved
    /// throughput in serving sweeps).
    pub reads_served: u64,
    /// Median read latency (bus cycles; histogram bucket floor, ≤ 12.5%
    /// quantization error — see `figaro_memctrl::LatencyHistogram`).
    pub read_lat_p50: u64,
    /// 95th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p95: u64,
    /// 99th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p99: u64,
    /// 99.9th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p999: u64,
    /// Exact maximum read latency (bus cycles).
    pub read_lat_max: u64,
    /// Segment/row insertions completed.
    pub insertions: u64,
    /// Cores that hit the cycle cap before their instruction target
    /// (see [`RunStats::unfinished_cores`]); non-zero means the summary
    /// is a truncated measurement, and report builders flag it.
    pub truncated_cores: u64,
    /// Per-channel row-buffer hit rate, in channel order — the merged
    /// `row_hit_rate` averages away a hot channel (see
    /// [`crate::metrics::ChannelStats`]). Empty in summaries restored
    /// from cache files written before the field existed.
    pub ch_row_hit_rate: Vec<f64>,
    /// Per-channel peak read-queue occupancy.
    pub ch_read_q_peak: Vec<u64>,
    /// Per-channel peak write-queue occupancy.
    pub ch_write_q_peak: Vec<u64>,
}

impl RunSummary {
    /// Builds the summary from full run statistics.
    #[must_use]
    pub fn from_stats(s: &RunStats) -> Self {
        let cores = s.instructions.len();
        Self {
            ipc: (0..cores).map(|c| s.ipc(c)).collect(),
            mpki: (0..cores).map(|c| s.mpki(c)).collect(),
            row_hit_rate: s.row_hit_rate(),
            cache_hit_rate: s.cache_hit_rate(),
            energy: (s.energy.cpu, s.energy.l1l2, s.energy.llc, s.energy.offchip, s.energy.dram),
            cpu_cycles: s.cpu_cycles,
            relocs: s.dram.relocs,
            lisa_clones: s.dram.lisa_clones,
            avg_read_latency: s.mc.avg_read_latency(),
            reads_served: s.mc.reads_served,
            read_lat_p50: s.mc.read_latency_hist.percentile(0.50),
            read_lat_p95: s.mc.read_latency_hist.percentile(0.95),
            read_lat_p99: s.mc.read_latency_hist.percentile(0.99),
            read_lat_p999: s.mc.read_latency_hist.percentile(0.999),
            read_lat_max: s.mc.read_latency_hist.max(),
            insertions: s.cache.insertions,
            truncated_cores: s.unfinished_cores() as u64,
            ch_row_hit_rate: s.per_channel.iter().map(ChannelStats::row_hit_rate).collect(),
            ch_read_q_peak: s.per_channel.iter().map(|c| c.read_q_peak).collect(),
            ch_write_q_peak: s.per_channel.iter().map(|c| c.write_q_peak).collect(),
        }
    }

    /// Total energy (nJ).
    #[must_use]
    pub fn energy_total(&self) -> f64 {
        let (a, b, c, d, e) = self.energy;
        a + b + c + d + e
    }

    /// Exact text encoding of an `f64`: the bit pattern in hex. A `{}`
    /// float round trip can differ in the last ulp, so a cached result
    /// would not equal a fresh run bit for bit; the bit pattern is
    /// lossless by construction (and NaN-safe).
    fn f64_text(x: f64) -> String {
        format!("b{:016x}", x.to_bits())
    }

    /// Parses [`RunSummary::f64_text`], plus the decimal form older cache
    /// files used.
    fn f64_parse(s: &str) -> Option<f64> {
        match s.strip_prefix('b') {
            Some(hex) => u64::from_str_radix(hex, 16).ok().map(f64::from_bits),
            None => s.parse().ok(),
        }
    }

    fn to_text(&self) -> String {
        let vec_join =
            |v: &[f64]| v.iter().map(|x| Self::f64_text(*x)).collect::<Vec<_>>().join(",");
        let u64_join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "ipc {}\nmpki {}\nrow_hit_rate {}\ncache_hit_rate {}\nenergy {},{},{},{},{}\ncpu_cycles {}\nrelocs {}\nlisa_clones {}\navg_read_latency {}\nreads_served {}\nread_lat_p50 {}\nread_lat_p95 {}\nread_lat_p99 {}\nread_lat_p999 {}\nread_lat_max {}\ninsertions {}\ntruncated_cores {}\nch_row_hit_rate {}\nch_read_q_peak {}\nch_write_q_peak {}\n",
            vec_join(&self.ipc),
            vec_join(&self.mpki),
            Self::f64_text(self.row_hit_rate),
            Self::f64_text(self.cache_hit_rate),
            Self::f64_text(self.energy.0),
            Self::f64_text(self.energy.1),
            Self::f64_text(self.energy.2),
            Self::f64_text(self.energy.3),
            Self::f64_text(self.energy.4),
            self.cpu_cycles,
            self.relocs,
            self.lisa_clones,
            Self::f64_text(self.avg_read_latency),
            self.reads_served,
            self.read_lat_p50,
            self.read_lat_p95,
            self.read_lat_p99,
            self.read_lat_p999,
            self.read_lat_max,
            self.insertions,
            self.truncated_cores,
            vec_join(&self.ch_row_hit_rate),
            u64_join(&self.ch_read_q_peak),
            u64_join(&self.ch_write_q_peak),
        )
    }

    fn from_text(text: &str) -> Option<Self> {
        let mut map = HashMap::new();
        for line in text.lines() {
            let (k, v) = line.split_once(' ')?;
            map.insert(k.to_string(), v.to_string());
        }
        let parse_vec =
            |s: &str| -> Option<Vec<f64>> { s.split(',').map(Self::f64_parse).collect() };
        let e = parse_vec(map.get("energy")?)?;
        if e.len() != 5 {
            return None;
        }
        // Fields absent in cache files written before they existed
        // default to 0 / empty (matching what those runs would have
        // reported).
        let legacy_u64 = |k: &str| map.get(k).map_or(Some(0), |v| v.parse().ok());
        let legacy_f64_vec = |k: &str| -> Option<Vec<f64>> {
            match map.get(k) {
                None => Some(Vec::new()),
                Some(v) if v.is_empty() => Some(Vec::new()),
                Some(v) => parse_vec(v),
            }
        };
        let legacy_u64_vec = |k: &str| -> Option<Vec<u64>> {
            match map.get(k) {
                None => Some(Vec::new()),
                Some(v) if v.is_empty() => Some(Vec::new()),
                Some(v) => v.split(',').map(|x| x.parse().ok()).collect(),
            }
        };
        Some(Self {
            ipc: parse_vec(map.get("ipc")?)?,
            mpki: parse_vec(map.get("mpki")?)?,
            row_hit_rate: Self::f64_parse(map.get("row_hit_rate")?)?,
            cache_hit_rate: Self::f64_parse(map.get("cache_hit_rate")?)?,
            energy: (e[0], e[1], e[2], e[3], e[4]),
            cpu_cycles: map.get("cpu_cycles")?.parse().ok()?,
            relocs: map.get("relocs")?.parse().ok()?,
            lisa_clones: map.get("lisa_clones")?.parse().ok()?,
            avg_read_latency: Self::f64_parse(map.get("avg_read_latency")?)?,
            reads_served: legacy_u64("reads_served")?,
            read_lat_p50: legacy_u64("read_lat_p50")?,
            read_lat_p95: legacy_u64("read_lat_p95")?,
            read_lat_p99: legacy_u64("read_lat_p99")?,
            read_lat_p999: legacy_u64("read_lat_p999")?,
            read_lat_max: legacy_u64("read_lat_max")?,
            insertions: map.get("insertions")?.parse().ok()?,
            truncated_cores: legacy_u64("truncated_cores")?,
            ch_row_hit_rate: legacy_f64_vec("ch_row_hit_rate")?,
            ch_read_q_peak: legacy_u64_vec("ch_read_q_peak")?,
            ch_write_q_peak: legacy_u64_vec("ch_write_q_peak")?,
        })
    }
}

/// Instruction target for the idle companion cores of an alone-IPC run.
pub const IDLE_COMPANION_TARGET: u64 = 1_000;

/// The idle-companion trace used by alone-IPC measurements (the
/// weighted-speedup denominators; see [`Runner::alone_ipc`] and the
/// `sim_kernel` bench): a pure non-memory loop whose tiny instruction
/// target retires immediately and never touches memory.
#[must_use]
pub fn idle_companion_trace() -> Trace {
    Trace {
        name: "idle".into(),
        ops: vec![TraceOp { nonmem: 1_000_000, addr: 0, is_write: false }],
    }
}

/// Deterministic per-run trace seed.
fn seed_for(app: &str, core: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes().chain([core as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How many trace ops cover `insts` instructions for `profile`.
fn ops_for(profile: &AppProfile, insts: u64) -> usize {
    let per_op = profile.nonmem_per_mem + 1.0;
    ((insts as f64 / per_op) * 1.2) as usize + 4096
}

/// Effective instruction target for a profile: scaled so every
/// application performs a comparable number of *memory operations*
/// (sparse-access applications get proportionally more instructions;
/// they are cheap to simulate because their IPC is high).
fn insts_for(profile: &AppProfile, scale: Scale) -> u64 {
    let base = scale.target_insts();
    let scaled = (base as f64 * (profile.nonmem_per_mem + 1.0) / 3.0) as u64;
    scaled.clamp(base, base * 12)
}

/// The workload of a [`Scenario`] — always **streamed** (cores pull from
/// generators on demand; nothing materializes a full trace in memory, so
/// scenario length is bounded by simulation time, not RAM).
#[derive(Debug, Clone)]
pub enum ScenarioWorkload {
    /// One application per core (defines the core count).
    Apps(Vec<AppProfile>),
    /// An eight-application multiprogrammed mix.
    Mix(Mix),
    /// One phase-switching workload per core.
    Phased(Vec<PhasedProfile>),
}

impl ScenarioWorkload {
    /// Number of cores the workload occupies.
    #[must_use]
    pub fn cores(&self) -> usize {
        match self {
            ScenarioWorkload::Apps(apps) => apps.len(),
            ScenarioWorkload::Mix(m) => m.apps.len(),
            ScenarioWorkload::Phased(ps) => ps.len(),
        }
    }

    /// Mean non-memory instructions per memory op of core `i` (used to
    /// convert op targets to instruction targets).
    fn nonmem_per_mem(&self, core: usize) -> f64 {
        match self {
            ScenarioWorkload::Apps(apps) => apps[core].nonmem_per_mem,
            ScenarioWorkload::Mix(m) => m.apps[core].nonmem_per_mem,
            ScenarioWorkload::Phased(ps) => ps[core].base.nonmem_per_mem,
        }
    }

    fn profile_for_insts(&self, core: usize) -> AppProfile {
        match self {
            ScenarioWorkload::Apps(apps) => apps[core],
            ScenarioWorkload::Mix(m) => m.apps[core],
            ScenarioWorkload::Phased(ps) => ps[core].base,
        }
    }

    /// Streaming source for core `core` (deterministic per scenario).
    fn source_for(&self, core: usize) -> Box<dyn TraceSource> {
        match self {
            ScenarioWorkload::Apps(apps) => {
                let p = &apps[core];
                Box::new(TraceGenerator::new(p, seed_for(p.name, core)))
            }
            ScenarioWorkload::Mix(m) => {
                let p = &m.apps[core];
                Box::new(TraceGenerator::new(p, seed_for(p.name, core)))
            }
            ScenarioWorkload::Phased(ps) => {
                let p = &ps[core];
                Box::new(PhasedGenerator::new(p, seed_for(&p.name, core)))
            }
        }
    }
}

/// One named simulation scenario: a streamed workload, a mechanism, and
/// optional system-shape overrides (the sensitivity-sweep axes). Runs
/// through [`Runner::run_scenario`] / [`Runner::run_scenario_batch`] and
/// shares the runner's result cache.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (reports only: the run spec is built from what the
    /// scenario simulates, so reused names never collide and renamed
    /// scenarios share their cached results).
    pub name: String,
    /// Mechanism under evaluation.
    pub kind: ConfigKind,
    /// The streamed workload.
    pub workload: ScenarioWorkload,
    /// Memory-channel override (power of two; default: paper rule).
    pub channels: Option<u32>,
    /// Per-core MSHR override (default: paper's 8).
    pub mshrs_per_core: Option<usize>,
    /// Per-core instruction-target override (default: the runner scale's
    /// per-profile target). This is what long-run scenarios set.
    pub target_insts: Option<u64>,
    /// Memory-controller scheduling-policy override (default: the
    /// runner's policy).
    pub sched: Option<SchedPolicyKind>,
    /// Address-mapping override (default: the runner's mapping).
    pub map: Option<MapKind>,
    /// Page-placement override (default: the runner's policy).
    pub page_map: Option<PageMapKind>,
    /// Open-loop arrival-pacing override (default: the runner's pacing).
    /// When set, every core's source is wrapped in an
    /// [`figaro_workloads::ArrivalSchedule`], making offered load the
    /// swept axis instead of the workload's own issue rate.
    pub arrival: Option<ArrivalKind>,
    /// Warm-start override (default: the runner's warmup, off unless
    /// set): run the first N CPU cycles once, snapshot the warmed state
    /// (FGSN, see [`crate::snapshot`]), and let every later run of the
    /// same warm prefix resume from the snapshot instead of re-simulating
    /// it. Resumed runs are bit-identical to uninterrupted ones, but the
    /// warmup is part of the run spec, so a cold cache entry never
    /// depended on a snapshot file.
    pub warmup_cycles: Option<u64>,
}

impl Scenario {
    /// A scenario with no overrides.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: ConfigKind, workload: ScenarioWorkload) -> Self {
        Self {
            name: name.into(),
            kind,
            workload,
            channels: None,
            mshrs_per_core: None,
            target_insts: None,
            sched: None,
            map: None,
            page_map: None,
            arrival: None,
            warmup_cycles: None,
        }
    }

    /// Overrides the channel count.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = Some(channels);
        self
    }

    /// Overrides the per-core MSHR count.
    #[must_use]
    pub fn with_mshrs(mut self, mshrs: usize) -> Self {
        self.mshrs_per_core = Some(mshrs);
        self
    }

    /// Overrides the per-core instruction target.
    #[must_use]
    pub fn with_target_insts(mut self, insts: u64) -> Self {
        self.target_insts = Some(insts);
        self
    }

    /// Overrides the memory-controller scheduling policy.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicyKind) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Overrides the physical→DRAM address mapping.
    #[must_use]
    pub fn with_mapping(mut self, map: MapKind) -> Self {
        self.map = Some(map);
        self
    }

    /// Overrides the OS page-frame placement policy.
    #[must_use]
    pub fn with_page_map(mut self, page_map: PageMapKind) -> Self {
        self.page_map = Some(page_map);
        self
    }

    /// Paces every core's source with an open-loop arrival process (the
    /// serving-sweep axis).
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalKind) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Warm-starts this scenario: the first `cycles` CPU cycles are
    /// simulated once and snapshotted; later runs sharing the warm
    /// prefix resume from the snapshot.
    #[must_use]
    pub fn with_warmup(mut self, cycles: u64) -> Self {
        self.warmup_cycles = Some(cycles);
        self
    }

    /// A long-run streaming scenario: `ops_per_core` memory operations
    /// per core, converted to an instruction target via each core's mean
    /// non-memory-per-memory ratio. The **maximum** across cores is used
    /// so even the sparsest core retires enough instructions to reach its
    /// op count. With streamed sources the memory footprint is
    /// independent of `ops_per_core`.
    #[must_use]
    pub fn long_run(
        name: impl Into<String>,
        kind: ConfigKind,
        workload: ScenarioWorkload,
        ops_per_core: u64,
    ) -> Self {
        let insts = (0..workload.cores())
            .map(|c| (ops_per_core as f64 * (workload.nonmem_per_mem(c) + 1.0)) as u64)
            .max()
            .unwrap_or(ops_per_core);
        Self::new(name, kind, workload).with_target_insts(insts)
    }
}

/// The experiment runner.
#[derive(Debug)]
pub struct Runner {
    scale: Scale,
    kernel: Kernel,
    sched: SchedPolicyKind,
    map: MapKind,
    page_map: PageMapKind,
    /// The zero-cost relocation ablation ([`figaro_memctrl::McConfig::free_reloc`]).
    free_reloc: bool,
    /// Open-loop arrival pacing applied to **scenario** runs (the
    /// serving paths); `None` leaves sources closed-loop. The figure
    /// paths (`run_single`/`run_mix`/...) never pace — their results
    /// model the applications' own issue rates.
    arrival: Option<ArrivalKind>,
    /// Warm-start applied to **scenario** runs (see
    /// [`Scenario::warmup_cycles`]); `None` runs everything cold.
    warmup: Option<u64>,
    cache_dir: Option<PathBuf>,
    /// Where FGSN warm-state snapshots live (default
    /// `<cache_dir>/snapshots`); `None` disables snapshot persistence
    /// (warmup still runs, once per process call).
    snapshot_dir: Option<PathBuf>,
}

/// What one core of a figure-path run executes: the generator's inputs
/// (never the generated ops), or the idle companion of an alone-IPC run.
#[derive(Debug)]
enum CoreLoad<'a> {
    Generated { profile: &'a AppProfile, ops: usize, seed: u64 },
    Idle(Trace),
}

impl CoreLoad<'_> {
    fn trace(&self) -> Trace {
        match self {
            CoreLoad::Generated { profile, ops, seed } => generate_trace(profile, *ops, *seed),
            CoreLoad::Idle(trace) => trace.clone(),
        }
    }
}

/// What every core of a scenario run executes: the streamed workload and
/// the arrival pacing wrapped around it.
#[derive(Debug)]
struct ScenarioLoad<'a> {
    workload: &'a ScenarioWorkload,
    arrival: Option<ArrivalKind>,
}

/// The spec text naming one run (see the module docs): everything the run
/// simulates, rendered with derived `Debug`.
fn run_spec(
    cfg: &SystemConfig,
    load: &dyn std::fmt::Debug,
    targets: &[u64],
    max_cycles: u64,
    warmup: Option<u64>,
) -> String {
    format!(
        "rev={MODEL_REV:016x} cfg={cfg:?} load={load:?} targets={targets:?} \
         cap={max_cycles} warmup={warmup:?}"
    )
}

impl Runner {
    /// A runner at `scale` with the on-disk result cache enabled and
    /// every knob at its paper default: event kernel, FR-FCFS, the
    /// paper's address mapping, identity page placement, closed-loop
    /// cold scenario runs. [`Runner::from_env`] applies the `FIGARO_*`
    /// overrides on top.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(|ws| ws.join("target").join("figaro-cache"));
        Self::build(scale, dir)
    }

    /// A runner without the on-disk cache (tests).
    #[must_use]
    pub fn uncached(scale: Scale) -> Self {
        Self::build(scale, None)
    }

    /// A runner with the result cache at an explicit directory (tests,
    /// tooling that wants an isolated cache).
    #[must_use]
    pub fn with_cache_dir(scale: Scale, dir: PathBuf) -> Self {
        Self::build(scale, Some(dir))
    }

    fn build(scale: Scale, cache_dir: Option<PathBuf>) -> Self {
        Self {
            scale,
            kernel: Kernel::Event,
            sched: SchedPolicyKind::FrFcfs,
            map: MapKind::default(),
            page_map: PageMapKind::Identity,
            free_reloc: false,
            arrival: None,
            warmup: None,
            snapshot_dir: cache_dir.as_ref().map(|d| d.join("snapshots")),
            cache_dir,
        }
    }

    /// [`Runner::new`] with the process environment's overrides applied
    /// (see [`Runner::with_env`]).
    ///
    /// # Errors
    ///
    /// A message naming the malformed variable and its accepted values.
    pub fn from_env(scale: Scale) -> Result<Self, String> {
        Self::new(scale).with_env()
    }

    /// Applies the process environment's overrides — the one place the
    /// library reads result-affecting `FIGARO_*` variables, called by
    /// binaries and benches at their edge: `FIGARO_KERNEL`,
    /// `FIGARO_SCHED`, `FIGARO_MAP`, `FIGARO_PAGEMAP`, `FIGARO_LOAD`,
    /// `FIGARO_WARMUP`, `FIGARO_FREE_RELOC` and `FIGARO_SNAPSHOT_DIR`.
    /// Unset or empty variables keep the runner's setting.
    ///
    /// # Errors
    ///
    /// A message naming the malformed variable and its accepted values.
    pub fn with_env(self) -> Result<Self, String> {
        self.with_overrides(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Applies the overrides `env_lookup` reports (`None` for an unset
    /// variable), so tests can parse without touching the process
    /// environment.
    fn with_overrides(
        mut self,
        env_lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, String> {
        let env_var = |var: &str| env_lookup(var).filter(|v| !v.is_empty());
        if let Some(raw) = env_var("FIGARO_KERNEL") {
            self.kernel = Kernel::parse(&raw).ok_or_else(|| {
                format!("unrecognized FIGARO_KERNEL `{raw}` (use event | reference)")
            })?;
        }
        if let Some(raw) = env_var("FIGARO_SCHED") {
            self.sched = SchedPolicyKind::from_name(&raw).ok_or_else(|| {
                format!(
                    "unrecognized FIGARO_SCHED `{raw}` \
                     (use frfcfs | fcfs | frfcfs-cap<N> | wdrain<H>-<L>)"
                )
            })?;
        }
        if let Some(raw) = env_var("FIGARO_MAP") {
            self.map = MapKind::from_name(&raw).ok_or_else(|| {
                format!(
                    "unrecognized FIGARO_MAP `{raw}` \
                     (use paper | chfirst | rowint, optionally with an -xor suffix)"
                )
            })?;
        }
        if let Some(raw) = env_var("FIGARO_PAGEMAP") {
            self.page_map = PageMapKind::from_name(&raw).ok_or_else(|| {
                format!(
                    "unrecognized FIGARO_PAGEMAP `{raw}` \
                     (use ident | rand<seed> | color<N>, N a power of two)"
                )
            })?;
        }
        if let Some(raw) = env_var("FIGARO_LOAD") {
            let kind = ArrivalKind::parse(&raw)
                .map_err(|e| format!("unrecognized FIGARO_LOAD `{raw}`: {e}"))?;
            self.arrival = Some(kind);
        }
        if let Some(raw) = env_var("FIGARO_WARMUP") {
            let cycles = raw.parse::<u64>().map_err(|_| {
                format!("unrecognized FIGARO_WARMUP `{raw}` (use a CPU-cycle count; 0 is cold)")
            })?;
            self.warmup = Some(cycles).filter(|&w| w > 0);
        }
        // Presence alone enables the ablation, whatever the value.
        self.free_reloc = env_lookup("FIGARO_FREE_RELOC").is_some();
        if let Some(dir) = env_var("FIGARO_SNAPSHOT_DIR") {
            self.snapshot_dir = Some(PathBuf::from(dir));
        }
        Ok(self)
    }

    /// Pins the simulation kernel for every run this runner launches
    /// (serial and batch alike). The kernel is part of the run spec, so
    /// a reference run really executes the per-cycle oracle instead of
    /// reading an event-kernel result.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Pins the memory-controller scheduling policy for every run this
    /// runner launches.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicyKind) -> Self {
        self.sched = sched;
        self
    }

    /// Pins the physical→DRAM address mapping for every run this runner
    /// launches.
    #[must_use]
    pub fn with_mapping(mut self, map: MapKind) -> Self {
        self.map = map;
        self
    }

    /// Pins the OS page-frame placement policy for every run this
    /// runner launches.
    #[must_use]
    pub fn with_page_map(mut self, page_map: PageMapKind) -> Self {
        self.page_map = page_map;
        self
    }

    /// Pins open-loop arrival pacing for every **scenario** run this
    /// runner launches (default: closed-loop).
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalKind) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Warm-starts every **scenario** run this runner launches (default:
    /// cold). The warmup is part of the run spec even though resumption
    /// is bit-identical, so a cold cache entry never depended on a
    /// snapshot file.
    #[must_use]
    pub fn with_warmup(mut self, cycles: u64) -> Self {
        self.warmup = Some(cycles);
        self
    }

    /// Pins the FGSN snapshot directory (default:
    /// `<cache_dir>/snapshots`).
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: PathBuf) -> Self {
        self.snapshot_dir = Some(dir);
        self
    }

    /// The runner's scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The simulation kernel this runner uses.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The memory-controller scheduling policy this runner uses.
    #[must_use]
    pub fn sched(&self) -> SchedPolicyKind {
        self.sched
    }

    /// The physical→DRAM address mapping this runner uses.
    #[must_use]
    pub fn mapping(&self) -> MapKind {
        self.map
    }

    /// The OS page-frame placement policy this runner uses.
    #[must_use]
    pub fn page_map(&self) -> PageMapKind {
        self.page_map
    }

    /// The open-loop arrival pacing of this runner's scenario runs
    /// (`None`: closed-loop).
    #[must_use]
    pub fn arrival(&self) -> Option<ArrivalKind> {
        self.arrival
    }

    /// A [`SystemConfig::paper`] system with this runner's kernel,
    /// scheduling policy, address mapping, page placement and
    /// relocation ablation — the config every run of this runner uses.
    #[must_use]
    pub fn system_config(&self, cores: usize, kind: ConfigKind) -> SystemConfig {
        let mut cfg = SystemConfig { kernel: self.kernel, ..SystemConfig::paper(cores, kind) }
            .with_sched(self.sched)
            .with_mapping(self.map)
            .with_page_map(self.page_map);
        cfg.mc.free_reloc = self.free_reloc;
        cfg
    }

    /// Instructions a core running `profile` retires at this runner's
    /// scale (see [`insts_for`]).
    #[must_use]
    pub fn target_insts(&self, profile: &AppProfile) -> u64 {
        insts_for(profile, self.scale)
    }

    /// The process-wide per-cache-file lock: concurrent batch workers
    /// that land on the same cache file serialize here, so the first
    /// computes and publishes while the rest read the published file.
    /// Entries are never evicted — the registry is bounded by the number
    /// of distinct runs in a process (a few hundred for the full sweep
    /// set, each a few dozen bytes).
    fn key_lock(path: &std::path::Path) -> Arc<Mutex<()>> {
        static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
        LOCKS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("lock registry never poisoned")
            .entry(path.to_path_buf())
            .or_default()
            .clone()
    }

    /// Serves the run named by `spec` from the result cache, or runs it
    /// and publishes the result. The file is named by the spec's hash and
    /// holds the spec on its first line; a file whose first line differs
    /// (a hash collision, or an entry from an older model revision) is
    /// re-simulated and replaced.
    fn cached<F: FnOnce() -> RunSummary>(&self, spec: &str, run: F) -> RunSummary {
        let Some(dir) = &self.cache_dir else { return run() };
        let name = format!("{:016x}", key_hash(spec));
        let path = dir.join(format!("{name}.txt"));
        let lock = Self::key_lock(&path);
        let _guard = lock.lock().expect("cache key lock never poisoned");
        if let Ok(text) = fs::read_to_string(&path) {
            if let Some(s) = text
                .split_once('\n')
                .filter(|(stored, _)| *stored == spec)
                .and_then(|(_, body)| RunSummary::from_text(body))
            {
                return s;
            }
        }
        let s = run();
        let _ = fs::create_dir_all(dir);
        // Publish atomically (temp + rename) so a concurrent reader in
        // another process never sees a torn file.
        let tmp = dir.join(format!("{name}.{}.tmp", std::process::id()));
        if fs::write(&tmp, format!("{spec}\n{}", s.to_text())).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
        s
    }

    /// The generator inputs of `profile` on logical core `core`.
    fn generated<'a>(&self, profile: &'a AppProfile, core: usize) -> CoreLoad<'a> {
        CoreLoad::Generated {
            profile,
            ops: ops_for(profile, insts_for(profile, self.scale)),
            seed: seed_for(profile.name, core),
        }
    }

    /// Trace for `profile` on logical core `core`.
    #[must_use]
    pub fn trace_for(&self, profile: &AppProfile, core: usize) -> Trace {
        self.generated(profile, core).trace()
    }

    /// Runs a figure-path system (`cfg`, one load per core, per-core
    /// `targets`) through the result cache, capped at 400 cycles per
    /// instruction of the largest target.
    fn run_loads(&self, cfg: SystemConfig, loads: &[CoreLoad<'_>], targets: &[u64]) -> RunSummary {
        let max_cycles = targets.iter().max().copied().unwrap_or(1) * 400;
        let spec = run_spec(&cfg, &loads, targets, max_cycles, None);
        self.cached(&spec, || {
            let traces = loads.iter().map(CoreLoad::trace).collect();
            let mut sys = System::new(cfg, traces, targets);
            RunSummary::from_stats(&sys.run(max_cycles))
        })
    }

    /// Runs one application on the single-core system under `kind`.
    pub fn run_single(&self, profile: &AppProfile, kind: ConfigKind) -> RunSummary {
        let insts = insts_for(profile, self.scale);
        self.run_loads(self.system_config(1, kind), &[self.generated(profile, 0)], &[insts])
    }

    /// Runs an eight-application mix under `kind`.
    pub fn run_mix(&self, mix: &Mix, kind: ConfigKind) -> RunSummary {
        let loads: Vec<CoreLoad<'_>> =
            mix.apps.iter().enumerate().map(|(i, p)| self.generated(p, i)).collect();
        let targets: Vec<u64> = mix.apps.iter().map(|p| insts_for(p, self.scale)).collect();
        self.run_loads(self.system_config(8, kind), &loads, &targets)
    }

    /// Runs a multithreaded workload: eight threads of one program sharing
    /// a footprint (different seeds ⇒ different interleavings of the same
    /// address space).
    pub fn run_multithreaded(&self, profile: &AppProfile, kind: ConfigKind) -> RunSummary {
        let loads: Vec<CoreLoad<'_>> = (0..8).map(|i| self.generated(profile, i)).collect();
        let insts = insts_for(profile, self.scale);
        self.run_loads(self.system_config(8, kind), &loads, &[insts; 8])
    }

    /// IPC of `profile` running **alone** on the eight-core Base system
    /// (the denominator of weighted speedup).
    pub fn alone_ipc(&self, profile: &AppProfile) -> f64 {
        // Seven idle companion cores.
        let mut loads = vec![self.generated(profile, 0)];
        loads.extend((1..8).map(|_| CoreLoad::Idle(idle_companion_trace())));
        let mut targets = vec![insts_for(profile, self.scale)];
        targets.extend([IDLE_COMPANION_TARGET; 7]);
        self.run_loads(self.system_config(8, ConfigKind::Base), &loads, &targets).ipc[0]
    }

    /// Runs one [`Scenario`]: builds the system shape (paper defaults plus
    /// the scenario's overrides) and drives it from **streaming** sources,
    /// so even 100M-op-per-core runs hold no materialized traces.
    pub fn run_scenario(&self, sc: &Scenario) -> RunSummary {
        let cores = sc.workload.cores();
        assert!(cores > 0, "scenario needs at least one core");
        let arrival = sc.arrival.or(self.arrival);
        let warmup = sc.warmup_cycles.or(self.warmup).filter(|&w| w > 0);
        let mut cfg = self
            .system_config(cores, sc.kind.clone())
            .with_sched(sc.sched.unwrap_or(self.sched))
            .with_mapping(sc.map.unwrap_or(self.map))
            .with_page_map(sc.page_map.unwrap_or(self.page_map));
        if let Some(ch) = sc.channels {
            cfg = cfg.with_channels(ch);
        }
        if let Some(m) = sc.mshrs_per_core {
            cfg = cfg.with_mshrs(m);
        }
        let targets: Vec<u64> = (0..cores)
            .map(|c| {
                sc.target_insts
                    .unwrap_or_else(|| insts_for(&sc.workload.profile_for_insts(c), self.scale))
            })
            .collect();
        let max_cycles = targets.iter().max().copied().unwrap_or(1).saturating_mul(400);
        let load = ScenarioLoad { workload: &sc.workload, arrival };
        let spec = run_spec(&cfg, &load, &targets, max_cycles, warmup);
        self.cached(&spec, || {
            let build = |cfg: SystemConfig| -> System {
                let sources: Vec<Box<dyn TraceSource>> = (0..cores)
                    .map(|c| {
                        let src = load.workload.source_for(c);
                        match load.arrival {
                            // Per-core seeds tied to the arrival label, so
                            // cores draw independent gap streams and a kind
                            // change redraws them.
                            Some(kind) => Box::new(ArrivalSchedule::new(
                                src,
                                kind,
                                seed_for(&kind.label(), c),
                            )) as Box<dyn TraceSource>,
                            None => src,
                        }
                    })
                    .collect();
                System::from_sources(cfg, sources, &targets)
            };
            let mut sys = build(cfg.clone());
            if let Some(w) = warmup {
                // The warm prefix is its own run: the event kernel (so
                // one snapshot serves every kernel) capped at the warmup.
                let warm_cycles = w.min(max_cycles);
                let warm_cfg = SystemConfig { kernel: Kernel::Event, ..cfg.clone() };
                let warm_spec = run_spec(&warm_cfg, &load, &targets, warm_cycles, None);
                self.warm_start(&mut sys, warm_cfg, warm_cycles, &warm_spec, &build);
            }
            RunSummary::from_stats(&sys.run(max_cycles))
        })
    }

    /// Brings `sys` to the scenario's warm point: restores the FGSN
    /// snapshot named by `warm_spec` when one exists, otherwise simulates
    /// the warm prefix once under `warm_cfg` (the event kernel) and publishes
    /// the snapshot for every later run sharing the prefix. `build` must
    /// reconstruct the system from the same run description (fresh
    /// deterministic sources).
    fn warm_start<F: Fn(SystemConfig) -> System>(
        &self,
        sys: &mut System,
        warm_cfg: SystemConfig,
        warm_cycles: u64,
        warm_spec: &str,
        build: &F,
    ) {
        let path = self.snapshot_path(warm_spec);
        if let Some(p) = &path {
            if crate::snapshot::restore(sys, p).is_ok() {
                sys.note_warm_resume();
                return;
            }
        }
        let mut warm = build(warm_cfg);
        let _ = warm.run(warm_cycles);
        if let Some(p) = &path {
            if let Some(dir) = p.parent() {
                let _ = fs::create_dir_all(dir);
            }
            let _ = crate::snapshot::save(&warm, p);
        }
        // Hand the warmed state over in memory — the run must not depend
        // on the snapshot write having succeeded.
        let mut words = Vec::new();
        warm.save_state(&mut words);
        sys.load_state(&mut &words[..]);
        sys.note_warm_resume();
    }

    /// On-disk location of the FGSN snapshot for a warm-prefix spec
    /// (`None` when snapshot persistence is disabled): the spec's FNV-1a
    /// hash, as for result-cache files.
    fn snapshot_path(&self, warm_spec: &str) -> Option<PathBuf> {
        self.snapshot_dir.as_ref().map(|d| d.join(format!("{:016x}.fgsn", key_hash(warm_spec))))
    }

    /// Runs a batch of scenarios in parallel; results in input order,
    /// bit-identical to calling [`Runner::run_scenario`] serially.
    pub fn run_scenario_batch(&self, scenarios: &[Scenario]) -> Vec<RunSummary> {
        scenarios.par_iter().map(|sc| self.run_scenario(sc)).collect::<Vec<_>>()
    }

    /// Runs a batch of single-core jobs in parallel; results in input
    /// order, bit-identical to calling [`Runner::run_single`] serially.
    pub fn run_single_batch(&self, jobs: &[(AppProfile, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(p, k)| self.run_single(p, k.clone())).collect::<Vec<_>>()
    }

    /// Runs a batch of eight-core mix jobs in parallel; results in input
    /// order, bit-identical to calling [`Runner::run_mix`] serially.
    pub fn run_mix_batch(&self, jobs: &[(Mix, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(m, k)| self.run_mix(m, k.clone())).collect::<Vec<_>>()
    }

    /// Runs a batch of eight-thread multithreaded jobs in parallel;
    /// results in input order.
    pub fn run_multithreaded_batch(&self, jobs: &[(AppProfile, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(p, k)| self.run_multithreaded(p, k.clone())).collect::<Vec<_>>()
    }

    /// Alone-IPCs for `profiles` in parallel (the weighted-speedup
    /// denominators); results in input order.
    pub fn alone_ipc_batch(&self, profiles: &[AppProfile]) -> Vec<f64> {
        profiles.par_iter().map(|p| self.alone_ipc(p)).collect::<Vec<_>>()
    }

    /// Runs the `apps × kinds` single-core matrix in parallel; result
    /// indexed `[app][kind]`. This is the shared shape of Figs. 7/9/10/11
    /// and the sweep figures.
    pub fn run_single_matrix(
        &self,
        apps: &[AppProfile],
        kinds: &[ConfigKind],
    ) -> Vec<Vec<RunSummary>> {
        let specs: Vec<(usize, usize)> =
            (0..apps.len()).flat_map(|a| (0..kinds.len()).map(move |k| (a, k))).collect();
        let flat: Vec<RunSummary> = specs
            .into_par_iter()
            .map(|(a, k)| self.run_single(&apps[a], kinds[k].clone()))
            .collect::<Vec<_>>();
        flat.chunks(kinds.len().max(1)).map(<[RunSummary]>::to_vec).collect()
    }

    /// Runs the `mixes × kinds` eight-core matrix in parallel; result
    /// indexed `[mix][kind]`.
    pub fn run_mix_matrix(&self, mixes: &[Mix], kinds: &[ConfigKind]) -> Vec<Vec<RunSummary>> {
        let specs: Vec<(usize, usize)> =
            (0..mixes.len()).flat_map(|m| (0..kinds.len()).map(move |k| (m, k))).collect();
        let flat: Vec<RunSummary> = specs
            .into_par_iter()
            .map(|(m, k)| self.run_mix(&mixes[m], kinds[k].clone()))
            .collect::<Vec<_>>();
        flat.chunks(kinds.len().max(1)).map(<[RunSummary]>::to_vec).collect()
    }

    /// Maps `f` over `0..n` on the worker pool (runs are independent;
    /// results come back in index order). Prefer the typed `*_batch` /
    /// `*_matrix` methods for simulation runs; this remains for
    /// irregular job shapes.
    pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..n).into_par_iter().map(f).collect::<Vec<_>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_workloads::profile_by_name;

    #[test]
    fn summary_round_trips_through_text() {
        // Deliberately awkward floats: values whose shortest decimal
        // rendering used to round-trip off by an ulp through `{}`.
        let s = RunSummary {
            ipc: vec![0.1 + 0.2, 1.0 / 3.0],
            mpki: vec![12.0, 3.0_f64.sqrt()],
            row_hit_rate: 0.42,
            cache_hit_rate: f64::from_bits(0x3FD5_5555_5555_5556),
            energy: (1.0, 2.0, 3.0, 4.0, 5.0e-300),
            cpu_cycles: 1000,
            relocs: 77,
            lisa_clones: 0,
            avg_read_latency: 55.5,
            reads_served: 12_345,
            read_lat_p50: 28,
            read_lat_p95: 96,
            read_lat_p99: 224,
            read_lat_p999: 1792,
            read_lat_max: 2011,
            insertions: 9,
            truncated_cores: 1,
            ch_row_hit_rate: vec![0.75, 1.0 / 7.0],
            ch_read_q_peak: vec![31, 12],
            ch_write_q_peak: vec![16, 0],
        };
        let t = s.to_text();
        let loaded = RunSummary::from_text(&t).expect("round trip must parse");
        assert_eq!(loaded, s.clone());
        // Bit-exactness, not just PartialEq (the cache-vs-fresh contract).
        for (a, b) in loaded.ipc.iter().zip(s.ipc.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(loaded.cache_hit_rate.to_bits(), s.cache_hit_rate.to_bits());
        assert_eq!(loaded.energy.4.to_bits(), s.energy.4.to_bits());
        // Cache files written before the newer fields existed still load
        // (decimal floats, no percentile lines).
        let legacy: String = t
            .lines()
            .filter(|l| {
                !l.starts_with("truncated_cores")
                    && !l.starts_with("reads_served")
                    && !l.starts_with("read_lat_")
                    && !l.starts_with("ch_")
            })
            .map(|l| {
                // Rewrite hex-bit floats back to the old decimal form.
                let (k, v) = l.split_once(' ').unwrap();
                let dec: Vec<String> = v
                    .split(',')
                    .map(|x| match RunSummary::f64_parse(x) {
                        Some(f) if x.starts_with('b') => f.to_string(),
                        _ => x.to_string(),
                    })
                    .collect();
                format!("{k} {}\n", dec.join(","))
            })
            .collect();
        let loaded = RunSummary::from_text(&legacy).expect("legacy cache entry must parse");
        assert_eq!(loaded.truncated_cores, 0);
        assert_eq!(loaded.reads_served, 0);
        assert_eq!(loaded.read_lat_p99, 0);
        assert!(loaded.ch_row_hit_rate.is_empty() && loaded.ch_read_q_peak.is_empty());
        assert_eq!(loaded.ipc, s.ipc, "shortest-decimal legacy floats still parse exactly");
    }

    #[test]
    fn cached_scenario_result_is_bit_identical_to_fresh() {
        // The satellite-2 contract end to end: write a summary through
        // the on-disk cache, read it back, and require full bit equality
        // with the freshly computed run (floats included).
        let dir = test_cache_dir("exact");
        let sc = Scenario::new(
            "exactness",
            ConfigKind::FigCacheFast,
            ScenarioWorkload::Apps(vec![profile_by_name("mcf").unwrap()]),
        )
        .with_target_insts(10_000);
        let fresh = Runner::uncached(Scale::Tiny).run_scenario(&sc);
        let writer = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let first = writer.run_scenario(&sc); // computes and publishes
        let cached = Runner::with_cache_dir(Scale::Tiny, dir.clone()).run_scenario(&sc);
        for s in [&first, &cached] {
            assert_eq!(s, &fresh);
            for (a, b) in s.ipc.iter().zip(fresh.ipc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached float differs from fresh");
            }
            assert_eq!(s.avg_read_latency.to_bits(), fresh.avg_read_latency.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_runs_are_flagged_in_the_summary() {
        // A run stopped by its cycle cap short of the instruction target
        // must say so instead of passing the truncation off as a
        // measurement; a completed run must not.
        let p = profile_by_name("mcf").unwrap();
        let run_capped = |max_cycles: u64| {
            let trace = generate_trace(&p, 20_000, 3);
            let mut sys =
                System::new(SystemConfig::paper(1, ConfigKind::Base), vec![trace], &[20_000]);
            RunSummary::from_stats(&sys.run(max_cycles))
        };
        let truncated = run_capped(5_000);
        assert_eq!(truncated.truncated_cores, 1);
        let completed = run_capped(20_000 * 400);
        assert_eq!(completed.truncated_cores, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = Runner::parallel_map(10, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn seeds_differ_by_core_and_app() {
        assert_ne!(seed_for("mcf", 0), seed_for("mcf", 1));
        assert_ne!(seed_for("mcf", 0), seed_for("lbm", 0));
    }

    #[test]
    fn tiny_single_run_works_uncached() {
        let runner = Runner::uncached(Scale::Tiny);
        let p = profile_by_name("sjeng").unwrap();
        let s = runner.run_single(&p, ConfigKind::Base);
        assert!(s.ipc[0] > 0.0);
        assert!(s.mpki[0] < 10.0, "sjeng must classify non-intensive, mpki {}", s.mpki[0]);
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let runner = Runner::uncached(Scale::Tiny);
        let jobs: Vec<_> = ["sjeng", "grep"]
            .iter()
            .flat_map(|n| {
                let p = profile_by_name(n).unwrap();
                [(p, ConfigKind::Base), (p, ConfigKind::FigCacheFast)]
            })
            .collect();
        let parallel = runner.run_single_batch(&jobs);
        let serial: Vec<RunSummary> =
            jobs.iter().map(|(p, k)| runner.run_single(p, k.clone())).collect();
        assert_eq!(parallel, serial, "batch must equal the serial loop bit-for-bit");
    }

    #[test]
    fn matrix_indexing_matches_flat_jobs() {
        let runner = Runner::uncached(Scale::Tiny);
        let apps = vec![profile_by_name("sjeng").unwrap(), profile_by_name("grep").unwrap()];
        let kinds = vec![ConfigKind::Base, ConfigKind::FigCacheFast];
        let matrix = runner.run_single_matrix(&apps, &kinds);
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0].len(), 2);
        assert_eq!(matrix[1][0], runner.run_single(&apps[1], ConfigKind::Base));
    }

    #[test]
    fn shared_cache_dedups_duplicate_jobs_and_survives_reload() {
        let dir = test_cache_dir("dedup");
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let p = profile_by_name("grep").unwrap();
        // Four copies of the same job racing over one cache file.
        let jobs = vec![(p, ConfigKind::Base); 4];
        let out = runner.run_single_batch(&jobs);
        assert!(out.windows(2).all(|w| w[0] == w[1]), "duplicates must agree");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 1, "one key -> one published file, got {files:?}");
        assert!(files[0].ends_with(".txt"), "no stray temp files: {files:?}");
        // A fresh runner over the same dir must load the identical summary.
        let reloaded = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        assert_eq!(reloaded.run_single(&p, ConfigKind::Base), out[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_runs_streamed_and_deterministic() {
        let runner = Runner::uncached(Scale::Tiny);
        let sc = Scenario::new(
            "smoke",
            ConfigKind::FigCacheFast,
            ScenarioWorkload::Apps(vec![profile_by_name("mcf").unwrap()]),
        )
        .with_target_insts(20_000);
        let a = runner.run_scenario(&sc);
        let b = runner.run_scenario(&sc);
        assert_eq!(a, b, "scenario runs must be deterministic");
        assert!(a.ipc[0] > 0.0);
    }

    #[test]
    fn scenario_overrides_change_the_system_shape() {
        let runner = Runner::uncached(Scale::Tiny);
        let mix = figaro_workloads::eight_core_mixes()
            .into_iter()
            .find(|m| m.category == figaro_workloads::MixCategory::Intensive100)
            .unwrap();
        let base = Scenario::new("shape", ConfigKind::Base, ScenarioWorkload::Mix(mix.clone()))
            .with_target_insts(4_000);
        let narrow = base.clone().with_channels(1).with_mshrs(4);
        let wide = base.with_channels(4).with_mshrs(16);
        let results = runner.run_scenario_batch(&[narrow, wide]);
        assert_eq!(results.len(), 2);
        let (narrow, wide) = (&results[0], &results[1]);
        assert!(
            wide.ipc.iter().sum::<f64>() > narrow.ipc.iter().sum::<f64>(),
            "4 channels / 16 MSHRs must outrun 1 channel / 4 MSHRs on an intensive mix"
        );
    }

    #[test]
    fn phased_scenario_crosses_phase_boundaries() {
        let runner = Runner::uncached(Scale::Tiny);
        let phased = figaro_workloads::phased_profiles().remove(0);
        let sc = Scenario::new(
            "phased",
            ConfigKind::FigCacheFast,
            ScenarioWorkload::Phased(vec![phased]),
        )
        .with_target_insts(30_000);
        let s = runner.run_scenario(&sc);
        assert!(s.ipc[0] > 0.0);
        assert!(s.insertions > 0, "phase churn must exercise the cache engine");
    }

    #[test]
    fn scenario_cache_keys_distinguish_workloads() {
        // Two scenarios reusing a name with different workloads must not
        // share a cached result.
        let dir = test_cache_dir("scn");
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let sc = |app: &str| {
            Scenario::new(
                "same-name",
                ConfigKind::Base,
                ScenarioWorkload::Apps(vec![profile_by_name(app).unwrap()]),
            )
            .with_target_insts(10_000)
        };
        let mcf = runner.run_scenario(&sc("mcf"));
        let sjeng = runner.run_scenario(&sc("sjeng"));
        assert_ne!(mcf, sjeng, "different workloads under one name must not collide");
        assert!(
            sjeng.mpki[0] < mcf.mpki[0],
            "sjeng must really have run (not mcf's cache entry): {} vs {}",
            sjeng.mpki[0],
            mcf.mpki[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh cache directory for one test. Tests run in parallel, so
    /// each owns a top-level temp directory and removes only that.
    fn test_cache_dir(leaf: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("figaro-cache-test-{}-{leaf}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn phased_scenarios_over_different_bases_never_share_a_result() {
        // Same scenario name, same phase schedule, same workload name:
        // only the base profile differs, and that alone must key apart.
        let phased = |base: &str| {
            let p = PhasedProfile {
                name: "phased-twin".into(),
                ..PhasedProfile::standard(profile_by_name(base).unwrap(), 2_000)
            };
            Scenario::new("twin", ConfigKind::Base, ScenarioWorkload::Phased(vec![p]))
                .with_target_insts(10_000)
        };
        let dir = test_cache_dir("phased-twin");
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let mcf = runner.run_scenario(&phased("mcf"));
        let lbm = runner.run_scenario(&phased("lbm"));
        assert_eq!(lbm, Runner::uncached(Scale::Tiny).run_scenario(&phased("lbm")));
        assert_ne!(mcf, lbm, "the lbm-based scenario was served the mcf-based result");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_file_with_a_different_spec_is_resimulated_and_replaced() {
        let dir = test_cache_dir("stale-spec");
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let p = profile_by_name("sjeng").unwrap();
        let fresh = runner.run_single(&p, ConfigKind::Base);
        let files: Vec<PathBuf> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let published = std::fs::read_to_string(&files[0]).unwrap();
        let spec = published.lines().next().unwrap();
        // Plant well-formed summaries of some other run at this run's path:
        // one under another spec (a hash collision or an older model
        // revision) and one with no spec line at all (an older format).
        let mut other = fresh.clone();
        other.cpu_cycles += 1;
        for planted in [format!("{spec} (another run)\n{}", other.to_text()), other.to_text()] {
            std::fs::write(&files[0], planted).unwrap();
            let rerun =
                Runner::with_cache_dir(Scale::Tiny, dir.clone()).run_single(&p, ConfigKind::Base);
            assert_eq!(rerun, fresh, "a file holding another run was served");
            let now = std::fs::read_to_string(&files[0]).unwrap();
            assert_eq!(now, published, "file not replaced");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_result_affecting_knob_changes_the_spec() {
        // One scenario-shaped run description, then one flip per knob:
        // each flip must change the spec text.
        struct Run {
            cfg: SystemConfig,
            arrival: Option<ArrivalKind>,
            targets: Vec<u64>,
            warmup: Option<u64>,
        }
        type Flip = fn(&mut Run);
        let workload = ScenarioWorkload::Apps(vec![profile_by_name("mcf").unwrap()]);
        let spec = |r: &Run| {
            let load = ScenarioLoad { workload: &workload, arrival: r.arrival };
            run_spec(&r.cfg, &load, &r.targets, 4_000_000, r.warmup)
        };
        let base = || Run {
            cfg: Runner::uncached(Scale::Tiny).system_config(2, ConfigKind::FigCacheFast),
            arrival: None,
            targets: vec![10_000, 10_000],
            warmup: None,
        };
        let flips: Vec<(&str, Flip)> = vec![
            ("kernel", |r| r.cfg.kernel = Kernel::Reference),
            ("sched", |r| r.cfg.mc.sched = SchedPolicyKind::Fcfs),
            ("map", |r| r.cfg.mc.map = MapKind::from_name("rowint").unwrap()),
            ("page_map", |r| r.cfg.page_map = PageMapKind::Color { colors: 16 }),
            ("channels", |r| r.cfg.channels = 2),
            ("mshrs_per_core", |r| r.cfg.hierarchy.mshrs_per_core = 16),
            ("read_queue_cap", |r| r.cfg.mc.read_queue_cap = 32),
            ("enable_refresh", |r| r.cfg.mc.enable_refresh = false),
            ("free_reloc", |r| r.cfg.mc.free_reloc = true),
            ("cpu_cycles_per_bus", |r| r.cfg.cpu_cycles_per_bus = 5),
            ("arrival", |r| r.arrival = Some(ArrivalKind::Fixed { gap: 50 })),
            ("warmup", |r| r.warmup = Some(2_000)),
            ("target", |r| r.targets[1] = 10_001),
        ];
        let canonical = spec(&base());
        for (knob, flip) in flips {
            let mut run = base();
            flip(&mut run);
            assert_ne!(spec(&run), canonical, "flipping `{knob}` left the spec unchanged");
        }
    }

    #[test]
    fn free_reloc_is_a_plain_config_field() {
        let run = |free_reloc: bool, kernel: Kernel| {
            let mut cfg =
                SystemConfig { kernel, ..SystemConfig::paper(1, ConfigKind::FigCacheFast) };
            cfg.mc.free_reloc = free_reloc;
            let trace = generate_trace(&profile_by_name("mcf").unwrap(), 8_000, 7);
            let spec = run_spec(&cfg, &"mcf", &[12_000], 12_000 * 400, None);
            (System::new(cfg, vec![trace], &[12_000]).run(12_000 * 400), spec)
        };
        let (off, off_spec) = run(false, Kernel::Event);
        let (on, on_spec) = run(true, Kernel::Event);
        assert_ne!(on, off, "the ablation must change what is simulated");
        assert_ne!(on_spec, off_spec);
        let (on_ref, _) = run(true, Kernel::Reference);
        assert_eq!(on, on_ref, "event and reference kernels diverge under free_reloc");
    }

    /// [`Runner::with_overrides`] over a fixed variable table.
    fn parsed(vars: &[(&str, &str)]) -> Result<Runner, String> {
        Runner::uncached(Scale::Tiny)
            .with_overrides(|k| vars.iter().find(|(v, _)| *v == k).map(|(_, x)| (*x).to_string()))
    }

    #[test]
    fn env_overrides_parse_and_default() {
        let defaults = format!("{:?}", Runner::uncached(Scale::Tiny));
        assert_eq!(format!("{:?}", parsed(&[]).unwrap()), defaults, "unset must mean paper");
        let empty: Vec<(&str, &str)> = [
            "FIGARO_KERNEL",
            "FIGARO_SCHED",
            "FIGARO_MAP",
            "FIGARO_PAGEMAP",
            "FIGARO_LOAD",
            "FIGARO_WARMUP",
            "FIGARO_SNAPSHOT_DIR",
        ]
        .iter()
        .map(|v| (*v, ""))
        .collect();
        assert_eq!(format!("{:?}", parsed(&empty).unwrap()), defaults, "empty must mean unset");

        let r = parsed(&[
            ("FIGARO_KERNEL", "reference"),
            ("FIGARO_SCHED", "fcfs"),
            ("FIGARO_MAP", "rowint-xor"),
            ("FIGARO_PAGEMAP", "color16"),
            ("FIGARO_LOAD", "poisson:40"),
            ("FIGARO_WARMUP", "2000"),
            ("FIGARO_FREE_RELOC", ""),
            ("FIGARO_SNAPSHOT_DIR", "/snaps"),
        ])
        .unwrap();
        assert_eq!(r.kernel, Kernel::Reference);
        assert_eq!(r.sched, SchedPolicyKind::Fcfs);
        assert_eq!(r.map, MapKind::from_name("rowint-xor").unwrap());
        assert_eq!(r.page_map, PageMapKind::Color { colors: 16 });
        assert_eq!(r.arrival, Some(ArrivalKind::Poisson { mean_gap: 40 }));
        assert_eq!(r.warmup, Some(2_000));
        assert!(r.free_reloc, "presence alone enables the ablation");
        assert!(r.system_config(1, ConfigKind::Base).mc.free_reloc, "runs must see the ablation");
        assert_eq!(r.snapshot_dir, Some(PathBuf::from("/snaps")));
        assert_eq!(parsed(&[("FIGARO_WARMUP", "0")]).unwrap().warmup, None, "0 means cold");
    }

    #[test]
    fn malformed_env_overrides_are_errors_naming_the_variable() {
        for (var, bad) in [
            ("FIGARO_KERNEL", "parallel"),
            ("FIGARO_SCHED", "fifo"),
            ("FIGARO_MAP", "diagonal"),
            ("FIGARO_PAGEMAP", "color3"),
            ("FIGARO_LOAD", "poisson"),
            ("FIGARO_WARMUP", "2k"),
        ] {
            let err = parsed(&[(var, bad)]).unwrap_err();
            assert!(err.contains(var) && err.contains(bad), "{var}={bad}: {err}");
            assert!(err.contains("use"), "{var}: the error must list accepted values: {err}");
        }
    }

    #[test]
    fn long_run_target_scales_with_op_count() {
        let apps = vec![profile_by_name("mcf").unwrap()];
        let sc = Scenario::long_run(
            "long",
            ConfigKind::Base,
            ScenarioWorkload::Apps(apps.clone()),
            1_000_000,
        );
        let expected = (1_000_000.0 * (apps[0].nonmem_per_mem + 1.0)) as u64;
        assert_eq!(sc.target_insts, Some(expected));
    }

    #[test]
    fn scale_env_fallback_prefers_default_when_unset() {
        // Do not set the env var here (tests share the process); only
        // exercise the parse-side default.
        assert_eq!(Scale::from_env_or(Scale::Tiny).label(), {
            match std::env::var("FIGARO_SCALE").unwrap_or_default().to_lowercase().as_str() {
                "small" => "small",
                "full" => "full",
                _ => "tiny",
            }
        });
    }
}

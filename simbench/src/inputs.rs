//! The four workloads and the inputs each one generates from `--seed`.
//!
//! The seed only chooses inputs: the trace-generator seeds and the
//! sweep's app subset. Everything the simulator receives is built here,
//! and the simulator itself is configured with every environment-driven
//! knob pinned in code (see [`pinned_config`]).

use figaro_sim::{ConfigKind, Kernel, MapKind, PageMapKind, SchedPolicyKind, SystemConfig};
use figaro_workloads::{
    app_profiles, eight_core_mixes, profile_by_name, AppProfile, MixCategory, TraceGenerator,
    TraceSource,
};

/// Per-core instruction target of one `mix8_figcache` repetition.
const MIX_INSTS: u64 = 250_000;
/// Per-core instruction target of one `sat1ch_base` repetition.
const SAT_INSTS: u64 = 500_000;
/// Instruction target of one `single_light` repetition.
const LIGHT_INSTS: u64 = 4_000_000;
/// Applications of each intensity class in one `fig7_sweep` grid.
const SWEEP_APPS_PER_CLASS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 cores, 4 channels, FIGCache-Fast, a 100%-intensive Fig. 8 mix.
    Mix8FigCache,
    /// 8 copies of write-heavy `lbm` on 1 channel, Base.
    Sat1chBase,
    /// 1 core, 1 channel, Base, the non-intensive `gcc`.
    SingleLight,
    /// `Runner::run_single_matrix` over Table 2 apps × Fig. 7 configs.
    Fig7Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Mix8FigCache, Workload::Sat1chBase, Workload::SingleLight, Workload::Fig7Sweep];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix8FigCache => "mix8_figcache",
            Workload::Sat1chBase => "sat1ch_base",
            Workload::SingleLight => "single_light",
            Workload::Fig7Sweep => "fig7_sweep",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny, well-mixed stream for turning one seed into many.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A [`SystemConfig::paper`] system with the kernel, scheduler, address
/// mapping, page placement and worker threads fixed in code, so no
/// environment variable can change the program being timed.
#[must_use]
pub fn pinned_config(cores: usize, kind: ConfigKind) -> SystemConfig {
    SystemConfig { kernel: Kernel::Event, ..SystemConfig::paper(cores, kind) }
        .with_sched(SchedPolicyKind::FrFcfs)
        .with_mapping(MapKind::default())
        .with_page_map(PageMapKind::Identity)
        .with_threads(1)
}

/// One closed-loop system run: every core stalls on its own MSHR-limited
/// loads. Modelled caches start cold on every repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The pinned system configuration.
    pub cfg: SystemConfig,
    /// One application per core.
    pub apps: Vec<AppProfile>,
    /// One trace-generator seed per core.
    pub seeds: Vec<u64>,
    /// Retired-instruction target per core.
    pub targets: Vec<u64>,
    /// What the seed picked, for the provenance line.
    pub picked: String,
}

impl SystemSpec {
    /// Fresh streaming trace sources, one per core.
    #[must_use]
    pub fn sources(&self) -> Vec<Box<dyn TraceSource>> {
        self.apps
            .iter()
            .zip(&self.seeds)
            .map(|(p, &s)| Box::new(TraceGenerator::new(p, s)) as Box<dyn TraceSource>)
            .collect()
    }

    /// The run's cycle cap (the runner's own 400 cycles per instruction).
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.targets.iter().max().copied().unwrap_or(1) * 400
    }

    /// The same system with every target divided by `div` (the prefix the
    /// reference-kernel check runs).
    #[must_use]
    pub fn prefix(&self, div: u64) -> Self {
        Self { targets: self.targets.iter().map(|t| (t / div).max(1)).collect(), ..self.clone() }
    }
}

/// A `Runner::run_single_matrix` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Grid rows.
    pub apps: Vec<AppProfile>,
    /// Grid columns.
    pub kinds: Vec<ConfigKind>,
}

impl SweepSpec {
    /// Grid points.
    #[must_use]
    pub fn points(&self) -> usize {
        self.apps.len() * self.kinds.len()
    }
}

/// A workload's generated inputs (built once per invocation, so the
/// variants' size difference costs nothing).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A single system run per repetition.
    System(SystemSpec),
    /// A sweep grid per repetition.
    Sweep(SweepSpec),
}

fn profile(name: &str) -> AppProfile {
    profile_by_name(name).unwrap_or_else(|| panic!("Table 2 has no `{name}`"))
}

/// Builds `workload`'s inputs from `seed`.
#[must_use]
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = SeedStream::new(seed);
    match workload {
        Workload::Mix8FigCache => {
            // The first 100%-intensive mix, always: the five differ by ~15%
            // in speed, which would turn the seed into a workload switch.
            let mix = eight_core_mixes()
                .into_iter()
                .find(|m| m.category == MixCategory::Intensive100)
                .expect("Fig. 8 has 100%-intensive mixes");
            let seeds = (0..mix.apps.len()).map(|_| rng.next_u64()).collect();
            Inputs::System(SystemSpec {
                cfg: pinned_config(8, ConfigKind::FigCacheFast),
                targets: vec![MIX_INSTS; mix.apps.len()],
                apps: mix.apps,
                seeds,
                picked: mix.name,
            })
        }
        Workload::Sat1chBase => Inputs::System(SystemSpec {
            cfg: pinned_config(8, ConfigKind::Base).with_channels(1),
            apps: vec![profile("lbm"); 8],
            seeds: (0..8).map(|_| rng.next_u64()).collect(),
            targets: vec![SAT_INSTS; 8],
            picked: "8x lbm".to_string(),
        }),
        Workload::SingleLight => Inputs::System(SystemSpec {
            cfg: pinned_config(1, ConfigKind::Base),
            apps: vec![profile("gcc")],
            seeds: vec![rng.next_u64()],
            targets: vec![LIGHT_INSTS],
            picked: "gcc".to_string(),
        }),
        Workload::Fig7Sweep => {
            // Equal numbers from each intensity class, so every seed's grid
            // has the same balance of slow and fast points.
            let mut apps = Vec::new();
            for intensive in [true, false] {
                let mut pool: Vec<AppProfile> = app_profiles()
                    .into_iter()
                    .filter(|a| a.memory_intensive == intensive)
                    .collect();
                for _ in 0..SWEEP_APPS_PER_CLASS {
                    apps.push(pool.remove(rng.below(pool.len())));
                }
            }
            Inputs::Sweep(SweepSpec { apps, kinds: ConfigKind::figure78_set() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(inputs: &Inputs, n: usize) -> Vec<figaro_workloads::TraceOp> {
        let Inputs::System(spec) = inputs else { return Vec::new() };
        let mut out = Vec::new();
        for mut s in spec.sources() {
            out.extend((0..n).map(|_| s.next_op()));
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = inputs(w, 7);
            assert_eq!(a, inputs(w, 7), "{}", w.name());
            assert_eq!(first_ops(&a, 256), first_ops(&inputs(w, 7), 256), "{}", w.name());
            let b = inputs(w, 8);
            assert_ne!(a, b, "{}", w.name());
            if matches!(a, Inputs::System(_)) {
                assert_ne!(first_ops(&a, 256), first_ops(&b, 256), "{}", w.name());
            }
        }
    }

    #[test]
    fn sweep_grids_keep_their_class_balance() {
        for seed in 0..20 {
            let Inputs::Sweep(s) = inputs(Workload::Fig7Sweep, seed) else { panic!() };
            assert_eq!(s.points(), 2 * SWEEP_APPS_PER_CLASS * 5);
            let intensive = s.apps.iter().filter(|a| a.memory_intensive).count();
            assert_eq!(intensive, SWEEP_APPS_PER_CLASS);
            let mut names: Vec<_> = s.apps.iter().map(|a| a.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), s.apps.len(), "apps are drawn without replacement");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

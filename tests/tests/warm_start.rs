//! Warm-start through the [`Runner`]: a warmed scenario run must be
//! bit-identical to a cold uninterrupted run (the FGSN resume
//! guarantee, exercised end to end through `run_scenario`), the warm
//! snapshot must be written once and reused by every run sharing the
//! warm prefix — including other kernels — a stale snapshot must be
//! re-simulated and replaced rather than restored, and warmed results must
//! key separately in the result cache so canonical entries stay cold.

use std::path::{Path, PathBuf};

use figaro_sim::{snapshot, ConfigKind, Kernel, Runner, Scale, Scenario, ScenarioWorkload};
use figaro_workloads::profile_by_name;

const WARM_CYCLES: u64 = 2_000;

fn scenario_of(kind: ConfigKind) -> Scenario {
    Scenario::new(
        "warmstart",
        kind,
        ScenarioWorkload::Apps(vec![
            profile_by_name("mcf").unwrap(),
            profile_by_name("lbm").unwrap(),
        ]),
    )
    .with_target_insts(12_000)
}

fn scenario() -> Scenario {
    scenario_of(ConfigKind::FigCacheFast)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("figaro-warm-{tag}-{}", std::process::id()))
}

fn fgsn_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir).map_or_else(
        |_| Vec::new(),
        |rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "fgsn"))
                .collect()
        },
    )
}

fn fgsn_count(dir: &Path) -> usize {
    fgsn_files(dir).len()
}

#[test]
fn warm_run_matches_cold_run_bit_for_bit() {
    let snaps = tmp_dir("eq");
    let _ = std::fs::remove_dir_all(&snaps);

    let cold = Runner::uncached(Scale::Tiny).run_scenario(&scenario());
    let warm = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .run_scenario(&scenario().with_warmup(WARM_CYCLES));
    assert_eq!(warm, cold, "resuming from the warm snapshot diverged from the cold run");
    assert_eq!(fgsn_count(&snaps), 1, "warmup must publish exactly one snapshot");

    // The reference kernel shares the warm prefix: it must branch from
    // the existing snapshot (no second file) and still match its own
    // cold run — which is bit-identical to the event kernel's.
    let reference = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .with_kernel(Kernel::Reference)
        .run_scenario(&scenario().with_warmup(WARM_CYCLES));
    assert_eq!(reference, cold, "reference-kernel warm run diverged");
    assert_eq!(fgsn_count(&snaps), 1, "a shared warm prefix must reuse the snapshot");

    // A different warm length is a different prefix: new snapshot.
    let longer = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .run_scenario(&scenario().with_warmup(WARM_CYCLES * 2));
    assert_eq!(longer, cold, "longer warmup still resumes bit-identically");
    assert_eq!(fgsn_count(&snaps), 2, "a different warm length is its own snapshot");

    let _ = std::fs::remove_dir_all(&snaps);
}

/// A snapshot whose config hash no longer matches — what every FGSN file
/// written before a change to `SystemConfig`'s fields looks like — must
/// not restore: the runner re-simulates the warm prefix, matches the cold
/// run, and overwrites the stale file with a fresh snapshot.
#[test]
fn stale_snapshot_is_resimulated_and_replaced() {
    let snaps = tmp_dir("stale");
    let other = tmp_dir("stale-other");
    let _ = std::fs::remove_dir_all(&snaps);
    let _ = std::fs::remove_dir_all(&other);

    let cold = Runner::uncached(Scale::Tiny).run_scenario(&scenario());
    let runner = Runner::uncached(Scale::Tiny).with_snapshot_dir(snaps.clone());
    let _ = runner.run_scenario(&scenario().with_warmup(WARM_CYCLES));
    let [path] = fgsn_files(&snaps).try_into().expect("one warm snapshot");
    let fresh = std::fs::read(&path).expect("read fresh snapshot");

    // The same scenario under another mechanism writes a well-formed
    // snapshot with a different config hash; plant it at the warm key.
    let _ = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(other.clone())
        .run_scenario(&scenario_of(ConfigKind::Base).with_warmup(WARM_CYCLES));
    let [stale_path] = fgsn_files(&other).try_into().expect("one stale snapshot");
    let stale = std::fs::read(&stale_path).expect("read stale snapshot");
    let hash = |bytes: &[u8]| snapshot::read_header(&mut &bytes[..]).expect("header").config_hash;
    assert_ne!(hash(&stale), hash(&fresh), "the planted snapshot must be stale");
    std::fs::write(&path, &stale).expect("plant stale snapshot");

    let rerun = runner.run_scenario(&scenario().with_warmup(WARM_CYCLES));
    assert_eq!(rerun, cold, "a stale snapshot leaked into the run");
    // The runner writes a snapshot only after simulating the warm prefix
    // itself, so finding the fresh bytes again proves both the
    // re-simulation and the rewrite.
    assert_eq!(fgsn_files(&snaps), vec![path.clone()]);
    assert_eq!(std::fs::read(&path).expect("reread snapshot"), fresh, "stale file not replaced");

    let _ = std::fs::remove_dir_all(&snaps);
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn warm_and_sampled_runs_key_separately_in_result_cache() {
    let cache = tmp_dir("keys");
    let _ = std::fs::remove_dir_all(&cache);

    // One cold, one warmed, one sampled run of the same scenario: three
    // distinct cache entries, so approximate or warmed results can never
    // shadow the canonical cold entry.
    let runner = Runner::with_cache_dir(Scale::Tiny, cache.clone());
    let cold = runner.run_scenario(&scenario());
    let warm = runner.run_scenario(&scenario().with_warmup(WARM_CYCLES));
    let sampled = Runner::with_cache_dir(Scale::Tiny, cache.clone())
        .with_kernel(Kernel::Sampled { window: 4_000, skip: 8_000 })
        .run_scenario(&scenario());
    assert_eq!(warm, cold);

    let names: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 3, "cold, warm and sampled must key separately: {names:?}");
    assert_eq!(names.iter().filter(|n| n.contains("-warm-2000")).count(), 1, "{names:?}");
    assert_eq!(names.iter().filter(|n| n.contains("-sampled-4000_8000")).count(), 1, "{names:?}");

    // The warm snapshot defaulted to <cache_dir>/snapshots.
    assert_eq!(fgsn_count(&cache.join("snapshots")), 1);

    // Sampled mode is approximate: it must have produced a *different*
    // entry, not a copy of the canonical numbers under another name.
    assert!(sampled.cpu_cycles > 0 && sampled.ipc.iter().all(|i| i.is_finite()));

    let _ = std::fs::remove_dir_all(&cache);
}

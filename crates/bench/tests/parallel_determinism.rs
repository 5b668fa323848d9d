//! The determinism contract of the parallel sweep executor: reports,
//! printed tables, and observability artifacts are byte-identical at
//! any `MCM_JOBS` value, and bit-exact against the pre-executor serial
//! path ([`Simulator::run`], whose cycle counts the golden test pins).
//!
//! In-process tests pass explicit job counts (`Memo::warm_with_jobs`,
//! a [`RunEnv`]'s `jobs`) instead of setting `MCM_JOBS`, which would
//! race across test threads; the subprocess tests exercise the
//! environment plumbing end to end.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use mcm_bench::env::RunEnv;
use mcm_bench::harness::Memo;
use mcm_bench::resilience;
use mcm_gpu::{RunReport, Simulator, SystemConfig};
use mcm_workloads::{suite, WorkloadSpec};

/// The parallel path reproduces the serial one bit for bit on the
/// golden trio at 2 % scale, whose cycle counts
/// `tests/golden_determinism.rs` pins for [`Simulator::run`].
#[test]
fn parallel_grid_reproduces_the_golden_serial_counts() {
    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    let specs: Vec<WorkloadSpec> = ["Stream", "Hotspot", "DWT"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = specs
        .iter()
        .flat_map(|w| [(&baseline, w), (&optimized, w)])
        .collect();
    let mut memo = Memo::new(RunEnv::at_scale(0.02));
    memo.warm_with_jobs(8, &pairs);
    for (cfg, spec) in pairs {
        assert_eq!(
            *memo.get(cfg, spec),
            Simulator::run(cfg, &spec.scaled(0.02)),
            "{} on {} diverged from the serial run",
            spec.name,
            cfg.name
        );
    }
}

#[test]
fn reports_are_job_count_invariant() {
    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    let specs: Vec<WorkloadSpec> = ["Stream", "Hotspot", "DWT", "CFD", "CoMD"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = specs
        .iter()
        .flat_map(|w| [(&baseline, w), (&optimized, w)])
        .collect();
    let mut results: Vec<Vec<RunReport>> = Vec::new();
    for jobs in [1, 2, 8] {
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
        memo.warm_with_jobs(jobs, &pairs);
        results.push(pairs.iter().map(|(c, w)| memo.get(c, w).clone()).collect());
    }
    assert_eq!(results[0], results[1], "jobs=1 vs jobs=2 diverged");
    assert_eq!(results[0], results[2], "jobs=1 vs jobs=8 diverged");
}

#[test]
fn resilience_sweep_is_job_count_invariant_including_renders() {
    let [serial, parallel] = [1, 8].map(|jobs| {
        resilience::sweep(&RunEnv {
            jobs,
            fault_seed: 42,
            ..RunEnv::at_scale(0.01)
        })
    });
    assert_eq!(resilience::to_csv(&serial), resilience::to_csv(&parallel));
    assert_eq!(resilience::render(&serial), resilience::render(&parallel));
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcm-parallel-determinism-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every regular file under `dir` (recursively), keyed by its path
/// relative to `dir`, with full contents.
fn snapshot_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read artifact dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("path under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read artifact"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Runs `exe` in a fresh scratch directory under the given `MCM_JOBS`,
/// with trace/metrics artifacts enabled, and returns (stdout, files).
fn run_with_jobs(
    tag: &str,
    exe: &str,
    jobs: &str,
    extra_env: &[(&str, &str)],
) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(&format!("{tag}-jobs{jobs}"));
    let mut cmd = Command::new(exe);
    cmd.current_dir(&dir)
        .env("MCM_SCALE", "0.01")
        .env("MCM_JOBS", jobs)
        .env("MCM_TRACE", &dir)
        .env("MCM_METRICS", &dir);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {tag}: {e}"));
    assert!(
        out.status.success(),
        "{tag} with MCM_JOBS={jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = snapshot_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (out.stdout, files)
}

/// End-to-end: the `fig09_distributed_sched` bin (stdout table plus one
/// trace JSON and one metrics CSV per simulated pair) is byte-identical
/// between `MCM_JOBS=1` and `MCM_JOBS=8`.
#[test]
fn fig09_bin_output_and_artifacts_are_job_count_invariant() {
    let exe = env!("CARGO_BIN_EXE_fig09_distributed_sched");
    let (stdout_1, files_1) = run_with_jobs("fig09", exe, "1", &[]);
    let (stdout_8, files_8) = run_with_jobs("fig09", exe, "8", &[]);
    assert_eq!(
        stdout_1, stdout_8,
        "fig09 stdout differs between MCM_JOBS=1 and MCM_JOBS=8"
    );
    assert!(!files_1.is_empty(), "fig09 wrote no artifacts");
    assert_eq!(
        files_1.keys().collect::<Vec<_>>(),
        files_8.keys().collect::<Vec<_>>(),
        "artifact file sets differ across job counts"
    );
    for (name, bytes) in &files_1 {
        assert_eq!(
            bytes, &files_8[name],
            "artifact {name} differs between MCM_JOBS=1 and MCM_JOBS=8"
        );
    }
}

/// End-to-end: the `resilience` bin's degradation table, CSV, and
/// per-scenario artifacts are byte-identical across job counts.
#[test]
fn resilience_bin_output_and_artifacts_are_job_count_invariant() {
    let exe = env!("CARGO_BIN_EXE_resilience");
    let seeded = [("MCM_FAULT_SEED", "42")];
    let (stdout_1, files_1) = run_with_jobs("resilience", exe, "1", &seeded);
    let (stdout_8, files_8) = run_with_jobs("resilience", exe, "8", &seeded);
    assert_eq!(
        stdout_1, stdout_8,
        "resilience stdout differs between MCM_JOBS=1 and MCM_JOBS=8"
    );
    // The sweep runs 3 workloads x 5 scenarios, each under its own
    // stem: 15 traces + 15 metrics CSVs + results/resilience.csv.
    assert!(
        files_1.len() > 15,
        "expected per-scenario artifacts, found {:?}",
        files_1.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        files_1.keys().collect::<Vec<_>>(),
        files_8.keys().collect::<Vec<_>>(),
        "artifact file sets differ across job counts"
    );
    for (name, bytes) in &files_1 {
        assert_eq!(
            bytes, &files_8[name],
            "artifact {name} differs between MCM_JOBS=1 and MCM_JOBS=8"
        );
    }
}

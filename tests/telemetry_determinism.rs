//! Telemetry is strictly out-of-band: enabling it never perturbs
//! simulated behaviour, and the counters themselves honour their
//! declared reproducibility class.
//!
//! The registry is a process-wide singleton shared by every `#[test]`
//! in this binary, and its counters are cumulative — so each test
//! takes *deltas* around the work it drives and the whole file runs
//! under one mutex. (Byte-identity of artifacts with `MCM_TELEMETRY`
//! on vs off is the other half of this contract, enforced end-to-end
//! in `scripts/tier1.sh`.)

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use mcm::exec::pool::{run_grid, run_grid_supervised, SupervisedGrid};
use mcm::fault::{FaultConfig, SeededFaultPlan};
use mcm::gpu::{RunReport, Simulator, SystemConfig};
use mcm::probe::NullProbe;
use mcm::telemetry::json::Json;
use mcm::telemetry::{global, Snapshot, Value};
use mcm::workloads::{suite, WorkloadSpec};

/// Serializes every test in this file: deltas of a shared cumulative
/// registry are only attributable when runs don't interleave.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn spec() -> WorkloadSpec {
    suite::by_name("Stream")
        .expect("suite workload")
        .scaled(0.02)
}

/// Runs `f` and returns its result plus the registry delta it caused.
fn delta_of<R, F: FnOnce() -> R>(f: F) -> (R, Snapshot) {
    let before = global().snapshot();
    let result = f();
    (result, global().snapshot().delta_since(&before))
}

/// A two-item sweep of faulted runs through the grid executor at
/// `jobs` workers: the fault layer and the executor both report.
fn faulted_grid(jobs: usize) -> Vec<RunReport> {
    let cfgs = [SystemConfig::baseline_mcm(), SystemConfig::optimized_mcm()];
    run_grid(&cfgs, jobs, |_, cfg| {
        let mut plan = SeededFaultPlan::new(FaultConfig::with_rate(7, 0.02));
        Simulator::run_faulted(cfg, &spec(), &mut NullProbe, &mut plan)
    })
}

/// An eight-item supervised grid at `jobs` workers whose item 5
/// panics on every attempt, with two retries.
fn panicking_grid(jobs: usize) -> SupervisedGrid<u64> {
    let items: Vec<u64> = (0..8).collect();
    run_grid_supervised(&items, jobs, 2, |_, &x| {
        assert!(x != 5, "item 5 always panics");
        x * x
    })
}

fn count(section: &BTreeMap<String, Value>, name: &str) -> u64 {
    match section.get(name) {
        Some(Value::Counter(n)) => *n,
        other => panic!("{name} missing or not a counter: {other:?}"),
    }
}

#[test]
fn identical_runs_produce_identical_deterministic_and_per_config_deltas() {
    let _guard = registry_lock();
    let (reports_a, delta_a) = delta_of(|| faulted_grid(2));
    let (reports_b, delta_b) = delta_of(|| faulted_grid(2));
    assert_eq!(reports_a, reports_b, "reruns must be bit-identical");
    assert_eq!(
        delta_a.deterministic, delta_b.deterministic,
        "Deterministic-class deltas must reproduce across identical runs"
    );
    assert_eq!(
        delta_a.per_config, delta_b.per_config,
        "PerConfig-class deltas must reproduce at fixed knob settings"
    );
    // The runs actually exercised the instrumented layers: fault
    // injection counters and executor accounting must be non-zero.
    match delta_a.deterministic.get("fault.link.errors_injected") {
        Some(Value::Counter(n)) => assert!(
            *n > 0,
            "rate 0.02 over a full run must inject at least one link error"
        ),
        other => panic!("fault.link.errors_injected missing: {other:?}"),
    }
    assert_eq!(count(&delta_a.per_config, "exec.pools"), 1);
}

#[test]
fn deterministic_class_survives_job_count_changes() {
    let _guard = registry_lock();
    let (reports1, delta1) = delta_of(|| faulted_grid(1));
    let (reports2, delta2) = delta_of(|| faulted_grid(2));
    // The job count is an execution strategy: simulated results and
    // every Deterministic-class counter are invariant under it...
    assert_eq!(reports1, reports2, "job count must not change the reports");
    assert_eq!(
        delta1.deterministic, delta2.deterministic,
        "Deterministic-class deltas must be job-count invariant"
    );
    // ...while PerConfig counters legitimately move with it: one job
    // runs in the caller's thread, two start a pool. That is exactly
    // why exec.pools is classed PerConfig rather than Deterministic.
    assert_eq!(count(&delta1.per_config, "exec.pools"), 0);
    assert_eq!(count(&delta2.per_config, "exec.pools"), 1);
}

#[test]
fn supervised_panic_counts_survive_job_count_changes() {
    let _guard = registry_lock();
    let (grid1, delta1) = delta_of(|| panicking_grid(1));
    let (grid2, delta2) = delta_of(|| panicking_grid(2));
    assert_eq!(grid1.results, grid2.results);
    assert_eq!(grid1.failures, grid2.failures);
    // Every item runs at any job count, so the failing item makes the
    // same three attempts wherever it lands: one panic per attempt, two
    // retries, one quarantine.
    for (name, want) in [
        ("exec.task_panics", 3),
        ("exec.retries", 2),
        ("exec.quarantined", 1),
    ] {
        assert_eq!(count(&delta1.deterministic, name), want, "{name} at jobs 1");
        assert_eq!(count(&delta2.deterministic, name), want, "{name} at jobs 2");
    }
    assert_eq!(
        delta1.deterministic, delta2.deterministic,
        "Deterministic-class deltas must be job-count invariant"
    );
}

#[test]
fn telemetry_does_not_perturb_the_serial_engine() {
    let _guard = registry_lock();
    let cfg = SystemConfig::baseline_mcm();
    let spec = spec();
    // A run before any snapshot-taking, one surrounded by snapshots,
    // and one after: all bit-identical. The registry is observation
    // only.
    let untouched = Simulator::run(&cfg, &spec);
    let (observed, _delta) = delta_of(|| Simulator::run(&cfg, &spec));
    let after = Simulator::run(&cfg, &spec);
    assert_eq!(untouched, observed);
    assert_eq!(untouched, after);
}

#[test]
fn snapshot_json_round_trips_with_volatile_quarantined() {
    let _guard = registry_lock();
    let (_reports, delta) = delta_of(|| faulted_grid(2));
    let text = delta.to_json("roundtrip");
    let doc = Json::parse(&text).expect("snapshot JSON must parse with the in-repo reader");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(mcm::telemetry::snapshot::SCHEMA)
    );
    assert_eq!(doc.get("label").and_then(Json::as_str), Some("roundtrip"));
    for section in ["deterministic", "per_config", "volatile_not_reproducible"] {
        assert!(
            doc.get(section).and_then(Json::as_obj).is_some(),
            "snapshot must carry a {section:?} object"
        );
    }
    // Wall-clock style metrics live ONLY in the quarantined section —
    // nothing volatile may leak into the reproducible ones.
    let volatile = doc
        .get("volatile_not_reproducible")
        .and_then(Json::as_obj)
        .expect("volatile section");
    assert!(
        volatile.contains_key("exec.busy_ns"),
        "worker busy time is wall-clock and must be quarantined"
    );
    for section in ["deterministic", "per_config"] {
        let obj = doc.get(section).and_then(Json::as_obj).expect("section");
        for key in obj.keys() {
            assert!(
                !key.ends_with("_ns") && !key.contains("stall"),
                "{key:?} looks wall-clock-ish but sits in reproducible section {section:?}"
            );
        }
    }

    // CSV mirror: same metrics, stable header.
    let csv = delta.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("section,metric,kind,field,value"));
    assert!(
        csv.lines()
            .any(|l| l.starts_with("per_config,exec.pools,counter,")),
        "CSV must carry the executor's pool counter:\n{csv}"
    );
}

//! Observability determinism: the probe layer is a passive observer.
//!
//! Two guarantees are pinned here:
//!
//! 1. Attaching probes never perturbs the simulation — a probed run
//!    reports exactly the same cycles as an unprobed run.
//! 2. The sink artifacts themselves are deterministic — two probed
//!    runs of the same (workload, configuration, scale) produce
//!    byte-identical Chrome-trace JSON and metrics CSV.
//!
//! Plus the stall profiler's accounting identity: its phase buckets
//! tile warp lifetimes exactly, so they sum to total warp-cycles.

use std::collections::BTreeMap;

use mcm::engine::rng::StableHasher;
use mcm::fault::{DeadModule, FaultConfig, SeededFaultPlan};
use mcm::gpu::{RunReport, Simulator, SystemConfig};
use mcm::probe::{ChromeTraceProbe, MetricsProbe, StallProfile, WarpPhase};
use mcm::workloads::suite;

fn probed_run(cfg: &SystemConfig, workload: &str) -> (RunReport, String, String, StallProfile) {
    let spec = suite::by_name(workload)
        .expect("suite workload")
        .scaled(0.02);
    let mut probe = (
        ChromeTraceProbe::new(),
        (
            MetricsProbe::new(1024, cfg.topology.sms_per_module),
            StallProfile::new(),
        ),
    );
    let report = Simulator::run_probed(cfg, &spec, &mut probe);
    let (mut trace, (metrics, stalls)) = probe;
    (report, trace.finish(), metrics.to_csv(), stalls)
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    for cfg in [SystemConfig::baseline_mcm(), SystemConfig::optimized_mcm()] {
        for workload in ["Stream", "Hotspot"] {
            let spec = suite::by_name(workload)
                .expect("suite workload")
                .scaled(0.02);
            let plain = Simulator::run(&cfg, &spec);
            let (probed, _, _, _) = probed_run(&cfg, workload);
            assert_eq!(
                plain, probed,
                "{workload} on {}: probed run diverged from unprobed",
                cfg.name
            );
        }
    }
}

#[test]
fn artifacts_are_byte_identical_across_runs() {
    let cfg = SystemConfig::optimized_mcm();
    let (_, trace_a, csv_a, _) = probed_run(&cfg, "Stream");
    let (_, trace_b, csv_b, _) = probed_run(&cfg, "Stream");
    assert!(!trace_a.is_empty() && !csv_a.is_empty());
    assert_eq!(trace_a, trace_b, "Chrome trace JSON differs between runs");
    assert_eq!(csv_a, csv_b, "metrics CSV differs between runs");
}

/// An inactive (`ACTIVE = false`) probe costs nothing in the hot loop,
/// yet still receives every kernel boundary callback, exactly once, in
/// order — and leaves the report untouched.
#[test]
fn inactive_probes_receive_every_kernel_boundary() {
    use mcm::engine::Cycle;
    use mcm::probe::Probe;

    #[derive(Default)]
    struct KernelLog {
        begins: Vec<u32>,
        ends: Vec<u32>,
    }
    impl Probe for KernelLog {
        const ACTIVE: bool = false;
        fn kernel_begin(&mut self, kernel: u32, _now: Cycle) {
            self.begins.push(kernel);
        }
        fn kernel_end(&mut self, kernel: u32, _now: Cycle) {
            self.ends.push(kernel);
        }
    }

    let cfg = SystemConfig::optimized_mcm();
    let mut spec = suite::by_name("CoMD").expect("suite workload").scaled(0.02);
    spec.kernel_iters = 3;
    let plain = Simulator::run(&cfg, &spec);
    let mut probe = KernelLog::default();
    let report = Simulator::run_probed(&cfg, &spec, &mut probe);
    assert_eq!(report, plain, "an inactive probe perturbed the run");
    assert_eq!(probe.begins, vec![0, 1, 2]);
    assert_eq!(probe.ends, vec![0, 1, 2]);
}

#[test]
fn stall_buckets_sum_to_warp_lifetimes() {
    let cfg = SystemConfig::baseline_mcm();
    let (_, _, _, stalls) = probed_run(&cfg, "DWT");
    assert_eq!(stalls.warps_spawned(), stalls.warps_retired());
    assert!(stalls.warps_retired() > 0);
    let by_phase: u64 = WarpPhase::ALL.iter().map(|&p| stalls.cycles(p)).sum();
    assert_eq!(by_phase, stalls.total_warp_cycles());
    assert!(stalls.total_warp_cycles() > 0);
    // Warps do real work, so attribution can't be all-drain.
    assert!(stalls.cycles(WarpPhase::Compute) > 0);
}

fn digest(text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(text);
    h.finish()
}

/// Trace and metrics bytes pinned across builds, under a plan that
/// fires all four fault kinds. `artifacts_are_byte_identical_across_runs`
/// compares two runs of one build; this pins what the hooks report, so
/// a refactor of the hook plumbing that dropped, reordered or duplicated
/// a report fails here.
#[test]
fn faulted_artifacts_are_pinned() {
    let cfg = SystemConfig::baseline_mcm();
    let mut spec = suite::by_name("DWT").expect("suite workload").scaled(0.02);
    spec.kernel_iters = spec.kernel_iters.max(2);
    let mut plan = SeededFaultPlan::new(FaultConfig {
        dead_module: Some(DeadModule {
            module: 2,
            from_kernel: 1,
        }),
        dram_throttle_rate: 0.5,
        dram_window_cycles: 512,
        ..FaultConfig::with_rate(7, 0.01)
    });
    let mut probe = (
        ChromeTraceProbe::new(),
        MetricsProbe::new(1024, cfg.topology.sms_per_module),
    );
    let report = Simulator::run_faulted(&cfg, &spec, &mut probe, &mut plan);
    let (mut trace, metrics) = probe;
    assert_eq!(report.cycles.as_u64(), 2981);

    let mut faults = BTreeMap::<String, u64>::new();
    for row in metrics.rows() {
        if row.metric == "fault_count" {
            *faults.entry(row.unit).or_default() += row.value.parse::<u64>().expect("count");
        }
    }
    let want = [
        ("dram-throttle", 690),
        ("link-retry", 69),
        ("module-disabled", 2),
        ("mshr-poison", 35),
    ];
    assert_eq!(faults, want.map(|(kind, n)| (kind.to_string(), n)).into());

    let json = trace.finish();
    let csv = metrics.to_csv();
    assert_eq!(
        (json.len(), digest(&json)),
        (3_063_229, 0xb502_5c9a_b36e_83c5),
        "trace"
    );
    assert_eq!(
        (csv.len(), digest(&csv)),
        (18_124, 0x20eb_65b4_8084_6f86),
        "metrics CSV"
    );
}

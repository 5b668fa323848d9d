//! Fault-layer soundness: the inactive plan is bit-exact against the
//! plain simulator, seeded schedules are reproducible, and degraded
//! machines finish every instruction — faults cost cycles, never
//! correctness.

use mcm::fault::{DeadModule, FaultConfig, NullFaultPlan, SeededFaultPlan};
use mcm::gpu::{RunReport, Simulator, SystemConfig};
use mcm::probe::NullProbe;
use mcm::workloads::{suite, WorkloadSpec};

/// The golden-determinism trio: one workload per category.
const TRIO: [&str; 3] = ["Stream", "Hotspot", "DWT"];

fn golden_spec(name: &str) -> WorkloadSpec {
    suite::by_name(name).expect("suite workload").scaled(0.02)
}

fn faulted(cfg: &SystemConfig, spec: &WorkloadSpec, config: FaultConfig) -> RunReport {
    let mut plan = SeededFaultPlan::new(config);
    Simulator::run_faulted(cfg, spec, &mut NullProbe, &mut plan)
}

/// Asserts the run executed every static instruction, within the
/// existing MSHR-replay inflation bound.
fn assert_instructions(report: &RunReport, spec: &WorkloadSpec) {
    let budget = spec.approx_instructions();
    assert!(
        report.instructions >= budget,
        "{}: lost instructions: {} < {budget}",
        report.workload,
        report.instructions
    );
    assert!(
        report.instructions <= budget * 2,
        "{}: replay explosion: {} for a budget of {budget}",
        report.workload,
        report.instructions
    );
}

/// The inactive plan monomorphizes to the plain simulator: every golden
/// configuration reproduces its exact report, field for field.
#[test]
fn null_plan_reproduces_golden_runs_exactly() {
    for cfg in [SystemConfig::baseline_mcm(), SystemConfig::optimized_mcm()] {
        for name in TRIO {
            let spec = golden_spec(name);
            let plain = Simulator::run(&cfg, &spec);
            let nulled = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut NullFaultPlan);
            assert_eq!(plain, nulled, "{name} on {}", cfg.name);
        }
    }
}

/// An *active* seeded plan with all rates at zero takes the faulted
/// code paths yet must still match the plain run bit-exactly.
#[test]
fn zero_rate_plan_reproduces_golden_runs_exactly() {
    let cfg = SystemConfig::optimized_mcm();
    for name in TRIO {
        let spec = golden_spec(name);
        let plain = Simulator::run(&cfg, &spec);
        let zeroed = faulted(&cfg, &spec, FaultConfig::with_rate(0xDEAD_BEEF, 0.0));
        assert_eq!(plain, zeroed, "{name}");
    }
}

/// The same seed and rate yield identical degraded runs; a different
/// seed is allowed to (and here does) diverge on at least one workload.
#[test]
fn seeded_schedules_are_reproducible() {
    let cfg = SystemConfig::optimized_mcm();
    let mut any_divergence = false;
    for name in TRIO {
        let spec = golden_spec(name);
        let a = faulted(&cfg, &spec, FaultConfig::with_rate(7, 0.01));
        let b = faulted(&cfg, &spec, FaultConfig::with_rate(7, 0.01));
        assert_eq!(a, b, "{name}: same seed must reproduce bit-exactly");
        let c = faulted(&cfg, &spec, FaultConfig::with_rate(8, 0.01));
        any_divergence |= c != a;
    }
    assert!(
        any_divergence,
        "changing the seed changed nothing — the schedule ignores it"
    );
}

/// Transient faults keep the instruction count exact (retries and
/// replays happen below the warp), and on the memory-intensive
/// representative — where link and DRAM service time dominate — they
/// cost cycles. (Cycle monotonicity is *not* asserted for every
/// workload: fault delays perturb warp timing and thereby first-touch
/// placement, and on latency-tolerant workloads that placement luck
/// can outweigh the fault cost.)
#[test]
fn transient_faults_slow_but_conserve_instructions() {
    let cfg = SystemConfig::optimized_mcm();
    for name in TRIO {
        let spec = golden_spec(name);
        let healthy = Simulator::run(&cfg, &spec);
        let noisy = faulted(&cfg, &spec, FaultConfig::with_rate(7, 0.05));
        assert_eq!(
            noisy.instructions, healthy.instructions,
            "{name}: transient faults must not change instruction counts"
        );
        if name == "Stream" {
            assert!(
                noisy.cycles > healthy.cycles,
                "Stream: a 5% fault rate must cost a bandwidth-bound \
                 workload cycles ({} vs {})",
                noisy.cycles,
                healthy.cycles
            );
        }
    }
}

/// Hard single-GPM loss on the optimized (DS + FT) machine: every
/// workload completes with conserved instructions and strictly higher
/// cycles — the surviving modules absorb the dead module's CTAs and
/// its share of SM throughput and first-touch DRAM is gone.
#[test]
fn single_gpm_loss_degrades_gracefully() {
    let cfg = SystemConfig::optimized_mcm();
    for name in TRIO {
        let spec = golden_spec(name);
        let healthy = Simulator::run(&cfg, &spec);
        let lossy = FaultConfig {
            dead_module: Some(DeadModule {
                module: 1,
                from_kernel: 0,
            }),
            ..FaultConfig::default()
        };
        let degraded = faulted(&cfg, &spec, lossy);
        assert_instructions(&degraded, &spec);
        assert!(
            degraded.cycles > healthy.cycles,
            "{name}: losing a GPM must cost cycles ({} vs {})",
            degraded.cycles,
            healthy.cycles
        );
    }
}

/// A GPM dying *between* kernels: kernel 0 runs healthy, later kernels
/// run degraded, and the whole run still conserves instructions.
#[test]
fn mid_run_gpm_loss_completes() {
    let cfg = SystemConfig::optimized_mcm();
    let mut spec = golden_spec("Stream");
    spec.kernel_iters = spec.kernel_iters.max(3);
    let lossy = FaultConfig {
        dead_module: Some(DeadModule {
            module: 2,
            from_kernel: 1,
        }),
        ..FaultConfig::default()
    };
    let degraded = faulted(&cfg, &spec, lossy);
    assert_instructions(&degraded, &spec);
}

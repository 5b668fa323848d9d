//! Degradation-curve sweep: how gracefully the optimized MCM-GPU
//! absorbs runtime faults.
//!
//! For one representative workload per category (§4's taxonomy), the
//! sweep runs the healthy machine, then a ladder of seeded transient
//! fault rates (link CRC errors, DRAM thermal-throttle windows, MSHR
//! fill poisoning, all at the same per-site probability), then a hard
//! single-GPM loss. Every run completes — the fault layer degrades
//! throughput, never correctness — and the output quantifies the cost:
//! cycle slowdown and inter-module (ring) traffic inflation over the
//! healthy run.

use mcm_fault::{DeadModule, FaultConfig, SeededFaultPlan};
use mcm_gpu::{RunReport, SystemConfig};
use mcm_probe::NullProbe;
use mcm_workloads::{suite, WorkloadSpec};

use crate::env::RunEnv;
use crate::harness::{self, Pair, TextTable};

/// The transient fault rates swept, from fault-free to aggressively
/// noisy. Per-site probabilities: each link transfer, DRAM throttle
/// window, and MSHR fill draws independently.
pub const RATES: [f64; 4] = [0.0, 5e-4, 2e-3, 1e-2];

/// The GPM hard-degraded in the loss scenario.
pub const DEAD_GPM: u8 = 1;

/// One representative workload per category (the golden-determinism
/// trio): Stream is memory-intensive, Hotspot compute-intensive, DWT
/// limited-parallelism.
pub fn representatives() -> Vec<WorkloadSpec> {
    ["Stream", "Hotspot", "DWT"]
        .iter()
        .map(|n| suite::by_name(n).expect("representative workload"))
        .collect()
}

/// One measured point of the degradation curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Workload category label.
    pub category: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Scenario label (`healthy`, `transient`, `gpm-loss`).
    pub scenario: &'static str,
    /// The per-site transient fault rate (0 for healthy and gpm-loss).
    pub fault_rate: f64,
    /// The run's report.
    pub report: RunReport,
    /// Cycle slowdown over the healthy run (1.0 for healthy).
    pub slowdown: f64,
    /// Inter-module traffic inflation over the healthy run.
    pub remote_inflation: f64,
}

/// One planned run of the sweep grid: a scaled representative under a
/// fault scenario. The plan is laid out in the serial sweep's order
/// (per workload: healthy, the transient ladder, then gpm-loss), so
/// merging executor results in grid order reproduces the serial output
/// exactly.
#[derive(Debug, Clone)]
struct PlannedRun<'c> {
    pair: Pair<'c>,
    category: &'static str,
    scenario: &'static str,
    fault_rate: f64,
}

impl PlannedRun<'_> {
    /// Executes this planned run with `env`'s sinks and fault seed at
    /// the run's own fault rate. Each scenario writes artifacts under its
    /// own stem, so parallel workers never overwrite each other.
    fn execute(&self, env: &RunEnv) -> RunReport {
        let tag = match self.scenario {
            "transient" => format!("transient-{:e}", self.fault_rate),
            scenario => scenario.to_string(),
        };
        let Pair {
            cfg, spec, stem, ..
        } = &self.pair;
        let stem = format!("{stem}__{tag}");
        if self.scenario != "gpm-loss" {
            let env = RunEnv {
                fault_rate: self.fault_rate,
                ..env.clone()
            };
            return harness::run_with_env(&env, cfg, spec, &mut NullProbe, &stem).0;
        }
        let mut plan = SeededFaultPlan::new(FaultConfig {
            seed: env.fault_seed,
            dead_module: Some(DeadModule {
                module: DEAD_GPM,
                from_kernel: 0,
            }),
            ..FaultConfig::default()
        });
        harness::run_with_sinks(env, cfg, spec, &mut NullProbe, &mut plan, &stem).0
    }
}

/// Runs the full sweep on the optimized MCM-GPU at `env`'s scale and
/// fault seed, executing the independent runs across `env.jobs` worker
/// threads; deterministic for a fixed `(scale, seed)` at any job count.
/// The sweep picks its own fault rates, so `env.fault_rate` and the
/// scripted panic do not apply.
pub fn sweep(env: &RunEnv) -> Vec<CurvePoint> {
    let cfg = SystemConfig::optimized_mcm();
    // Plan the whole grid up front, in the reporting order.
    let mut planned = Vec::new();
    for spec in representatives() {
        let pair = Pair::new(env, &cfg, &spec);
        let category = spec.category.label();
        // RATES leads with 0: the healthy run, then the transient ladder.
        let ladder = RATES.map(|rate| (if rate > 0.0 { "transient" } else { "healthy" }, rate));
        for (scenario, fault_rate) in ladder.into_iter().chain([("gpm-loss", 0.0)]) {
            planned.push(PlannedRun {
                pair: pair.clone(),
                category,
                scenario,
                fault_rate,
            });
        }
    }
    let reports = mcm_exec::pool::run_grid(&planned, env.jobs, |_, run| run.execute(env));
    // Slowdowns are relative to each workload's healthy run, which
    // leads its block of the grid.
    let runs_per_spec = RATES.len() + 1;
    let mut points = Vec::new();
    for (chunk, run_chunk) in reports
        .chunks(runs_per_spec)
        .zip(planned.chunks(runs_per_spec))
    {
        let healthy = &chunk[0];
        let base_cycles = healthy.cycles.as_u64().max(1) as f64;
        let base_ring = healthy.inter_module_bytes.max(1) as f64;
        for (report, run) in chunk.iter().zip(run_chunk) {
            points.push(CurvePoint {
                category: run.category,
                workload: run.pair.spec.name,
                scenario: run.scenario,
                fault_rate: run.fault_rate,
                report: report.clone(),
                slowdown: report.cycles.as_u64() as f64 / base_cycles,
                remote_inflation: report.inter_module_bytes as f64 / base_ring,
            });
        }
    }
    points
}

/// Renders the sweep as an aligned text table.
pub fn render(points: &[CurvePoint]) -> String {
    let mut table = TextTable::new(vec![
        "category",
        "workload",
        "scenario",
        "rate",
        "cycles",
        "slowdown",
        "ring-bytes",
        "ring-infl",
    ]);
    for p in points {
        table.row(vec![
            p.category.to_string(),
            p.workload.to_string(),
            p.scenario.to_string(),
            format!("{:.0e}", p.fault_rate),
            p.report.cycles.as_u64().to_string(),
            format!("{:.3}x", p.slowdown),
            p.report.inter_module_bytes.to_string(),
            format!("{:.3}x", p.remote_inflation),
        ]);
    }
    table.render()
}

/// Serializes the sweep as the degradation-curve CSV. Byte-identical
/// across runs for a fixed `(scale, seed)` pair.
pub fn to_csv(points: &[CurvePoint]) -> String {
    let mut csv = String::from(
        "category,workload,scenario,fault_rate,cycles,instructions,\
         slowdown,inter_module_bytes,remote_inflation\n",
    );
    for p in points {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.6},{},{:.6}\n",
            p.category,
            p.workload,
            p.scenario,
            p.fault_rate,
            p.report.cycles.as_u64(),
            p.report.instructions,
            p.slowdown,
            p.report.inter_module_bytes,
            p.remote_inflation,
        ));
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's run context at scale 0.01, fault seed 7 and `jobs`
    /// workers.
    fn seed_7(jobs: usize) -> RunEnv {
        RunEnv {
            jobs,
            fault_seed: 7,
            ..RunEnv::at_scale(0.01)
        }
    }

    #[test]
    fn sweep_is_deterministic_and_complete() {
        let a = sweep(&seed_7(2));
        let b = sweep(&seed_7(2));
        assert_eq!(to_csv(&a), to_csv(&b));
        // 1 healthy + 3 transient + 1 gpm-loss per representative.
        assert_eq!(a.len(), 3 * (RATES.len() + 1));
        for p in &a {
            assert!(p.slowdown >= 1.0 || p.scenario != "healthy");
            assert!(p.report.cycles.as_u64() > 0);
        }
    }

    #[test]
    fn sweep_is_job_count_invariant() {
        let serial = sweep(&seed_7(1));
        let parallel = sweep(&seed_7(4));
        assert_eq!(to_csv(&serial), to_csv(&parallel));
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn rendered_outputs_agree_on_row_count() {
        let points = sweep(&seed_7(2));
        let table_rows = render(&points).lines().count();
        let csv_rows = to_csv(&points).lines().count();
        // Table has header + rule; CSV has header.
        assert_eq!(table_rows - 2, csv_rows - 1);
    }
}

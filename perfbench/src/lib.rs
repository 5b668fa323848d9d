//! The MCM-GPU workspace benchmark: three seeded workloads driven
//! through the workspace's public APIs only, one result line per run,
//! and a traced pass that accounts for host time crate by crate.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! why each exists, and how to run the traced pass.

pub mod env;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod serve_mixed;
pub mod sim_serial;
pub mod sweep;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use inputs::{Pair, Size};
use metrics::{best_of, median, peak_rss_mb, tail, Digest, Metric, END_TO_END};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread calling `Simulator::run` back to back.
    SimSerial,
    /// A seeded grid swept cold at two jobs, then warm from disk. Not in
    /// `BENCHMARK.json`: on a shared two-vCPU host its figures spread too
    /// far from run to run for a regression bound.
    Sweep,
    /// Two closed-loop clients against the sweep daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::SimSerial, Workload::Sweep, Workload::ServeMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSerial => "sim_serial",
            Workload::Sweep => "sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one workload run is given.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The input seed.
    pub seed: u64,
    /// How long the timed phase runs (it always completes one pass).
    pub seconds: f64,
    /// Work sizes.
    pub size: &'a Size,
    /// Span recorder (records only in the traced pass).
    pub tracer: &'a Tracer,
    /// A benchmark-owned directory for stores; removed at exit.
    pub tmp: &'a Path,
}

impl Ctx<'_> {
    /// Whether the timed phase is over, given its start and whether the
    /// minimum work has been done.
    pub fn expired(&self, start: Instant, minimum_done: bool) -> bool {
        minimum_done && start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency samples of the workload's unit operation: which
    /// operation (the run repeats each one), and its wall time in ms.
    pub ops: Vec<(u64, f64)>,
    /// Throughput samples: which operation, its wall time in seconds,
    /// and the simulated warp instructions and pair results it
    /// produced.
    pub work: Vec<(u64, f64, u64, u64)>,
    /// Operations attempted (pairs, or requests for `serve_mixed`).
    pub attempted: u64,
    /// Operations failed: panics, quarantines, rejections, error lines
    /// and failed output checks.
    pub failed: u64,
    /// One message per failure.
    pub errors: Vec<String>,
    /// Every simulated report, for the run's digest.
    pub digest: Digest,
    /// The workload's input pairs (the traced pass attributes them).
    pub inputs: Vec<Pair>,
    /// Per-layer metrics the workload measured where the work happened
    /// (traced pass only); they replace the layer pass's replays.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Records a check that fails its operation when it errs.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Unit-operation latencies, each at the fastest repeat of its
    /// operation, ms.
    pub fn latencies(&self) -> Vec<f64> {
        best_of(&self.ops)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Timings are
    /// taken at the fastest repeat of each operation: the run repeats
    /// every operation, and host interference only ever slows one down.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let latencies = self.latencies();
        let keyed: Vec<(u64, f64)> = self.work.iter().map(|w| (w.0, w.1)).collect();
        let work_s: f64 = best_of(&keyed).iter().sum();
        let instructions: u64 = self.work.iter().map(|w| w.2).sum();
        let pairs: u64 = self.work.iter().map(|w| w.3).sum();
        let values = [
            median(&self.setup_s),
            median(&latencies),
            tail(&latencies).value,
            instructions as f64 / work_s / 1e6,
            pairs as f64 / work_s,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, unit, v))
            .collect()
    }
}

/// Runs `setup` `reps` times (at least once), timing each, and returns
/// the last state; earlier states are dropped before the next starts.
pub fn timed_setup<S>(reps: usize, times: &mut Vec<f64>, mut setup: impl FnMut(usize) -> S) -> S {
    let mut state = None;
    for rep in 0..reps.max(1) {
        drop(state.take());
        env::release_free_memory();
        let t = Instant::now();
        state = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up repetition")
}

/// Runs one workload.
pub fn run(workload: Workload, ctx: &Ctx<'_>) -> Outcome {
    match workload {
        Workload::SimSerial => sim_serial::run(ctx),
        Workload::Sweep => sweep::run(ctx),
        Workload::ServeMixed => serve_mixed::run(ctx),
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

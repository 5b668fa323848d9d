//! `sim_serial`: one thread calls `Simulator::run` back to back over a
//! seeded, stratified pair list. It isolates the engine layers and
//! bypasses exec, store, memo and serve.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mcm_gpu::{RunReport, Simulator, SystemConfig};
use mcm_workloads::WorkloadSpec;

use crate::inputs::{self, Pair, PRESETS};
use crate::metrics::check_instructions;
use crate::{ms_since, timed_setup, Ctx, Outcome};

/// A one-CTA, one-instruction spec: running it is little more than
/// building the machine.
pub fn build_only_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::template("build-only");
    spec.ctas = 1;
    spec.warps_per_cta = 1;
    spec.insts_per_warp = 1;
    spec.kernel_iters = 1;
    spec
}

/// Builds every preset's machine once, so allocator and page-fault
/// warm-up is set-up work rather than the first timed pair's.
pub fn warm_up() {
    let spec = build_only_spec();
    for preset in PRESETS {
        std::hint::black_box(Simulator::run(&inputs::config(preset), &spec));
    }
}

/// Runs one already-scaled pair, turning a panic into an error.
pub fn run_pair(cfg: &SystemConfig, spec: &WorkloadSpec) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| Simulator::run(cfg, spec))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        format!("({}, {}): simulation panicked: {msg}", cfg.name, spec.name)
    })
}

/// The workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let scale = ctx.size.scale;
    let inputs: Vec<(Pair, SystemConfig, WorkloadSpec)> =
        timed_setup(ctx.size.setup_reps, &mut out.setup_s, |_| {
            let pairs = inputs::sim_pairs(ctx.seed, ctx.size);
            let prepared = pairs
                .iter()
                .map(|p| (*p, p.config(), p.spec().scaled(scale)))
                .collect();
            warm_up();
            prepared
        });
    out.inputs = inputs.iter().map(|(p, _, _)| *p).collect();

    let start = Instant::now();
    let mut pass = 0u64;
    'passes: loop {
        for i in inputs::pass_order(ctx.seed, pass, inputs.len()) {
            if ctx.expired(start, pass > 0) {
                break 'passes;
            }
            let (_, cfg, spec) = &inputs[i];
            let t = Instant::now();
            let result = ctx.tracer.span("core.simulator.run", None, i as u64, |_| {
                run_pair(cfg, spec)
            });
            let ms = ms_since(t);
            out.attempted += 1;
            match result {
                Ok(report) => {
                    out.ops.push((i as u64, ms));
                    out.work.push((i as u64, ms / 1e3, report.instructions, 1));
                    out.check(check_instructions(&report, spec));
                    let recorded = out.digest.add(&report);
                    out.check(recorded);
                }
                Err(msg) => out.fail(msg),
            }
        }
        pass += 1;
    }
    out
}

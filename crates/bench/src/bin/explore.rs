//! Analytic design-space exploration: scores the default configuration
//! grid with the calibrated analytical model, prunes to the predicted
//! Pareto frontier (plus a safety band), and confirms the survivors
//! with full simulation. Honors `MCM_SCALE` and `MCM_STORE`; exits 1 if
//! any confirmed point violates the model's error envelope.
fn main() {
    let env = mcm_bench::env::RunEnv::from_env();
    let telemetry = mcm_bench::harness::telemetry_guard(&env);
    let mut memo = mcm_bench::harness::Memo::new(env);
    let plan = mcm_bench::planner::Plan::default_grid();
    let outcome = mcm_bench::planner::explore(&mut memo, &plan);
    print!("{}", outcome.rendered);
    if outcome.envelope_violations > 0 {
        // An explicit drop: process::exit skips destructors, and the
        // telemetry snapshot must still be written on the failure path.
        drop(telemetry);
        std::process::exit(1);
    }
}

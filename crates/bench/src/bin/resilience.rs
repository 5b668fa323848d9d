//! Degradation curves under deterministic fault injection: sweeps
//! transient fault rates plus a hard single-GPM loss on one workload
//! per category, printing the curve and writing
//! `results/resilience.csv`.
//!
//! ```text
//! MCM_FAULT_SEED=42 cargo run --release -p mcm-bench --bin resilience
//! ```
//!
//! Honors `MCM_SCALE` (default 0.5) and `MCM_FAULT_SEED` (default:
//! the library's fixed seed); a fixed seed makes the CSV
//! byte-reproducible. `MCM_FAULT_RATE` is ignored — this bin sweeps
//! rates itself.

use std::fs;
use std::path::Path;

use mcm_bench::env::RunEnv;
use mcm_bench::harness::telemetry_guard;
use mcm_bench::resilience;

fn main() {
    let env = RunEnv::from_env();
    let _telemetry = telemetry_guard(&env);
    println!(
        "resilience sweep on the optimized MCM-GPU at MCM_SCALE={} \
         (seed {}); rates are per-site probabilities\n",
        env.scale, env.fault_seed
    );
    let points = resilience::sweep(&env);
    print!("{}", resilience::render(&points));

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results/");
    let path = out_dir.join("resilience.csv");
    fs::write(&path, resilience::to_csv(&points)).expect("write resilience.csv");
    eprintln!("\nwrote {}", path.display());
}

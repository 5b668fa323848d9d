//! Stall-attribution profiler: runs one (workload, configuration) pair
//! and prints where every warp-cycle went — the measured analogue of
//! the paper's Fig. 16 decomposition.
//!
//! Usage: `profile [WORKLOAD] [CONFIG]` (defaults: `CFD` on
//! `optimized`). CONFIG is a short name from the sweep service's
//! preset table ([`preset_table`]). Honors `MCM_SCALE` (default 0.5),
//! the observability knobs `MCM_TRACE` / `MCM_METRICS` /
//! `MCM_METRICS_BUCKET` (see the README's Observability section), and
//! the fault knobs `MCM_FAULT_RATE` / `MCM_FAULT_SEED` (see the
//! Resilience section) — useful for seeing where a degraded machine's
//! warp-cycles go.

use mcm_bench::env::RunEnv;
use mcm_bench::harness::{self, Pair, TextTable};
use mcm_bench::serve_backend::preset_table;
use mcm_probe::StallProfile;
use mcm_workloads::suite;

fn main() {
    let env = RunEnv::from_env();
    let mut args = std::env::args().skip(1);
    let wname = args.next().unwrap_or_else(|| "CFD".into());
    let ckey = args.next().unwrap_or_else(|| "optimized".into());
    let Some(spec) = suite::by_name(&wname) else {
        let names: Vec<&str> = suite::suite().iter().map(|w| w.name).collect();
        eprintln!("unknown workload '{wname}'; one of: {}", names.join(", "));
        std::process::exit(2);
    };
    let mut presets = preset_table();
    let Some(cfg) = presets.remove(ckey.as_str()) else {
        let keys: Vec<&str> = presets.into_keys().collect();
        eprintln!("unknown config '{ckey}'; one of: {}", keys.join(", "));
        std::process::exit(2);
    };
    let _telemetry = harness::telemetry_guard(&env);
    let pair = Pair::new(&env, &cfg, &spec);

    let mut profile = StallProfile::new();
    let (report, written) =
        harness::run_with_env(&env, &cfg, pair.spec(), &mut profile, pair.stem());
    if let Some(path) = written.trace {
        println!("trace:   {}", path.display());
    }
    if let Some(path) = written.metrics {
        println!("metrics: {}", path.display());
    }

    println!(
        "{} on {}: {}, {} warps ({} retired)\n",
        report.workload,
        report.config,
        report.cycles,
        profile.warps_spawned(),
        profile.warps_retired()
    );
    let total = profile.total_warp_cycles();
    let max = profile.phases().map(|(_, c)| c).max().unwrap_or(0);
    let mut table = TextTable::new(vec!["phase", "warp-cycles", "share", ""]);
    for (phase, cycles) in profile.phases() {
        table.row(vec![
            phase.label().to_string(),
            cycles.to_string(),
            format!("{:5.1}%", 100.0 * profile.fraction(phase)),
            harness::bar(cycles as f64, max as f64, 30),
        ]);
    }
    table.row(vec![
        "total".to_string(),
        total.to_string(),
        "100.0%".to_string(),
        String::new(),
    ]);
    print!("{}", table.render());
}

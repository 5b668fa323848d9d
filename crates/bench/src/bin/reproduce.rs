//! Regenerates every table and figure of the paper's evaluation in one
//! pass, printing each and writing it under `results/`. One warm
//! simulates the union of every exhibit's grid; the exhibits then
//! render from that cache.
//!
//! ```text
//! MCM_SCALE=0.5 cargo run --release -p mcm-bench --bin reproduce
//! ```

use std::fs;
use std::path::Path;
use std::time::Instant;

use mcm_bench::env::RunEnv;
use mcm_bench::figures::{self, Exhibit};
use mcm_bench::harness::{telemetry_guard, Memo};
use mcm_engine::stats::ToCsv;

fn main() {
    let env = RunEnv::from_env();
    let _telemetry = telemetry_guard(&env);
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results/");
    let mut memo = Memo::new(env);
    println!(
        "reproducing all exhibits at MCM_SCALE={} (shapes are stable across scales)\n",
        memo.scale()
    );
    let t0 = Instant::now();

    let static_tables = [
        ("table1", figures::table1()),
        ("table2", figures::table2()),
        ("table3", figures::table3()),
        ("table4", figures::table4()),
    ];
    for (name, text) in static_tables {
        emit(out_dir, name, &text);
    }

    let exhibits = [
        figures::fig04(),
        figures::fig06(),
        figures::fig07(),
        figures::fig09(),
        figures::fig10(),
        figures::fig13(),
        figures::fig14(),
        figures::fig15(),
        figures::fig16(),
        figures::fig17(),
        figures::efficiency(),
        figures::ablation_scheduler(),
        figures::ablation_topology(),
        figures::ablation_gpm_count(),
        figures::ablation_page_size(),
        figures::ablation_alloc_policy(),
        figures::fig02(),
    ];
    // One warm over the union: the plan drops the pairs exhibits share
    // and checks artifact stems across all of them.
    let pairs: Vec<_> = exhibits.iter().flat_map(Exhibit::pairs).collect();
    memo.warm(&pairs);
    eprintln!(
        "[warm of {} pairs took {:.0}s]",
        pairs.len(),
        t0.elapsed().as_secs_f64()
    );
    for exhibit in &exhibits {
        emit(out_dir, exhibit.name, &exhibit.render(&memo));
    }

    // Raw per-run data for downstream analysis.
    let mut csv = mcm_gpu::RunReport::csv_header();
    csv.push('\n');
    for report in memo.reports() {
        csv.push_str(&report.to_csv_row());
        csv.push('\n');
    }
    fs::write(out_dir.join("runs.csv"), csv).expect("writing runs.csv");

    eprintln!(
        "\nall exhibits regenerated in {:.0}s; outputs in {}/ (plus runs.csv)",
        t0.elapsed().as_secs_f64(),
        out_dir.display()
    );
}

fn emit(dir: &Path, name: &str, text: &str) {
    println!("{text}\n{}\n", "=".repeat(72));
    fs::write(dir.join(format!("{name}.txt")), text)
        .unwrap_or_else(|e| panic!("writing {name}: {e}"));
}

//! Regenerates the paper's Tables 1-4. Pass `table1`..`table4` to print
//! one, or nothing for all.
fn main() {
    let _telemetry = mcm_bench::harness::telemetry_guard(&mcm_bench::env::RunEnv::from_env());
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        ("table1", mcm_bench::figures::table1()),
        ("table2", mcm_bench::figures::table2()),
        ("table3", mcm_bench::figures::table3()),
        ("table4", mcm_bench::figures::table4()),
    ];
    for (name, text) in all {
        if which.is_empty() || which.iter().any(|w| w == name) {
            println!("{text}");
        }
    }
}

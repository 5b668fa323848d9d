//! Extension ablation: first-touch placement granularity. Honors
//! `MCM_SCALE`.
fn main() {
    mcm_bench::figures::ablation_page_size().print(mcm_bench::env::RunEnv::from_env());
}

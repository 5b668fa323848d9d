//! Extension ablation: CTA scheduler granularity + dynamic stealing
//! (§5.4 future work). Honors `MCM_SCALE`.
fn main() {
    mcm_bench::figures::ablation_scheduler().print(mcm_bench::env::RunEnv::from_env());
}

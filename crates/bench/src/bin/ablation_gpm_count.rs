//! Extension ablation: how many GPMs to split 256 SMs into (§3.2's
//! design space). Honors `MCM_SCALE`.
fn main() {
    mcm_bench::figures::ablation_gpm_count().print(mcm_bench::env::RunEnv::from_env());
}

//! Extension ablation: L1.5 allocation policy incl. set-dueling
//! adaptive admission (§5.1.2 extended). Honors `MCM_SCALE`.
fn main() {
    mcm_bench::figures::ablation_alloc_policy().print(mcm_bench::env::RunEnv::from_env());
}

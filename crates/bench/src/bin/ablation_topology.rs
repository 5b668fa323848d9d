//! Extension ablation: ring vs fully connected inter-GPM fabric
//! (§3.2's out-of-scope exploration). Honors `MCM_SCALE`.
fn main() {
    mcm_bench::figures::ablation_topology().print(mcm_bench::env::RunEnv::from_env());
}

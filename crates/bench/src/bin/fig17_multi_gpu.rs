//! Regenerates Fig. 17 (MCM-GPU vs multi-GPU) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig17().print(mcm_bench::env::RunEnv::from_env());
}

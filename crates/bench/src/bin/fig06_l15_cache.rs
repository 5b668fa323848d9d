//! Regenerates Fig. 6 (L1.5 design space) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig06().print(mcm_bench::env::RunEnv::from_env());
}

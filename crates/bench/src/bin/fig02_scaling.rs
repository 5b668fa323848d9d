//! Regenerates Fig. 2 (SM-count scaling) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig02().print(mcm_bench::env::RunEnv::from_env());
}

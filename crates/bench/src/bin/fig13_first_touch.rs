//! Regenerates Fig. 13 (first-touch page placement) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig13().print(mcm_bench::env::RunEnv::from_env());
}

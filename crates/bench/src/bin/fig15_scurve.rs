//! Regenerates Fig. 15 (speedup s-curve) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig15().print(mcm_bench::env::RunEnv::from_env());
}

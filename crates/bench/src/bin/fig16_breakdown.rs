//! Regenerates Fig. 16 (optimization breakdown) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig16().print(mcm_bench::env::RunEnv::from_env());
}

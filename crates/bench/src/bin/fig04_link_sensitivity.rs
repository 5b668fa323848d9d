//! Regenerates Fig. 4 (inter-GPM link bandwidth sensitivity) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig04().print(mcm_bench::env::RunEnv::from_env());
}

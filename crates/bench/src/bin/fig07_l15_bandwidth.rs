//! Regenerates Fig. 7 (inter-GPM bandwidth with the L1.5) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig07().print(mcm_bench::env::RunEnv::from_env());
}

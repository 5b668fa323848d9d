//! Regenerates Fig. 14 (inter-GPM bandwidth with FT) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig14().print(mcm_bench::env::RunEnv::from_env());
}

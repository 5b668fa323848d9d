//! Regenerates Fig. 10 (inter-GPM bandwidth with DS) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig10().print(mcm_bench::env::RunEnv::from_env());
}

//! Regenerates Fig. 9 (distributed CTA scheduling) of the paper. Honors `MCM_SCALE` (default 0.5).
fn main() {
    mcm_bench::figures::fig09().print(mcm_bench::env::RunEnv::from_env());
}

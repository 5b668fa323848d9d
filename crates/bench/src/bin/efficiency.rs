//! The §6.2 efficiency argument quantified: data-movement energy per
//! machine organization. Honors `MCM_SCALE`.
fn main() {
    mcm_bench::figures::efficiency().print(mcm_bench::env::RunEnv::from_env());
}

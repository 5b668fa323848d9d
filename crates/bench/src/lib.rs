//! Benchmark harness for the MCM-GPU reproduction.
//!
//! [`figures`] contains one function per table and figure of the
//! paper's evaluation; [`harness`] provides the memoized runner and
//! text-table rendering they share. The `src/bin/` binaries are thin
//! wrappers — `cargo run -p mcm-bench --release --bin fig04_link_sensitivity`
//! regenerates Fig. 4, and `--bin reproduce` regenerates everything
//! into `results/`.
//!
//! Set `MCM_SCALE` (default 0.5) to trade run length for fidelity;
//! shapes are stable across scales. Each binary's `main` parses every
//! `MCM_*` run knob once into an [`env::RunEnv`] and passes it down;
//! the library reads no environment.
//!
//! [`planner`] is the design-space exploration front end: it prices a
//! configuration grid with the calibrated analytical model
//! (`mcm_gpu::analytic`), prunes everything off the predicted Pareto
//! frontier, and confirms only the survivors with full simulation
//! (`cargo run -p mcm-bench --release --bin explore`).

#![warn(missing_docs)]

pub mod env;
pub mod figures;
pub mod harness;
pub mod planner;
pub mod resilience;
pub mod serve_backend;

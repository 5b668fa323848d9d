//! # mcm-gpu — the MCM-GPU system model
//!
//! A from-scratch Rust reproduction of *MCM-GPU: Multi-Chip-Module GPUs
//! for Continued Performance Scalability* (Arunkumar et al., ISCA 2017).
//!
//! The paper builds a 256-SM logical GPU out of four on-package GPU
//! modules (GPMs) and recovers the NUMA penalty with three locality
//! optimizations:
//!
//! 1. a GPM-side, **remote-only L1.5 cache** (§5.1),
//! 2. **distributed CTA scheduling** — contiguous CTA chunks per GPM
//!    (§5.2), and
//! 3. **first-touch page placement** (§5.3).
//!
//! This crate assembles the substrate crates (`mcm-engine`, `mcm-mem`,
//! `mcm-interconnect`, `mcm-sm`, `mcm-workloads`) into runnable
//! machines:
//!
//! * [`SystemConfig`] — every machine the paper evaluates, as presets:
//!   baseline/optimized MCM-GPU, link-bandwidth sweeps, L1.5 design
//!   points, buildable and hypothetical monolithic GPUs, and the §6
//!   multi-GPU comparison.
//! * [`Simulator`] — runs a workload on a configuration, returning a
//!   [`RunReport`] with cycles, cache hit rates, NUMA locality,
//!   inter-GPM bandwidth, and the Table 2 energy ledger.
//! * [`analysis`] — the §3.3 link-sizing argument in closed form
//!   ([`LinkSizing`](analysis::LinkSizing)).
//! * [`analytic`] — the calibrated analytical fast path: closed-form
//!   IPC / hit-rate / traffic predictions in microseconds for
//!   design-space exploration ([`AnalyticModel`], [`Calibration`]).
//! * [`mod@reference`] — Table 1 data and manufacturability limits.
//!
//! # Quickstart
//!
//! ```
//! use mcm_gpu::{Simulator, SystemConfig};
//! use mcm_workloads::suite;
//!
//! // A scaled-down run of the Table 4 "Stream" workload on the
//! // baseline and optimized MCM-GPU.
//! let stream = suite::by_name("Stream").unwrap().scaled(0.05);
//! let baseline = Simulator::run(&SystemConfig::baseline_mcm(), &stream);
//! let optimized = Simulator::run(&SystemConfig::optimized_mcm(), &stream);
//! assert!(optimized.speedup_over(&baseline) > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod report;
mod sim;
mod system;

pub mod analysis;
pub mod analytic;
pub mod reference;

pub use analytic::{AnalyticModel, Calibration, Observation, Prediction};
pub use config::{CacheHierarchy, SystemConfig, Topology, KIB, MIB};
pub use report::{ModuleStats, RunReport};
pub use sim::Simulator;
pub use system::McmSystem;

//! Umbrella crate for the MCM-GPU (ISCA 2017) reproduction.
//!
//! Re-exports the whole simulator stack under one roof and hosts the
//! runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`). Library users should usually depend on the
//! individual crates instead:
//!
//! * [`engine`] ([`mcm_engine`]) — discrete-event kernel.
//! * [`exec`] ([`mcm_exec`]) — deterministic parallel sweep executor:
//!   a bounded thread pool whose workers claim grid items from one
//!   atomic index, with bounded retries and quarantine.
//! * [`mem`] ([`mcm_mem`]) — caches, MSHRs, DRAM, page placement.
//! * [`interconnect`] ([`mcm_interconnect`]) — links, ring, crossbar,
//!   energy tiers.
//! * [`probe`] ([`mcm_probe`]) — zero-overhead instrumentation: the
//!   `Probe` trait, Chrome-trace, metrics, and stall-profile sinks.
//! * [`fault`] ([`mcm_fault`]) — deterministic runtime fault
//!   injection: the `FaultPlan` trait and the seeded schedule.
//! * [`telemetry`] ([`mcm_telemetry`]) — hermetic metrics registry:
//!   counters, gauges, histograms, and reproducibility-classed
//!   JSON/CSV snapshots.
//! * [`sm`] ([`mcm_sm`]) — SM model and CTA schedulers.
//! * [`serve`] ([`mcm_serve`]) — long-running sweep service over the
//!   result store: localhost line/JSON protocol, cross-client
//!   in-flight dedupe, fair bounded scheduling, warm restarts.
//! * [`store`] ([`mcm_store`]) — crash-safe on-disk content-addressed
//!   result store (`MCM_STORE`): checksummed segments, atomic
//!   commits, torn-tail recovery, lock-file exclusion.
//! * [`workloads`] ([`mcm_workloads`]) — the 48-benchmark synthetic
//!   suite.
//! * [`gpu`] ([`mcm_gpu`]) — the assembled MCM-GPU system, presets,
//!   the link-sizing analysis, and the analytical fast path.
//!
//! # Example
//!
//! ```
//! use mcm::gpu::{Simulator, SystemConfig};
//! use mcm::workloads::suite;
//!
//! let spec = suite::by_name("CoMD").unwrap().scaled(0.02);
//! let report = Simulator::run(&SystemConfig::optimized_mcm(), &spec);
//! assert!(report.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub use mcm_engine as engine;
pub use mcm_exec as exec;
pub use mcm_fault as fault;
pub use mcm_gpu as gpu;
pub use mcm_interconnect as interconnect;
pub use mcm_mem as mem;
pub use mcm_probe as probe;
pub use mcm_serve as serve;
pub use mcm_sm as sm;
pub use mcm_store as store;
pub use mcm_telemetry as telemetry;
pub use mcm_workloads as workloads;

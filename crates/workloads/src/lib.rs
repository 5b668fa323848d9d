//! Synthetic reconstruction of the MCM-GPU paper's 48-benchmark
//! evaluation suite.
//!
//! The paper's traces are proprietary; this crate reproduces each
//! workload's *published characteristics* — category, Table 4 memory
//! footprint, parallelism, memory intensity, and locality structure —
//! as a parameterized, deterministic address-stream generator. See
//! DESIGN.md for why this substitution preserves every evaluated
//! behaviour.
//!
//! * [`spec`] — [`spec::WorkloadSpec`] and [`spec::LocalityProfile`],
//!   the static description of one benchmark.
//! * [`descriptor`] — [`descriptor::ModelDescriptor`], the closed-form
//!   view of a spec that analytical performance models read.
//! * [`stream`] — [`stream::WarpStream`], the per-warp instruction and
//!   address generator, split into a per-launch [`stream::StreamPlan`]
//!   and a per-warp [`stream::WarpCursor`].
//! * [`suite`] — the 48 concrete workloads, grouped and ordered as the
//!   paper's figures group and order them.
//! * [`trace`] — capture any stream into a concrete, serializable
//!   trace and replay it (the paper's simulator is trace-driven; bring
//!   your own traces here).
//!
//! # Example
//!
//! ```
//! use mcm_workloads::suite;
//! use mcm_workloads::stream::WarpStream;
//!
//! let stream = suite::by_name("Stream").expect("Table 4 workload");
//! let ops: Vec<_> = WarpStream::new(&stream, 0, 0, 0).take(10).collect();
//! assert!(!ops.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod descriptor;
pub mod spec;
pub mod stream;
pub mod suite;
pub mod trace;

pub use descriptor::{AccessMix, ModelDescriptor};
pub use spec::{Category, LocalityProfile, WorkloadSpec};
pub use stream::{StreamPlan, WarpCursor, WarpOp, WarpStream};

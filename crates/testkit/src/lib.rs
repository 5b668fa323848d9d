//! `mcm-testkit`: the workspace's own correctness tooling.
//!
//! Two independent pieces, both dependency-free beyond `mcm-engine`:
//!
//! * [`gen`] + [`runner`] — a deterministic property-testing
//!   mini-harness. Generators compose structurally (tuples, vectors,
//!   `map`), every case derives from a seed via the simulator's own
//!   SplitMix64/xoshiro256** RNG, failures are greedily shrunk, and
//!   the failure report prints a seed that replays the exact case
//!   (`MCM_PROP_SEED=0x... cargo test <name>`).
//! * [`bench`](mod@bench) — a wall-clock bench runner (warmup + N timed samples,
//!   median/p95) for the workspace's `harness = false` bench targets.
//! * [`alloc`] — a counting [`std::alloc::System`] wrapper for
//!   allocation-freedom assertions over deterministic hot loops.
//! * [`tempdir`] — an RAII unique temp directory for
//!   filesystem-touching tests (the store suites).
//!
//! # Writing a property
//!
//! ```
//! use mcm_testkit::prelude::*;
//!
//! check("addition_commutes", &(u64s(0..1000), u64s(0..1000)), |&(a, b)| {
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Filter impossible cases with [`assume!`]; they are regenerated
//! instead of counted:
//!
//! ```
//! use mcm_testkit::prelude::*;
//!
//! check("subtraction_in_order", &(u64s(0..100), u64s(0..100)), |&(a, b)| {
//!     assume!(a >= b);
//!     assert!(a - b <= a);
//! });
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod gen;
pub mod runner;
pub mod tempdir;

/// One-stop imports for property-test files.
pub mod prelude {
    pub use crate::assume;
    pub use crate::gen::{any_u64, bools, f64s, u32s, u64s, u8s, usizes, vecs, Gen, GenExt};
    pub use crate::runner::{check, check_with, Config};
}

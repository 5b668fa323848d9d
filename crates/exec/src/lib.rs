//! `mcm-exec`: the deterministic parallel sweep executor.
//!
//! Figure and table reproduction replays a grid of independent
//! `(configuration, workload)` simulations. Each grid item is a pure
//! function of its inputs, so the only thing parallelism may change is
//! wall-clock time — never results. This crate makes that contract
//! structural:
//!
//! * [`pool::run_grid_supervised`] — a bounded scoped thread pool
//!   that runs one closure per grid item. Workers claim the next grid
//!   index from one shared atomic counter, so every index runs exactly
//!   once, and the results merge back **in grid order**, regardless of
//!   which worker ran what when. Each task runs under `catch_unwind`:
//!   a failing item is retried up to the caller's retry budget and then
//!   quarantined into a structured [`pool::TaskFailure`] report while
//!   the rest of the grid completes. The report is byte-identical at
//!   every job count.
//! * [`pool::run_grid`] — the same loop with zero retries, for callers
//!   that want every result or none. Once the grid has finished it
//!   panics if any item failed, naming the lowest failing grid index
//!   and carrying that item's original message.
//!
//! Callers pass the worker count and the retry budget; the executor
//! reads no environment. One worker runs the same loop in the caller's
//! thread, with no pool, so it is observably identical to never having
//! used the executor.
//!
//! The executor is scoped: a grid borrows its items for one call. The
//! sweep daemon's work outlives any one request, so `mcm-serve` runs it
//! on its own workers and takes only [`pool::panic_message`] from here.
//!
//! Hermetic per the workspace rule: `std` plus `mcm-telemetry` only.
//!
//! # Example
//!
//! ```
//! let squares = mcm_exec::pool::run_grid(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

pub mod pool;

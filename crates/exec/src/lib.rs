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
//!   a failing item is retried a bounded number of times ([`retries`],
//!   `MCM_RETRIES`) and then quarantined into a structured
//!   [`pool::TaskFailure`] report while the rest of the grid completes.
//!   The report is byte-identical at every job count. Harnesses select
//!   it with [`supervised`] (`MCM_SUPERVISED=1`).
//! * [`pool::run_grid`] — the same loop with zero retries, for callers
//!   that want every result or none. Once the grid has finished it
//!   panics if any item failed, naming the lowest failing grid index
//!   and carrying that item's original message.
//! * [`service::ServicePool`] — the long-running counterpart of
//!   [`pool::run_grid`] for server processes: persistent workers, a
//!   bounded queue with all-or-nothing batch admission, fair
//!   round-robin scheduling across caller-chosen lanes, and per-job
//!   panic isolation.
//!
//! The worker count comes from [`jobs`] (`MCM_JOBS`, default: available
//! parallelism); `MCM_JOBS=1` runs the same worker loop in the caller's
//! thread, with no pool, so it is observably identical to never having
//! used the executor.
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
pub mod service;

/// The value of environment knob `var`; `None` when unset.
///
/// # Panics
///
/// Panics, naming the knob, when the value is not valid Unicode.
/// `std::env::var` reports such a value as an error, which reads like
/// "unset" and would silently select the knob's default.
fn knob(var: &str) -> Option<String> {
    let raw = std::env::var_os(var)?;
    Some(raw.into_string().unwrap_or_else(|raw| {
        panic!("{var} is set to non-Unicode bytes ({raw:?}); refusing to guess a default")
    }))
}

/// The worker count for parallel sweeps, read from `MCM_JOBS`.
/// Unset defaults to the machine's available parallelism (1 when that
/// cannot be determined). `MCM_JOBS=1` forces the serial path — the
/// setting golden-output gates pin.
///
/// # Panics
///
/// Panics when `MCM_JOBS` is set but not a positive integer — a typo in
/// a knob must abort the run, not silently fall back.
pub fn jobs() -> usize {
    match knob("MCM_JOBS") {
        Some(raw) => {
            let n: usize = raw
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("MCM_JOBS must be a positive integer, got {raw:?}"));
            assert!(n >= 1, "MCM_JOBS must be >= 1, got {n}");
            n
        }
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Whether sweep harnesses should run under the supervised executor
/// ([`pool::run_grid_supervised`] with [`retries`]), read from
/// `MCM_SUPERVISED`. `1` enables supervision; `0` or unset keeps the
/// fail-fast default, supervision with zero retries followed by a
/// panic naming the lowest failing grid index.
///
/// # Panics
///
/// Panics when `MCM_SUPERVISED` is set to anything but `0` or `1`.
pub fn supervised() -> bool {
    match knob("MCM_SUPERVISED") {
        Some(raw) => match raw.trim() {
            "1" => true,
            "0" => false,
            _ => panic!("MCM_SUPERVISED must be 0 or 1, got {raw:?}"),
        },
        None => false,
    }
}

/// How many times the supervised executor re-attempts a panicking grid
/// item before quarantining it, read from `MCM_RETRIES` (default 1).
/// `0` quarantines on the first panic.
///
/// # Panics
///
/// Panics when `MCM_RETRIES` is set but not a non-negative integer.
pub fn retries() -> u32 {
    match knob("MCM_RETRIES") {
        Some(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("MCM_RETRIES must be a non-negative integer, got {raw:?}")),
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn jobs_defaults_to_available_parallelism() {
        // The test process does not set MCM_JOBS, so the default path
        // runs; it must be at least 1 on any machine.
        assert!(super::jobs() >= 1);
    }

    #[test]
    fn supervision_knobs_default_off() {
        // The test process sets neither knob, so the defaults run.
        assert!(!super::supervised());
        assert_eq!(super::retries(), 1);
    }
}

//! `mcm-exec`: the deterministic parallel sweep executor.
//!
//! Figure and table reproduction replays a grid of independent
//! `(configuration, workload)` simulations. Each grid item is a pure
//! function of its inputs, so the only thing parallelism may change is
//! wall-clock time — never results. This crate makes that contract
//! structural:
//!
//! * [`queue::GridQueue`] — a chunked work-stealing queue over grid
//!   indices. Workers drain their own chunk deque front-to-back and
//!   steal whole chunks from the back of a victim's deque when they run
//!   dry. Any interleaving of pops and steals yields every index
//!   exactly once.
//! * [`pool::run_grid`] — a seeded, bounded thread pool (scoped
//!   threads, no detached workers) that executes one closure per grid
//!   item and merges the results **in grid order**, regardless of which
//!   worker ran what when. The merge asserts that no index was dropped
//!   or duplicated. A task panic fails the whole grid fast, and the
//!   propagated panic names the poisoned grid index and carries the
//!   original message.
//! * [`pool::run_grid_supervised`] — the self-healing variant
//!   ([`supervised`], `MCM_SUPERVISED=1`): task panics are isolated,
//!   failing items are retried a bounded number of times
//!   ([`retries`], `MCM_RETRIES`), and items that still fail are
//!   quarantined into a structured [`pool::TaskFailure`] report while
//!   the rest of the grid completes. The report is byte-identical at
//!   every job count.
//! * [`service::ServicePool`] — the long-running counterpart of
//!   [`pool::run_grid`] for server processes: persistent workers, a
//!   bounded queue with all-or-nothing batch admission, fair
//!   round-robin scheduling across caller-chosen lanes, and per-job
//!   panic isolation.
//!
//! The worker count comes from [`jobs`] (`MCM_JOBS`, default: available
//! parallelism); `MCM_JOBS=1` degenerates to an in-caller-thread serial
//! loop that is observably identical to never having used the executor.
//! Steal-victim selection is seeded ([`DEFAULT_SEED`]) so even the
//! scheduling noise is reproducible for a fixed interleaving.
//!
//! Hermetic per the workspace rule: `std` plus `mcm-engine`'s RNG only.
//!
//! # Example
//!
//! ```
//! let squares = mcm_exec::pool::run_grid(&[1u64, 2, 3, 4], 2, mcm_exec::DEFAULT_SEED, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

pub mod pool;
pub mod queue;
pub mod service;

/// The default steal-order seed used by harnesses that don't need a
/// specific one. Results never depend on it; only which victim a
/// starving worker tries first does.
pub const DEFAULT_SEED: u64 = 0x4D43_4D5F_4A4F_4253; // "MCM_JOBS"

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
    match std::env::var("MCM_JOBS") {
        Ok(raw) => {
            let n: usize = raw
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("MCM_JOBS must be a positive integer, got {raw:?}"));
            assert!(n >= 1, "MCM_JOBS must be >= 1, got {n}");
            n
        }
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Whether sweep harnesses should run under the supervised executor
/// ([`pool::run_grid_supervised`]), read from `MCM_SUPERVISED`. `1`
/// enables supervision; `0` or unset keeps the fail-fast default, so
/// every golden-output gate is untouched.
///
/// # Panics
///
/// Panics when `MCM_SUPERVISED` is set to anything but `0` or `1`.
pub fn supervised() -> bool {
    match std::env::var("MCM_SUPERVISED") {
        Ok(raw) => match raw.trim() {
            "1" => true,
            "0" => false,
            _ => panic!("MCM_SUPERVISED must be 0 or 1, got {raw:?}"),
        },
        Err(_) => false,
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
    match std::env::var("MCM_RETRIES") {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("MCM_RETRIES must be a non-negative integer, got {raw:?}")),
        Err(_) => 1,
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

//! Property-based tests for the grid executor, running on the in-repo
//! `mcm-testkit` harness: under randomized grid sizes, failure scripts,
//! retry budgets and job counts, the one worker loop returns exactly
//! what the serial (`jobs = 1`) run returns.

use std::sync::atomic::{AtomicU32, Ordering};

use mcm_exec::pool::{run_grid, run_grid_supervised, TaskFailure};
use mcm_testkit::prelude::*;

/// Runs a supervised grid whose item `i` panics on its first `fails[i]`
/// attempts, so an item fails for good when `fails[i] > retries`.
/// Attempts are counted per item, from zero on every call.
fn scripted(fails: &[u8], jobs: usize, retries: u32) -> (Vec<Option<u64>>, Vec<TaskFailure>) {
    let attempts: Vec<AtomicU32> = fails.iter().map(|_| AtomicU32::new(0)).collect();
    let grid = run_grid_supervised(fails, jobs, retries, |i, &f| {
        let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
        assert!(attempt >= u32::from(f), "item {i} attempt {attempt}");
        (i as u64).wrapping_mul(31).rotate_left(7)
    });
    (grid.results, grid.failures)
}

/// The pooled supervised grid's results and failure report equal the
/// serial run's, which quarantines exactly the items whose failure
/// script outlasts the retry budget.
#[test]
fn supervised_grid_matches_the_serial_run() {
    check_with(
        &Config {
            cases: 32,
            ..Config::default()
        },
        "supervised_grid_matches_the_serial_run",
        &(vecs(u8s(0..4), 0..120), u32s(0..3), usizes(2..9)),
        |(fails, retries, jobs)| {
            let serial = scripted(fails, 1, *retries);
            let quarantined: Vec<usize> = (0..fails.len())
                .filter(|&i| u32::from(fails[i]) > *retries)
                .collect();
            assert_eq!(
                serial.1.iter().map(|f| f.index).collect::<Vec<_>>(),
                quarantined,
                "serial run, retries {retries}"
            );
            assert_eq!(
                scripted(fails, *jobs, *retries),
                serial,
                "jobs {jobs} retries {retries}"
            );
        },
    );
}

/// The full pool produces grid-order results equal to the serial map
/// under randomized job counts and grid sizes — with real threads.
#[test]
fn pool_matches_serial_map_under_random_job_counts() {
    check_with(
        &Config {
            cases: 32,
            ..Config::default()
        },
        "pool_matches_serial_map_under_random_job_counts",
        &(usizes(0..120), usizes(1..9)),
        |&(len, jobs)| {
            let items: Vec<u64> = (0..len as u64).collect();
            let expect: Vec<u64> = items
                .iter()
                .map(|&x| x.wrapping_mul(31).rotate_left(7))
                .collect();
            let got = run_grid(&items, jobs, |_, &x| x.wrapping_mul(31).rotate_left(7));
            assert_eq!(got, expect, "len {len} jobs {jobs}");
        },
    );
}

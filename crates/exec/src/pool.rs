//! The bounded scoped thread pool: one worker loop that claims grid
//! indices from a shared counter, isolates and retries panicking
//! tasks, and merges the results in grid order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use mcm_telemetry::{global, Class, Counter, Histogram};

/// Pre-registered executor telemetry handles. Resolved once per
/// process so the per-grid cost is a handful of relaxed atomic adds;
/// results are never affected (telemetry is strictly out-of-band).
struct ExecTele {
    grids: Counter,
    tasks: Counter,
    pools: Counter,
    workers: Counter,
    busy_ns: Counter,
    idle_ns: Counter,
    task_ns: Histogram,
    /// Panics caught inside tasks. Deterministic: every grid item runs
    /// to completion at any job count, so a failing item makes the
    /// same `1 + retries` attempts wherever it runs.
    task_panics: Counter,
    /// Re-attempts after a panic. Deterministic for the same reason.
    retries: Counter,
    /// Tasks that still failed after exhausting their retries.
    quarantined: Counter,
}

/// `exec.task_ns` bucket upper edges: 1us .. 1s in decades.
const TASK_NS_BOUNDS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

fn tele() -> &'static ExecTele {
    static TELE: OnceLock<ExecTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = global();
        ExecTele {
            grids: reg.counter("exec.grids", Class::Deterministic),
            tasks: reg.counter("exec.tasks", Class::Deterministic),
            pools: reg.counter("exec.pools", Class::PerConfig),
            workers: reg.counter("exec.workers_spawned", Class::PerConfig),
            busy_ns: reg.counter("exec.busy_ns", Class::Volatile),
            idle_ns: reg.counter("exec.idle_ns", Class::Volatile),
            task_ns: reg.histogram("exec.task_ns", Class::Volatile, &TASK_NS_BOUNDS),
            task_panics: reg.counter("exec.task_panics", Class::Deterministic),
            retries: reg.counter("exec.retries", Class::Deterministic),
            quarantined: reg.counter("exec.quarantined", Class::Deterministic),
        }
    })
}

/// Extracts the human-readable message from a caught panic payload.
/// `panic!("...")` yields `&str` or `String`; a `panic_any` with a
/// common scalar payload is rendered with its type and value; anything
/// else is named by its `TypeId` rather than dropped — the cause of a
/// failure must never degrade to an empty placeholder.  Public so code
/// that catches panics itself (the sweep daemon's jobs) renders
/// payloads the same way.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_scalar {
        ($($ty:ty),+) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!("<{} panic payload: {v:?}>", stringify!($ty));
            })+
        };
    }
    try_scalar!(i32, u32, i64, u64, usize, isize, bool, char);
    format!("<opaque panic payload: {:?}>", payload.type_id())
}

/// One quarantined grid item: the exact identity of the failed work,
/// how often it was attempted, and the last panic message. The
/// supervised runner returns these sorted by grid index, so the report
/// is byte-identical at every job count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The grid index of the failed item.
    pub index: usize,
    /// Total attempts made (1 initial + the configured retries).
    pub attempts: u32,
    /// The message of the last panic.
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid index {} quarantined after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

/// The outcome of a supervised grid run: per-item results in grid
/// order (`None` exactly at quarantined indices) plus the structured
/// failure report.
#[derive(Debug)]
pub struct SupervisedGrid<R> {
    /// `results[i]` is `Some(f(i, &items[i]))`, or `None` when item
    /// `i` was quarantined.
    pub results: Vec<Option<R>>,
    /// Quarantined items, sorted by grid index.
    pub failures: Vec<TaskFailure>,
}

impl<R> SupervisedGrid<R> {
    /// True when every grid item completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one task up to `1 + retries` times, isolating panics.
fn attempt_task<T, R, F>(f: &F, i: usize, item: &T, retries: u32) -> Result<R, TaskFailure>
where
    F: Fn(usize, &T) -> R,
{
    let t = tele();
    let mut last_message = String::new();
    for attempt in 0..=retries {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                t.task_panics.inc();
                last_message = panic_message(payload.as_ref());
                if attempt < retries {
                    t.retries.inc();
                    eprintln!(
                        "mcm-exec: grid index {i} panicked (attempt {}/{}): {last_message}; retrying",
                        attempt + 1,
                        retries + 1,
                    );
                }
            }
        }
    }
    t.quarantined.inc();
    Err(TaskFailure {
        index: i,
        attempts: retries + 1,
        message: last_message,
    })
}

/// The one worker loop: claims the next unclaimed grid index from
/// `next` until the grid is exhausted, runs each item through
/// [`attempt_task`], and returns this worker's `(index, outcome)`
/// bucket. Every index is claimed by exactly one `fetch_add`, so the
/// workers' buckets cover the grid exactly once between them.
/// `Relaxed` suffices: the counter publishes no other data — the items
/// are shared read-only before the workers start, and results come
/// back through `join` — and a read-modify-write is atomic at any
/// ordering.
fn drain<T, R, F>(
    items: &[T],
    next: &AtomicUsize,
    retries: u32,
    f: &F,
) -> Vec<(usize, Result<R, TaskFailure>)>
where
    F: Fn(usize, &T) -> R,
{
    let t = tele();
    let spawned = Instant::now();
    let mut busy_ns = 0u64;
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            break;
        };
        let began = Instant::now();
        out.push((i, attempt_task(f, i, item, retries)));
        let took = began.elapsed().as_nanos() as u64;
        busy_ns += took;
        t.task_ns.observe(took);
    }
    t.busy_ns.add(busy_ns);
    t.idle_ns
        .add((spawned.elapsed().as_nanos() as u64).saturating_sub(busy_ns));
    out
}

/// Runs `f` once per grid item across at most `jobs` worker threads,
/// isolating panics: each failing item is retried a bounded `retries`
/// more times, and items that still fail are quarantined into the
/// returned [`SupervisedGrid::failures`] report while every other item
/// completes normally. `jobs <= 1` (or a grid of at most one item)
/// runs the same worker loop in the caller's thread, with no pool.
///
/// Results come back **in grid order** — `results[i]` is
/// `f(i, &items[i])` no matter which worker computed it or when.
/// Each item's attempts run back to back on one worker, so the failure
/// report (indices, attempt counts, messages) is identical at every
/// job count; it is sorted by grid index.
///
/// # Panics
///
/// Panics only if the merge finds a dropped or duplicated grid index —
/// the index claim makes that impossible, and the assert keeps it so.
pub fn run_grid_supervised<T, R, F>(
    items: &[T],
    jobs: usize,
    retries: u32,
    f: F,
) -> SupervisedGrid<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let t = tele();
    t.grids.inc();
    t.tasks.add(items.len() as u64);
    let jobs = jobs.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let buckets = if jobs <= 1 {
        vec![drain(items, &next, retries, &f)]
    } else {
        t.pools.inc();
        t.workers.add(jobs as u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| scope.spawn(|| drain(items, &next, retries, &f)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("grid worker thread died outside a task"))
                .collect()
        })
    };
    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for outcome in merge_grid(buckets, items.len()) {
        match outcome {
            Ok(r) => results.push(Some(r)),
            Err(fail) => {
                results.push(None);
                failures.push(fail);
            }
        }
    }
    SupervisedGrid { results, failures }
}

/// [`run_grid_supervised`] with zero retries, for callers that want
/// every result or none: returns `f(i, &items[i])` for every `i`, in
/// grid order.
///
/// # Panics
///
/// Panics when any task panicked, after the rest of the grid has
/// finished. The panic names the lowest failing grid index and carries
/// that task's original message (`"grid worker panicked at grid index
/// 13: unlucky"`), so it is the same at every job count.
pub fn run_grid<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let grid = run_grid_supervised(items, jobs, 0, f);
    if let Some(fail) = grid.failures.first() {
        panic!(
            "grid worker panicked at grid index {}: {}",
            fail.index, fail.message
        );
    }
    // No failures, so every slot holds a result.
    grid.results.into_iter().flatten().collect()
}

/// Merges per-worker `(index, result)` buckets into grid order,
/// asserting every index appears exactly once.
fn merge_grid<R>(buckets: Vec<Vec<(usize, R)>>, len: usize) -> Vec<R> {
    let mut merged: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    merged.sort_by_key(|&(i, _)| i);
    assert_eq!(
        merged.len(),
        len,
        "executor completed {} of {len} grid items — dropped or duplicated work",
        merged.len()
    );
    for (pos, &(i, _)) in merged.iter().enumerate() {
        assert_eq!(
            pos, i,
            "grid index {i} appears out of place (duplicate or gap)"
        );
    }
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_grid_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 3, 8] {
            let out = run_grid(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let serial = run_grid(&items, 1, |_, &x| x.wrapping_mul(0x9E37_79B9));
        let parallel = run_grid(&items, 8, |_, &x| x.wrapping_mul(0x9E37_79B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let none: Vec<u32> = Vec::new();
        assert!(run_grid(&none, 8, |_, &x| x).is_empty());
        assert_eq!(run_grid(&[9u32], 8, |_, &x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "grid worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = run_grid(&items, 4, |_, &x| {
            assert!(x != 13, "unlucky");
            x
        });
    }

    #[test]
    fn merge_rejects_duplicates() {
        let r =
            std::panic::catch_unwind(|| merge_grid(vec![vec![(0, 1u32), (1, 2)], vec![(1, 2)]], 2));
        assert!(r.is_err());
    }

    #[test]
    fn telemetry_counts_every_grid_item() {
        let reg = mcm_telemetry::global();
        let tasks = reg.counter("exec.tasks", mcm_telemetry::Class::Deterministic);
        let grids = reg.counter("exec.grids", mcm_telemetry::Class::Deterministic);
        let (t0, g0) = (tasks.get(), grids.get());
        let items: Vec<u64> = (0..40).collect();
        let _ = run_grid(&items, 4, |_, &x| x);
        let _ = run_grid(&items, 1, |_, &x| x);
        // Other tests share the global registry, so assert lower bounds.
        assert!(tasks.get() - t0 >= 80, "both paths count tasks");
        assert!(grids.get() - g0 >= 2);
    }

    #[test]
    fn merge_rejects_gaps() {
        let r = std::panic::catch_unwind(|| merge_grid(vec![vec![(0, 1u32), (2, 3)]], 3));
        assert!(r.is_err());
    }

    /// Regression for the panic-context loss: the propagated panic must
    /// name the lowest failing grid index and carry its original
    /// message, at every job count — and it comes only after every
    /// other item has run.
    #[test]
    fn worker_panics_carry_index_and_message() {
        for jobs in [1, 4] {
            let ran = AtomicUsize::new(0);
            let items: Vec<u32> = (0..64).collect();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_grid(&items, jobs, |_, &x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(x % 17 != 13, "unlucky {x}");
                    x
                })
            }))
            .expect_err("grid must panic");
            let msg = panic_message(caught.as_ref());
            assert_eq!(
                msg, "grid worker panicked at grid index 13: unlucky 13",
                "jobs={jobs}"
            );
            assert_eq!(ran.load(Ordering::Relaxed), 64, "jobs={jobs}");
        }
    }

    /// Regression for the payload-type loss: `panic_any` with a
    /// non-string payload used to degrade to a bare placeholder that
    /// named neither the type nor the value.
    #[test]
    fn non_string_panic_payloads_keep_their_type_and_value() {
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42u32)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "<u32 panic payload: 42>");

        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(true)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "<bool panic payload: true>");

        // A payload outside the scalar set still names *something*
        // stable (its TypeId) instead of an empty or generic string.
        #[derive(Debug)]
        struct Weird;
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(Weird)).expect_err("must panic");
        let msg = panic_message(caught.as_ref());
        assert!(
            msg.starts_with("<opaque panic payload: TypeId"),
            "unexpected rendering: {msg:?}"
        );
    }

    /// End-to-end: a supervised grid item that panics with a non-string
    /// payload quarantines with the typed message, not a default.
    #[test]
    fn supervised_failure_reports_non_string_payloads() {
        let items: Vec<u32> = (0..4).collect();
        let grid = run_grid_supervised(&items, 1, 0, |_, &x| {
            if x == 2 {
                std::panic::panic_any(x as i64);
            }
            x
        });
        assert_eq!(grid.failures.len(), 1);
        assert_eq!(grid.failures[0].index, 2);
        assert_eq!(grid.failures[0].message, "<i64 panic payload: 2>");
    }

    #[test]
    fn supervised_quarantines_failures_and_completes_the_rest() {
        let items: Vec<u32> = (0..64).collect();
        for jobs in [1, 4] {
            let grid = run_grid_supervised(&items, jobs, 0, |_, &x| {
                assert!(x % 17 != 13, "cursed");
                x * 2
            });
            assert!(!grid.is_complete());
            assert_eq!(grid.results.len(), 64);
            for (i, r) in grid.results.iter().enumerate() {
                if i % 17 == 13 {
                    assert_eq!(*r, None, "index {i} must be quarantined");
                } else {
                    assert_eq!(*r, Some(i as u32 * 2), "index {i} must complete");
                }
            }
            assert_eq!(
                grid.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
                vec![13, 30, 47],
            );
        }
    }

    /// The quarantine report must be identical at every job count:
    /// same indices, same attempt counts, same messages, same order.
    #[test]
    fn supervised_report_is_job_count_invariant() {
        let items: Vec<u32> = (0..48).collect();
        let run = |jobs| {
            run_grid_supervised(&items, jobs, 2, |i, &x| {
                assert!(x % 11 != 7, "bad item {i}");
                x
            })
            .failures
        };
        let serial = run(1);
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(8));
        assert_eq!(serial.len(), 4);
        assert!(serial.iter().all(|f| f.attempts == 3));
        assert_eq!(serial[0].message, "bad item 7");
    }

    /// A task that panics transiently must succeed on retry and leave
    /// no quarantine entry.
    #[test]
    fn supervised_retry_recovers_transient_panics() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let items = [5u32];
        let grid = run_grid_supervised(&items, 1, 2, |_, &x| {
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            x
        });
        assert!(grid.is_complete());
        assert_eq!(grid.results, vec![Some(5)]);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn supervised_empty_grid_is_complete() {
        let none: Vec<u32> = Vec::new();
        let grid = run_grid_supervised(&none, 8, 1, |_, &x| x);
        assert!(grid.is_complete());
        assert!(grid.results.is_empty());
    }

    #[test]
    fn task_failure_display_names_the_pair() {
        let f = TaskFailure {
            index: 9,
            attempts: 2,
            message: "boom".into(),
        };
        assert_eq!(
            f.to_string(),
            "grid index 9 quarantined after 2 attempt(s): boom"
        );
    }
}

//! `mcm-serve`: the long-running sweep service in front of the result
//! store.
//!
//! Design-space exploration is query-heavy and highly repetitive: most
//! sweep requests overlap with requests already answered or currently
//! running. Forking a fresh harness process per query re-pays process
//! startup, store recovery, and — worst of all — can race a concurrent
//! query into simulating the same `(configuration, workload)` pair
//! twice. This crate turns the store into a *service* with one
//! invariant: **each unique pair is simulated once, ever.**
//!
//! * [`service::SweepService`] listens on localhost TCP and speaks a
//!   line-oriented JSON protocol ([`protocol`]) — hand-rolled on
//!   [`mcm_telemetry::json::Json`], hermetic like the rest of the
//!   workspace.
//! * A sweep request names a config grid and a workload selection. The
//!   service resolves every pair through the same fingerprinting the
//!   bench harness's `Memo` uses, answers cache/store **hits**
//!   immediately, **subscribes** duplicate in-flight pairs to the
//!   first requester's run (never resubmitting), and queues true
//!   misses for the service's own worker threads — one lock covers the
//!   registry and the queue.
//! * The queue is bounded (admission control: an oversized request is
//!   rejected whole, loudly) and fair (round-robin across client
//!   connections: a giant grid cannot starve a one-pair query).
//! * Results stream back per-pair as they finish and persist to the
//!   store as they complete, so a killed server warm-starts: restart
//!   it over the same `MCM_STORE` directory and the whole grid is
//!   hits.
//!
//! The [`Backend`] trait is the seam between the protocol machinery
//! and the simulator: production uses the bench harness's memoizing
//! backend (`mcm-bench`), tests use scripted backends. A backend
//! returns *rendered* report strings ([`protocol::render_report`] is
//! the canonical rendering) so the bytes a client receives are
//! identical regardless of which path — hit, run, or shared
//! subscription — produced them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod protocol;
pub mod service;

/// The resolved identity of one `(configuration, workload)` pair: the
/// persistent-store fingerprint plus the human names the client used.
/// The fingerprint alone is the dedupe and store key, so two names that
/// resolve to one fingerprint share one run; the names ride along for
/// [`Backend::run`], pair lines and error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairKey {
    /// The store fingerprint (folds config, workload, scale, and fault
    /// knobs — see `mcm_bench::harness::Pair`).
    pub fingerprint: u64,
    /// The configuration name as requested.
    pub config: String,
    /// The workload name as requested.
    pub workload: String,
}

/// What the service needs from a simulator: resolve names to keys,
/// look results up, and produce them. Implementations must be safe to
/// call from many threads at once — `lookup` runs under the service's
/// lock and must be cheap; `run` executes on the service's workers
/// without the lock and may take arbitrarily long.
pub trait Backend: Send + Sync {
    /// Resolves `(config, workload)` names to a [`PairKey`], or an
    /// error message naming what was unknown.
    ///
    /// # Errors
    ///
    /// A human-readable message when either name does not resolve; the
    /// service rejects the whole request with it.
    fn resolve(&self, config: &str, workload: &str) -> Result<PairKey, String>;

    /// The already-rendered report for `key`, if one exists (memory or
    /// persistent store). Must not simulate.
    fn lookup(&self, key: &PairKey) -> Option<String>;

    /// Simulates `key`'s pair, persists the result, and returns the
    /// rendered report. Called at most once per unique key per process
    /// lifetime — the service's dedupe registry guarantees it.
    fn run(&self, key: &PairKey) -> String;

    /// Every workload name this backend can run, in suite order; the
    /// service expands the `"*"` selection through it.
    fn all_workloads(&self) -> Vec<String>;
}

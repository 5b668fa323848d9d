//! Shared machinery for the figure/table harness binaries: scaled,
//! memoized simulation runs and plain-text table rendering.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::OnceLock;

use mcm_engine::rng::StableHasher;
use mcm_engine::stats::geomean;
use mcm_exec::pool::TaskFailure;
use mcm_fault::{FaultConfig, FaultPlan, NullFaultPlan, SeededFaultPlan};
use mcm_gpu::{RunReport, Simulator, SystemConfig};
use mcm_probe::{ChromeTraceProbe, MetricsProbe, NullProbe, Probe};
use mcm_store::Store;
use mcm_telemetry::{Class, Counter, Histogram};
use mcm_workloads::{Category, WorkloadSpec};

/// Parses `raw` (the value of environment variable `var`) or panics
/// naming both the variable and the offending value — a typo in a knob
/// must abort the run, not silently fall back to a default.
fn parse_checked<T: std::str::FromStr>(var: &str, raw: &str) -> T {
    raw.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{var} must be a valid {}, got {raw:?}",
            std::any::type_name::<T>()
        )
    })
}

/// Parses the raw OS-level value of environment variable `var`;
/// `None` when `value` is `None` (variable unset). Split from
/// [`env_parsed`] so the non-Unicode path is testable without mutating
/// the process environment.
///
/// # Panics
///
/// Panics (naming the variable) when the value is set but is not valid
/// Unicode, or is Unicode but unparsable. `std::env::var(..).ok()`
/// would conflate "unset" with "set to non-Unicode bytes" and silently
/// fall back to the knob's default — the opposite of the loud-env
/// contract.
fn parse_env_value<T: std::str::FromStr>(var: &str, value: Option<&std::ffi::OsStr>) -> Option<T> {
    let raw = value?;
    let raw = raw.to_str().unwrap_or_else(|| {
        panic!("{var} is set to non-Unicode bytes ({raw:?}); refusing to guess a default")
    });
    Some(parse_checked(var, raw))
}

/// Reads and parses environment variable `var`; `None` when unset.
/// Public so the service binaries read their knobs with the same
/// loud-env contract as the harness.
///
/// # Panics
///
/// Panics (naming the variable and the value) when the value is set but
/// non-Unicode or unparsable.
pub fn env_parsed<T: std::str::FromStr>(var: &str) -> Option<T> {
    parse_env_value(var, std::env::var_os(var).as_deref())
}

/// The workload scale factor used by the harness: multiplies per-warp
/// instruction counts. Read from `MCM_SCALE` (default 0.5 — bandwidth
/// shapes are stable down to ~0.1, but cache-warm-up effects need the
/// longer streams; use 1.0 for full-length runs).
///
/// # Panics
///
/// Panics when `MCM_SCALE` is set but not a finite positive number.
pub fn scale() -> f64 {
    let s: f64 = env_parsed("MCM_SCALE").unwrap_or(0.5);
    assert!(
        s.is_finite() && s > 0.0,
        "MCM_SCALE must be finite and positive, got {s}"
    );
    s
}

/// The fault-injection seed, read from `MCM_FAULT_SEED` (default: the
/// [`FaultConfig`] default seed). A fixed seed makes every faulted run
/// byte-reproducible.
///
/// # Panics
///
/// Panics when `MCM_FAULT_SEED` is set but not a valid `u64`.
pub fn fault_seed() -> u64 {
    env_parsed("MCM_FAULT_SEED").unwrap_or_else(|| FaultConfig::default().seed)
}

/// The fault-injection rate, read from `MCM_FAULT_RATE` (default 0.0 =
/// no injection). Applied as the per-site probability for link errors,
/// DRAM throttle windows, and MSHR poisoning alike.
///
/// # Panics
///
/// Panics when `MCM_FAULT_RATE` is set but not a number in `[0, 1]`.
pub fn fault_rate() -> f64 {
    let r: f64 = env_parsed("MCM_FAULT_RATE").unwrap_or(0.0);
    assert!(
        r.is_finite() && (0.0..=1.0).contains(&r),
        "MCM_FAULT_RATE must be in [0, 1], got {r}"
    );
    r
}

/// The persistent [`Store`] at `MCM_STORE`; `None` when the knob is
/// unset. [`Memo::from_env`] and the sweep daemon's backend both open
/// their store here.
///
/// # Panics
///
/// Panics when `MCM_STORE` is set but the directory cannot be opened at
/// all (cannot be created or listed) — a mistyped knob must abort the
/// run, not silently fall back to volatile caching.
pub(crate) fn store_from_env() -> Option<Store> {
    let dir = PathBuf::from(std::env::var_os("MCM_STORE")?);
    Some(Store::open(&dir).unwrap_or_else(|e| {
        panic!(
            "MCM_STORE: cannot open result store at {}: {e}",
            dir.display()
        )
    }))
}

/// A memoizing runner: each `(configuration, workload)` pair is
/// simulated once per process, so figures that share configurations
/// (e.g. every figure needs the baseline) don't re-run it.
///
/// The cache keys on the configuration's full
/// [`fingerprint`](SystemConfig::fingerprint) and the scaled spec's
/// [`fingerprint`](WorkloadSpec::fingerprint) — not their display
/// names — so two configurations or specs that share a name but differ
/// in any parameter are simulated (and cached) separately.
///
/// Independent runs can execute in parallel: [`Memo::warm`] (and the
/// [`Memo::run_grid_with_jobs`] wrapper) plans the unique uncached
/// pairs of a grid up front and dispatches them across `MCM_JOBS`
/// worker threads via [`mcm_exec`], merging results back in grid order
/// so every figure, table, and artifact is byte-identical regardless of
/// the job count.
///
/// With a persistent [`Store`] attached (`MCM_STORE=<dir>`, see
/// [`Memo::from_env`]), the cache additionally survives the process:
/// every fresh simulation is durably committed as it completes, and
/// later processes (or a restart after a crash) serve those pairs from
/// disk. The store key folds in everything that determines a result —
/// the configuration fingerprint, every field of the *scaled* spec,
/// and the fault-injection knobs — so a knob change or an edited spec
/// is a different key, never a stale hit.
#[derive(Debug)]
pub struct Memo {
    scale: f64,
    cache: HashMap<(u64, u64), RunReport>,
    store: Option<Store>,
    stats: MemoStats,
}

/// What one [`Memo`] instance did: per-instance mirrors of the global
/// `memo.*` telemetry counters, race-free for unit tests that run
/// alongside other memo-using tests in the same process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// [`Memo::run`] calls served from the cache.
    pub hits: u64,
    /// [`Memo::run`] calls that simulated.
    pub misses: u64,
    /// Pairs requested across all [`Memo::warm`] calls.
    pub warm_requested: u64,
    /// Pairs actually simulated by [`Memo::warm`] (the rest were
    /// duplicates, already cached, or served from the store).
    pub warm_planned: u64,
    /// Exact-duplicate `(fingerprint, workload)` pairs dropped within a
    /// single warm plan.
    pub warm_deduped: u64,
    /// Runs served from the persistent store instead of simulating.
    pub store_hits: u64,
}

/// Pre-registered global `memo.*` telemetry. Mostly deterministic: the
/// cache keys on content fingerprints and the call sequence of a
/// harness binary does not depend on `MCM_JOBS`. The
/// store-dependent counters are [`Class::PerConfig`] because their
/// values are a function of the `MCM_STORE` knob and the disk contents
/// it points at.
struct MemoTele {
    hits: Counter,
    misses: Counter,
    warm_requested: Counter,
    warm_planned: Counter,
    /// Exact-duplicate pairs dropped within one warm plan. PerConfig:
    /// with a store attached, a pair served from disk on its first
    /// occurrence turns later occurrences into cache hits instead of
    /// dedupes, so the count depends on what previous processes left
    /// behind.
    warm_deduped: Counter,
    /// Runs served from the persistent store. PerConfig: zero with
    /// `MCM_STORE` unset, a function of the knob and the disk with it.
    store_hits: Counter,
    dedupe: Histogram,
}

/// `memo.warm_dedupe_permille` bucket edges (fraction of a warm call's
/// requested pairs skipped as duplicates/cached, in permille).
const DEDUPE_BOUNDS: [u64; 5] = [0, 250, 500, 750, 1000];

fn memo_tele() -> &'static MemoTele {
    static TELE: OnceLock<MemoTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = mcm_telemetry::global();
        MemoTele {
            hits: reg.counter("memo.hits", Class::Deterministic),
            misses: reg.counter("memo.misses", Class::Deterministic),
            warm_requested: reg.counter("memo.warm_requested", Class::Deterministic),
            warm_planned: reg.counter("memo.warm_planned", Class::Deterministic),
            warm_deduped: reg.counter("memo.warm_deduped", Class::PerConfig),
            store_hits: reg.counter("memo.store_hits", Class::PerConfig),
            dedupe: reg.histogram(
                "memo.warm_dedupe_permille",
                Class::Deterministic,
                &DEDUPE_BOUNDS,
            ),
        }
    })
}

/// The persistent-store fingerprint for one `(configuration, workload)`
/// pair at workload scale `scale`. Unlike [`Memo`]'s in-process cache
/// key, this must survive the process — so it folds in everything the
/// environment contributes to a result: every field of the *scaled*
/// spec (its [`fingerprint`](WorkloadSpec::fingerprint), which captures
/// `MCM_SCALE` and any edit to a suite entry) and the fault-injection
/// knobs. A process running at different knob settings, or with a
/// different spec under the same name, computes a different key and
/// never sees a stale record. Public so the sweep service keys its
/// in-flight dedupe registry exactly the way [`Memo`] keys the store —
/// same function, same bytes.
pub fn pair_fingerprint(scale: f64, cfg: &SystemConfig, spec: &WorkloadSpec) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(cfg.fingerprint());
    h.write_u64(spec.scaled(scale).fingerprint());
    h.write_u64(fault_rate().to_bits());
    h.write_u64(fault_seed());
    h.finish()
}

impl Memo {
    /// Creates a runner at the given workload scale, process-local only
    /// (no persistent store).
    pub fn new(scale: f64) -> Self {
        Memo {
            scale,
            cache: HashMap::new(),
            store: None,
            stats: MemoStats::default(),
        }
    }

    /// Creates a runner at the environment-selected scale. With
    /// `MCM_STORE=<dir>` set, attaches the persistent [`Store`] at that
    /// directory, so results survive (and are served across) process
    /// restarts.
    ///
    /// # Panics
    ///
    /// Panics when `MCM_STORE` is set but the directory cannot be
    /// opened at all (cannot be created or listed) — a mistyped knob
    /// must abort the run, not silently fall back to volatile caching.
    /// On-disk *corruption* is not an error: damaged records are
    /// quarantined as misses by the store's recovery scan.
    pub fn from_env() -> Self {
        let mut memo = Memo::new(scale());
        memo.store = store_from_env();
        memo
    }

    /// Creates a runner at the given scale backed by an explicit
    /// [`Store`] (tests attach temp-dir stores without touching the
    /// `MCM_STORE` environment variable, which would race across test
    /// threads).
    pub fn with_store(scale: f64, store: Store) -> Self {
        let mut memo = Memo::new(scale);
        memo.store = Some(store);
        memo
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The workload scale in force.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The in-process cache key of `cfg` running the already *scaled*
    /// spec: both fingerprints, so an edited spec never hits another
    /// spec's entry.
    fn key(cfg: &SystemConfig, scaled: &WorkloadSpec) -> (u64, u64) {
        (cfg.fingerprint(), scaled.fingerprint())
    }

    /// The persistent-store fingerprint for one pair; see
    /// [`pair_fingerprint`].
    fn store_fingerprint(&self, cfg: &SystemConfig, spec: &WorkloadSpec) -> u64 {
        pair_fingerprint(self.scale, cfg, spec)
    }

    /// Runs `spec` (scaled) on `cfg`, memoized — in-process first, then
    /// the persistent store (when attached), then a fresh simulation
    /// (which is durably committed to the store as it completes).
    ///
    /// Fresh (non-memoized) runs honour the observability environment
    /// variables: see [`run_instrumented`].
    pub fn run(&mut self, cfg: &SystemConfig, spec: &WorkloadSpec) -> RunReport {
        let scaled = spec.scaled(self.scale);
        let key = Memo::key(cfg, &scaled);
        if let Some(r) = self.cache.get(&key) {
            self.stats.hits += 1;
            memo_tele().hits.inc();
            return r.clone();
        }
        if self.store.is_some() {
            let fp = self.store_fingerprint(cfg, spec);
            if let Some(r) = self.store.as_ref().and_then(|s| s.get(fp, spec.name)) {
                self.stats.store_hits += 1;
                memo_tele().store_hits.inc();
                self.cache.insert(key, r.clone());
                return r;
            }
        }
        self.stats.misses += 1;
        memo_tele().misses.inc();
        let report = run_instrumented(cfg, &scaled);
        if let Some(store) = &self.store {
            store.put(self.store_fingerprint(cfg, spec), spec.name, &report);
        }
        self.cache.insert(key, report.clone());
        report
    }

    /// Runs every workload in `suite` on `cfg`.
    pub fn run_suite(&mut self, cfg: &SystemConfig, suite: &[WorkloadSpec]) -> Vec<RunReport> {
        suite.iter().map(|w| self.run(cfg, w)).collect()
    }

    /// Simulates every uncached `(configuration, workload)` pair in
    /// `pairs` across `MCM_JOBS` worker threads (default: the machine's
    /// available parallelism) and memoizes the results. Subsequent
    /// [`Memo::run`] calls for those pairs are cache hits, so a figure
    /// can `warm` its whole grid first and keep its serial reporting
    /// loop untouched.
    ///
    /// Planning happens up front in grid order: duplicates and
    /// already-cached pairs are dropped, artifact stems are checked for
    /// collisions (see [`artifact_stem`]), and results are merged back
    /// in plan order — output never depends on thread scheduling.
    ///
    /// With `MCM_SUPERVISED=1` a panicking pair is retried
    /// (`MCM_RETRIES`, default 1) and then quarantined — reported on
    /// stderr, left uncached — while every other pair completes. See
    /// [`Memo::warm_supervised_with_jobs`].
    ///
    /// # Panics
    ///
    /// Panics if two planned pairs would write the same artifact stem,
    /// or (unsupervised) if a simulation panicked; see
    /// [`Memo::warm_with_jobs`].
    pub fn warm(&mut self, pairs: &[(&SystemConfig, &WorkloadSpec)]) {
        if mcm_exec::supervised() {
            let failures =
                self.warm_supervised_with_jobs(mcm_exec::jobs(), mcm_exec::retries(), pairs);
            report_quarantined(&failures);
        } else {
            self.warm_with_jobs(mcm_exec::jobs(), pairs);
        }
    }

    /// Plans one warm call: drops pairs already in the in-process
    /// cache, dedupes *exact* `(fingerprint, workload)` duplicates
    /// (counted in `memo.warm_deduped`), serves pairs present in the
    /// persistent store straight into the cache, checks the survivors'
    /// artifact stems for collisions, and books the `memo.*`
    /// accounting. Returns the pairs that genuinely need simulating,
    /// in grid order, each with its precomputed store fingerprint.
    fn plan<'p>(
        &mut self,
        pairs: &[(&'p SystemConfig, &'p WorkloadSpec)],
    ) -> Vec<(&'p SystemConfig, WorkloadSpec, u64)> {
        let mut planned: Vec<(&SystemConfig, WorkloadSpec, u64)> = Vec::new();
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut stems: HashMap<String, (String, &str)> = HashMap::new();
        let mut deduped = 0u64;
        let mut store_hits = 0u64;
        for &(cfg, spec) in pairs {
            let scaled = spec.scaled(self.scale);
            let key = Memo::key(cfg, &scaled);
            if self.cache.contains_key(&key) {
                continue;
            }
            // Exact-pair dedupe: the same (config, spec) fingerprints
            // appearing twice in one grid plan once. This is decided
            // on the full content key, never on a name or a truncated
            // stem hash.
            if !seen.insert(key) {
                deduped += 1;
                continue;
            }
            let store_fp = self.store_fingerprint(cfg, spec);
            if let Some(r) = self.store.as_ref().and_then(|s| s.get(store_fp, spec.name)) {
                store_hits += 1;
                self.cache.insert(key, r);
                continue;
            }
            // The stem the worker writes under: it runs the scaled spec.
            let stem = artifact_stem(cfg, &scaled);
            match stems.get(&stem) {
                // A *different* pair mapping to the same stem would
                // silently overwrite artifacts; fail loud instead.
                Some((c, w)) => panic!(
                    "artifact stem {stem:?} collides: ({c:?}, {w:?}) vs ({:?}, {:?})",
                    cfg.name, spec.name
                ),
                None => {
                    stems.insert(stem, (cfg.name.clone(), spec.name));
                }
            }
            planned.push((cfg, scaled, store_fp));
        }
        let tele = memo_tele();
        self.stats.warm_requested += pairs.len() as u64;
        self.stats.warm_planned += planned.len() as u64;
        self.stats.warm_deduped += deduped;
        self.stats.store_hits += store_hits;
        tele.warm_requested.add(pairs.len() as u64);
        tele.warm_planned.add(planned.len() as u64);
        tele.warm_deduped.add(deduped);
        tele.store_hits.add(store_hits);
        if !pairs.is_empty() {
            let skipped = (pairs.len() - planned.len()) as u64;
            tele.dedupe.observe(skipped * 1000 / pairs.len() as u64);
        }
        planned
    }

    /// [`Memo::warm`] with an explicit worker count and no retries
    /// (tests compare job counts in-process without touching the
    /// `MCM_JOBS` environment variable, which would race across test
    /// threads).
    ///
    /// # Panics
    ///
    /// Panics if two planned pairs would write the same artifact stem,
    /// or if a simulation panicked. The grid finishes (and, with a
    /// store attached, persists) every other pair first; the panic then
    /// names the lowest failing grid index and its `(configuration,
    /// workload)` pair and carries the original message.
    pub fn warm_with_jobs(&mut self, jobs: usize, pairs: &[(&SystemConfig, &WorkloadSpec)]) {
        let failures = self.warm_runner(jobs, 0, pairs, run_instrumented);
        fail_fast(&failures);
    }

    /// The supervised counterpart of [`Memo::warm_with_jobs`]: a
    /// panicking pair is retried up to `retries` more times and then
    /// quarantined — named in the returned report — while every other
    /// pair completes (and persists, when a store is attached).
    ///
    /// The report is sorted by grid position and is identical at every
    /// `jobs` value. Quarantined pairs stay uncached: a later
    /// [`Memo::run`] on one will re-attempt it (and panic undisturbed
    /// if the fault persists).
    pub fn warm_supervised_with_jobs(
        &mut self,
        jobs: usize,
        retries: u32,
        pairs: &[(&SystemConfig, &WorkloadSpec)],
    ) -> Vec<PairFailure> {
        self.warm_runner(jobs, retries, pairs, run_instrumented)
    }

    /// The one warm runner: plans `pairs`, runs the planned grid under
    /// [`mcm_exec::pool::run_grid_supervised`] with `sim` (tests inject
    /// scripted faults, no environment required), caches every result,
    /// and names each quarantined pair.
    fn warm_runner<G>(
        &mut self,
        jobs: usize,
        retries: u32,
        pairs: &[(&SystemConfig, &WorkloadSpec)],
        sim: G,
    ) -> Vec<PairFailure>
    where
        G: Fn(&SystemConfig, &WorkloadSpec) -> RunReport + Sync,
    {
        let planned = self.plan(pairs);
        let store = self.store.as_ref();
        let grid = mcm_exec::pool::run_grid_supervised(
            &planned,
            jobs,
            retries,
            |_, (cfg, scaled, store_fp)| {
                let report = sim(cfg, scaled);
                // Committed from the worker, not after the merge: a
                // crash mid-sweep keeps every already-finished result.
                if let Some(store) = store {
                    store.put(*store_fp, scaled.name, &report);
                }
                report
            },
        );
        for ((cfg, scaled, _), report) in planned.iter().zip(grid.results) {
            if let Some(report) = report {
                self.cache.insert(Memo::key(cfg, scaled), report);
            }
        }
        grid.failures
            .into_iter()
            .map(|failure| {
                let (cfg, scaled, _) = &planned[failure.index];
                PairFailure {
                    config: cfg.name.clone(),
                    workload: scaled.name.to_string(),
                    failure,
                }
            })
            .collect()
    }

    /// Runs every pair of `pairs` (scaled, memoized), executing the
    /// uncached ones across `jobs` workers, and returns the reports in
    /// grid order.
    pub fn run_grid_with_jobs(
        &mut self,
        jobs: usize,
        pairs: &[(&SystemConfig, &WorkloadSpec)],
    ) -> Vec<RunReport> {
        self.warm_with_jobs(jobs, pairs);
        pairs
            .iter()
            .map(|(cfg, spec)| self.run(cfg, spec))
            .collect()
    }

    /// This instance's hit/miss/warm accounting.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// All reports produced so far, sorted by (configuration, workload)
    /// for deterministic output.
    pub fn reports(&self) -> Vec<&RunReport> {
        let mut all: Vec<&RunReport> = self.cache.values().collect();
        all.sort_by(|a, b| (&a.config, &a.workload).cmp(&(&b.config, &b.workload)));
        all
    }
}

/// One quarantined `(configuration, workload)` pair from a supervised
/// warm ([`Memo::warm_supervised_with_jobs`]): the pair's names plus
/// the underlying executor-level [`TaskFailure`] (grid index, attempt
/// count, last panic message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairFailure {
    /// The configuration's display name.
    pub config: String,
    /// The workload name.
    pub workload: String,
    /// The executor-level failure record.
    pub failure: TaskFailure,
}

impl std::fmt::Display for PairFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QUARANTINED ({:?}, {:?}) after {} attempt(s): {}",
            self.config, self.workload, self.failure.attempts, self.failure.message
        )
    }
}

/// Prints a supervised warm's quarantine report to stderr, one line
/// per failed pair, in grid order. No output when nothing failed.
pub fn report_quarantined(failures: &[PairFailure]) {
    for f in failures {
        eprintln!("mcm: exec: {f}");
    }
}

/// The fail-fast end of an unsupervised warm: panics naming the first
/// (lowest-index) failed pair, if any.
fn fail_fast(failures: &[PairFailure]) {
    if let Some(PairFailure {
        config,
        workload,
        failure,
    }) = failures.first()
    {
        panic!(
            "grid worker panicked at grid index {}: ({config:?}, {workload:?}): {}",
            failure.index, failure.message
        );
    }
}

/// The time-series bucket width in cycles, read from
/// `MCM_METRICS_BUCKET` (default [`mcm_probe::metrics::DEFAULT_BUCKET`]).
///
/// # Panics
///
/// Panics when `MCM_METRICS_BUCKET` is set but not a positive integer.
pub fn metrics_bucket() -> u64 {
    let b = env_parsed("MCM_METRICS_BUCKET").unwrap_or(mcm_probe::metrics::DEFAULT_BUCKET);
    assert!(b > 0, "MCM_METRICS_BUCKET must be positive, got {b}");
    b
}

/// Collapses every run of non-alphanumeric characters into a single
/// `-` and trims the ends (config names contain `/`, `(`, `+`, spaces).
fn collapse(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.is_empty() && !out.ends_with('-') {
            out.push('-');
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// The low 32 bits of the stable FNV-1a hash of `name`, as 8 hex
/// digits.
fn short_hash(h: StableHasher) -> String {
    format!("{:08x}", h.finish() as u32)
}

/// The artifact-file stem for one `(configuration, workload)` run:
/// human-readable collapsed names plus a stable hash over the
/// configuration's and the workload's full fingerprints
/// ([`SystemConfig::fingerprint`], [`WorkloadSpec::fingerprint`]). Two
/// runs share a stem only if they would simulate identically, so
/// parallel workers never race on an artifact file — even for configs
/// or specs that share a display name but differ in a parameter.
pub fn artifact_stem(cfg: &SystemConfig, spec: &WorkloadSpec) -> String {
    let mut h = StableHasher::new();
    h.write_u64(cfg.fingerprint());
    h.write_u64(spec.fingerprint());
    format!(
        "{}__{}-{}",
        collapse(&cfg.name),
        collapse(spec.name),
        short_hash(h)
    )
}

/// Runs one (already scaled) workload on `cfg` the way every harness
/// sweep does: the scripted worker fault fires first (a no-op unless
/// `MCM_FAULT_TASK_PANIC` is set; the deterministic crash the
/// supervised executor is exercised against), then [`run_with_env`]
/// picks the fault plan and the sinks, naming artifacts by
/// [`artifact_stem`].
///
/// With no observability or fault variable set this is exactly
/// [`Simulator::run`]: the null hooks monomorphize to no
/// instrumentation.
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written, or if
/// one of the environment knobs holds an invalid value.
pub fn run_instrumented(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunReport {
    mcm_fault::inject::scripted_task_panic(&cfg.name, spec.name);
    run_with_env(cfg, spec, &mut NullProbe, &artifact_stem(cfg, spec)).0
}

/// The artifact files one [`run_with_sinks`] call wrote.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// The Chrome trace, when `MCM_TRACE` is set.
    pub trace: Option<PathBuf>,
    /// The metrics CSV, when `MCM_METRICS` is set.
    pub metrics: Option<PathBuf>,
}

/// Runs one (already scaled) workload on `cfg` under `probe`, with the
/// fault plan the environment picks: a positive `MCM_FAULT_RATE` (see
/// [`fault_rate`]) runs under a [`SeededFaultPlan`] seeded from
/// `MCM_FAULT_SEED`, the default 0.0 under the zero-overhead
/// [`NullFaultPlan`]. Sinks attach as in [`run_with_sinks`].
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written, or if
/// one of the environment knobs holds an invalid value.
pub fn run_with_env<P: Probe>(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    probe: &mut P,
    stem: &str,
) -> (RunReport, Artifacts) {
    let rate = fault_rate();
    if rate > 0.0 {
        let mut plan = SeededFaultPlan::new(FaultConfig::with_rate(fault_seed(), rate));
        run_with_sinks(cfg, spec, probe, &mut plan, stem)
    } else {
        run_with_sinks(cfg, spec, probe, &mut NullFaultPlan, stem)
    }
}

/// Runs one (already scaled) workload on `cfg` under `probe` and
/// `plan`, attaching the observability sinks the environment selects
/// next to `probe`:
///
/// - `MCM_TRACE=<dir>` — write a Chrome trace-event JSON to
///   `<dir>/<stem>.trace.json` (load in Perfetto).
/// - `MCM_METRICS=<dir>` — write a utilization time-series CSV to
///   `<dir>/<stem>.metrics.csv`; bucket width from
///   `MCM_METRICS_BUCKET` (cycles).
///
/// Fault events reach the sinks, so fault windows show up in the
/// artifacts. Sweeps that run one `(configuration, workload)` pair
/// under several fault scenarios (the `resilience` harness) pass a
/// per-scenario `stem`, so the scenarios never overwrite each other's
/// files and may run in parallel.
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written, or if
/// `MCM_METRICS_BUCKET` holds an invalid value.
pub fn run_with_sinks<P: Probe, F: FaultPlan>(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    probe: &mut P,
    plan: &mut F,
    stem: &str,
) -> (RunReport, Artifacts) {
    let trace_dir = std::env::var_os("MCM_TRACE").map(PathBuf::from);
    let metrics_dir = std::env::var_os("MCM_METRICS").map(PathBuf::from);
    if trace_dir.is_none() && metrics_dir.is_none() {
        let report = Simulator::run_faulted(cfg, spec, probe, plan);
        return (report, Artifacts::default());
    }
    let mut sinks = (
        probe,
        (
            trace_dir.as_ref().map(|_| ChromeTraceProbe::new()),
            metrics_dir
                .as_ref()
                .map(|_| MetricsProbe::new(metrics_bucket(), cfg.topology.sms_per_module)),
        ),
    );
    let report = Simulator::run_faulted(cfg, spec, &mut sinks, plan);
    let (_, (trace, metrics)) = sinks;
    let mut written = Artifacts::default();
    if let (Some(dir), Some(mut trace)) = (trace_dir, trace) {
        std::fs::create_dir_all(&dir).expect("create MCM_TRACE directory");
        let path = dir.join(format!("{stem}.trace.json"));
        trace.save(&path).expect("write Chrome trace");
        written.trace = Some(path);
    }
    if let (Some(dir), Some(metrics)) = (metrics_dir, metrics) {
        std::fs::create_dir_all(&dir).expect("create MCM_METRICS directory");
        let path = dir.join(format!("{stem}.metrics.csv"));
        metrics.save(&path).expect("write metrics CSV");
        written.metrics = Some(path);
    }
    (report, written)
}

/// RAII guard that writes a snapshot of the global telemetry registry
/// when dropped, if `MCM_TELEMETRY=<path>` is set (JSON by default,
/// CSV when the path ends in `.csv`). Harness binaries construct one
/// at the top of `main`, so every exit path that unwinds or returns
/// flushes telemetry; binaries that call `std::process::exit` must
/// drop it explicitly first (`Drop` does not run past `exit`).
#[derive(Debug)]
pub struct TelemetryGuard {
    path: Option<PathBuf>,
    label: String,
}

/// Creates the process's [`TelemetryGuard`], labeling the snapshot
/// with the binary's file stem.
pub fn telemetry_guard() -> TelemetryGuard {
    let label = std::env::args()
        .next()
        .and_then(|a| {
            PathBuf::from(a)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "mcm".to_string());
    TelemetryGuard {
        path: std::env::var_os("MCM_TELEMETRY").map(PathBuf::from),
        label,
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let Some(path) = &self.path else { return };
        let snap = mcm_telemetry::global().snapshot();
        let result = if path.extension().is_some_and(|e| e == "csv") {
            match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => {
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, snap.to_csv()))
                }
                _ => std::fs::write(path, snap.to_csv()),
            }
        } else {
            snap.save_json(path, &self.label)
        };
        if let Err(e) = result {
            // A telemetry sink failure must not fail the run.
            eprintln!(
                "mcm: warning: could not write MCM_TELEMETRY snapshot to {}: {e}",
                path.display()
            );
        }
    }
}

/// Geometric-mean speedup of `cfg` over `baseline` for the workloads of
/// one `category` within `suite` (or all categories when `None`).
/// Uncached runs execute in parallel across `MCM_JOBS` workers.
///
/// # Panics
///
/// Panics, naming the category, when the filter selects zero workloads
/// — the geometric mean of an empty set has no value, and a figure
/// printing one would silently report garbage.
pub fn geomean_speedup(
    memo: &mut Memo,
    suite: &[WorkloadSpec],
    cfg: &SystemConfig,
    baseline: &SystemConfig,
    category: Option<Category>,
) -> f64 {
    let selected: Vec<&WorkloadSpec> = suite
        .iter()
        .filter(|w| category.is_none_or(|c| w.category == c))
        .collect();
    assert!(
        !selected.is_empty(),
        "no workloads in the {}-entry suite match category {:?}; \
         geomean speedup is undefined",
        suite.len(),
        category
    );
    let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = selected
        .iter()
        .flat_map(|w| [(cfg, *w), (baseline, *w)])
        .collect();
    memo.warm(&pairs);
    let speedups: Vec<f64> = selected
        .iter()
        .map(|w| {
            let r = memo.run(cfg, w);
            let b = memo.run(baseline, w);
            r.speedup_over(&b)
        })
        .collect();
    geomean(&speedups)
}

/// A plain-text table with right-aligned numeric columns, rendered the
/// way the paper's figure data would appear in a results log.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns: first column left-aligned, the
    /// rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[0]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        // `saturating_sub` guards the degenerate zero-column table,
        // which used to underflow here and abort the whole report.
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Formats a ratio as the percentage-speedup notation the paper uses
/// ("+22.8%" / "-4.7%").
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

/// Formats a value with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders `value` as a proportional bar of at most `width` cells
/// against `max` (the poor terminal's bar chart). Zero, negative, and
/// non-finite inputs (an all-zero or poisoned row) render as an empty
/// bar rather than a garbage cast.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    // `!(max > 0.0)` also catches NaN, which `max <= 0.0` lets through:
    // a NaN max used to survive to the division, cast to 0 cells, and
    // then clamp up to a one-cell bar — a silently fabricated datum.
    if !max.is_finite() || !value.is_finite() || max <= 0.0 || value <= 0.0 || width == 0 {
        return String::new();
    }
    let cells = ((value / max) * width as f64).round() as usize;
    "#".repeat(cells.clamp(1, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_workloads::suite;

    #[test]
    fn env_values_parse_and_unset_is_none() {
        assert_eq!(parse_env_value::<u32>("MCM_X", None), None);
        let v = std::ffi::OsString::from(" 42 ");
        assert_eq!(parse_env_value::<u32>("MCM_X", Some(&v)), Some(42));
    }

    #[test]
    #[should_panic(expected = "MCM_X must be a valid")]
    fn unparsable_env_values_panic_loudly() {
        let v = std::ffi::OsString::from("not-a-number");
        let _ = parse_env_value::<u32>("MCM_X", Some(&v));
    }

    /// Regression: `std::env::var(..).ok()` conflated "unset" with
    /// "set to non-Unicode bytes", so a knob holding invalid UTF-8
    /// silently fell back to its default instead of aborting.
    #[test]
    #[cfg(unix)]
    #[should_panic(expected = "MCM_X is set to non-Unicode bytes")]
    fn non_unicode_env_values_panic_instead_of_defaulting() {
        use std::os::unix::ffi::OsStrExt;
        let v = std::ffi::OsStr::from_bytes(b"0.\xff5");
        let _ = parse_env_value::<f64>("MCM_X", Some(v));
    }

    #[test]
    fn memo_caches_runs() {
        let mut memo = Memo::new(0.01);
        let cfg = SystemConfig::baseline_mcm();
        let spec = suite::by_name("CFD").unwrap();
        let a = memo.run(&cfg, &spec);
        let b = memo.run(&cfg, &spec);
        assert_eq!(a, b);
        assert_eq!(memo.cache.len(), 1);
    }

    #[test]
    fn memo_separates_same_name_different_params() {
        // Regression: the cache used to key on `cfg.name` alone, so a
        // tweaked config sharing a preset's name returned the preset's
        // stale report.
        let mut memo = Memo::new(0.01);
        let a = SystemConfig::baseline_mcm();
        let mut b = SystemConfig::baseline_mcm();
        b.topology.link_gbps /= 4.0;
        assert_eq!(a.name, b.name);
        let spec = suite::by_name("CFD").unwrap();
        let ra = memo.run(&a, &spec);
        let rb = memo.run(&b, &spec);
        assert_eq!(
            memo.cache.len(),
            2,
            "distinct configs must cache separately"
        );
        assert_ne!(
            ra.cycles, rb.cycles,
            "quartering link bandwidth must change the simulated run"
        );
    }

    /// An edited copy of a suite spec under the suite name: one field
    /// changed, enough to change the simulated run.
    fn edited_cfd() -> (WorkloadSpec, WorkloadSpec) {
        let spec = suite::by_name("CFD").unwrap();
        let mut edited = spec.clone();
        edited.locality.neighbor_frac += 0.05;
        assert_eq!(spec.name, edited.name);
        (spec, edited)
    }

    #[test]
    fn memo_separates_same_name_edited_specs() {
        // Regression: the cache keyed on the spec's name, so an edited
        // spec under a suite name was served the original's report.
        let mut memo = Memo::new(0.01);
        let cfg = SystemConfig::baseline_mcm();
        let (spec, edited) = edited_cfd();
        let original = memo.run(&cfg, &spec);
        let fresh = memo.run(&cfg, &edited);
        assert_eq!(memo.stats().misses, 2, "the edited spec must miss");
        assert_eq!(memo.cache.len(), 2);
        assert_eq!(fresh, run_instrumented(&cfg, &edited.scaled(0.01)));
        assert_ne!(original, fresh);
        // The warm planner keys the same way.
        let mut warm = Memo::new(0.01);
        warm.warm_with_jobs(1, &[(&cfg, &spec), (&cfg, &edited)]);
        assert_eq!(warm.stats().warm_planned, 2);
        assert_eq!(warm.stats().warm_deduped, 0);
    }

    #[test]
    fn artifact_stems_separate_same_name_configs() {
        let a = SystemConfig::baseline_mcm();
        let mut b = SystemConfig::baseline_mcm();
        b.sm.mlp_per_warp += 1;
        let spec = suite::by_name("CFD").unwrap();
        assert_ne!(artifact_stem(&a, &spec), artifact_stem(&b, &spec));
        assert_eq!(artifact_stem(&a, &spec), artifact_stem(&a, &spec));
        let (spec, edited) = edited_cfd();
        assert_ne!(artifact_stem(&a, &spec), artifact_stem(&a, &edited));
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn warm_planner_checks_the_stems_workers_write() {
        // Regression: the planner checked the unscaled spec's stem, but
        // a worker writes under the scaled spec's, which hashes another
        // instruction count. Two specs whose written stems clash (found
        // by a birthday search over the 32-bit stem hash) must fail
        // loud before either overwrites the other's artifacts.
        let cfg = SystemConfig::baseline_mcm();
        let base = suite::by_name("CFD").unwrap();
        let scale = 0.01;
        let with_seed = |seed| WorkloadSpec {
            seed,
            ..base.clone()
        };
        let mut seen: HashMap<String, u64> = HashMap::new();
        let (a, b) = (0u64..)
            .find_map(|seed| {
                let stem = artifact_stem(&cfg, &with_seed(seed).scaled(scale));
                seen.insert(stem, seed).map(|first| (first, seed))
            })
            .unwrap();
        let (a, b) = (with_seed(a), with_seed(b));
        assert_ne!(
            artifact_stem(&cfg, &a),
            artifact_stem(&cfg, &b),
            "the unscaled stems differ, so only the written stems clash"
        );
        Memo::new(scale).plan(&[(&cfg, &a), (&cfg, &b)]);
    }

    #[test]
    fn warm_plans_unique_pairs_and_fills_the_cache() {
        let mut memo = Memo::new(0.01);
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        // Duplicates in the grid plan once.
        memo.warm_with_jobs(2, &[(&cfg, &w1), (&cfg, &w1), (&opt, &w2)]);
        assert_eq!(memo.cache.len(), 2);
        // Warm again: everything is a cache hit, nothing re-plans.
        memo.warm_with_jobs(2, &[(&cfg, &w1), (&opt, &w2)]);
        assert_eq!(memo.cache.len(), 2);
    }

    #[test]
    fn memo_stats_track_hits_misses_and_dedupe() {
        let mut memo = Memo::new(0.01);
        let cfg = SystemConfig::baseline_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        assert_eq!(memo.stats(), MemoStats::default());
        memo.run(&cfg, &w1); // miss
        memo.run(&cfg, &w1); // hit
        memo.warm_with_jobs(1, &[(&cfg, &w1), (&cfg, &w2), (&cfg, &w2)]);
        memo.run(&cfg, &w2); // hit (warm filled it)
        let s = memo.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.warm_requested, 3);
        assert_eq!(s.warm_planned, 1, "one cached + one duplicate skipped");
        assert_eq!(s.warm_deduped, 1, "the repeated w2 is an exact dedupe");
        assert_eq!(s.store_hits, 0, "no store attached");
    }

    #[test]
    fn run_grid_matches_serial_runs_in_grid_order() {
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let pairs = [(&cfg, &w1), (&cfg, &w2), (&opt, &w1), (&opt, &w2)];

        let mut serial = Memo::new(0.01);
        let expect: Vec<RunReport> = pairs.iter().map(|(c, w)| serial.run(c, w)).collect();

        let mut parallel = Memo::new(0.01);
        let got = parallel.run_grid_with_jobs(3, &pairs);
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_warm_matches_run_suite() {
        let cfg = SystemConfig::baseline_mcm();
        let subset: Vec<WorkloadSpec> = ["CFD", "Stream", "Hotspot"]
            .iter()
            .map(|n| suite::by_name(n).unwrap())
            .collect();
        let mut a = Memo::new(0.01);
        let mut b = Memo::new(0.01);
        let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = subset.iter().map(|w| (&cfg, w)).collect();
        b.warm_with_jobs(4, &pairs);
        assert_eq!(a.run_suite(&cfg, &subset), b.run_suite(&cfg, &subset));
    }

    #[test]
    #[should_panic(expected = "match category")]
    fn geomean_speedup_names_the_empty_category() {
        // A suite with no limited-parallelism workloads must fail loud,
        // not feed an empty slice to `geomean`.
        let mut memo = Memo::new(0.01);
        let suite: Vec<WorkloadSpec> = vec![suite::by_name("CFD").unwrap()];
        let cfg = SystemConfig::optimized_mcm();
        let base = SystemConfig::baseline_mcm();
        geomean_speedup(
            &mut memo,
            &suite,
            &cfg,
            &base,
            Some(Category::LimitedParallelism),
        );
    }

    #[test]
    fn zero_column_table_renders_without_underflow() {
        // Regression: `2 * (cols - 1)` underflowed for an empty header.
        let t = TextTable::new(Vec::<String>::new());
        let s = t.render();
        assert!(s.contains('\n'));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1.00"]);
        t.row(vec!["longer-name", "12.34"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12.34"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(100.0, 10.0, 10), "##########");
        assert_eq!(bar(0.01, 10.0, 10), "#");
        assert_eq!(bar(1.0, 0.0, 10), "");
        assert_eq!(bar(-1.0, 10.0, 10), "");
    }

    /// Regression: a NaN `max` (e.g. 0/0 from an all-zero row upstream)
    /// slipped past the `max <= 0.0` guard, the NaN quotient cast to 0
    /// cells, and the clamp then drew a one-cell bar out of nothing.
    /// Non-finite inputs must render empty, like the other degenerate
    /// rows.
    #[test]
    fn bar_rejects_non_finite_inputs() {
        assert_eq!(bar(1.0, f64::NAN, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
        assert_eq!(bar(1.0, f64::INFINITY, 10), "");
        assert_eq!(bar(f64::INFINITY, 10.0, 10), "");
        assert_eq!(bar(1.0, f64::NEG_INFINITY, 10), "");
        assert_eq!(bar(5.0, 10.0, 0), "");
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(1.228), "+22.8%");
        assert_eq!(pct(0.953), "-4.7%");
    }

    #[test]
    fn parse_checked_accepts_valid_values() {
        assert_eq!(parse_checked::<f64>("MCM_SCALE", "0.25"), 0.25);
        assert_eq!(parse_checked::<u64>("MCM_FAULT_SEED", " 42 "), 42);
    }

    #[test]
    #[should_panic(expected = "MCM_SCALE must be a valid")]
    fn parse_checked_names_the_variable_and_value() {
        parse_checked::<f64>("MCM_SCALE", "fast");
    }

    #[test]
    fn fault_knobs_default_sanely() {
        // The harness process does not set the fault variables, so the
        // defaults apply: no injection, reproducible seed.
        assert_eq!(fault_rate(), 0.0);
        assert_eq!(fault_seed(), FaultConfig::default().seed);
    }

    #[test]
    fn store_backed_memo_warm_starts_across_instances() {
        let dir = mcm_testkit::tempdir::TempDir::new("memo-store");
        let cfg = SystemConfig::baseline_mcm();
        let spec = suite::by_name("CFD").unwrap();
        // First process: simulates and persists.
        let mut cold = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        let r1 = cold.run(&cfg, &spec);
        assert_eq!(cold.stats().misses, 1);
        assert_eq!(cold.store().unwrap().stats().puts, 1);
        drop(cold);
        // Second "process": same knobs, fresh Memo — served from disk,
        // bit-exact, zero simulations.
        let mut warm = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        let r2 = warm.run(&cfg, &spec);
        assert_eq!(r1, r2);
        assert_eq!(warm.stats().misses, 0, "no simulation on the warm path");
        assert_eq!(warm.stats().store_hits, 1);
    }

    #[test]
    fn store_key_separates_scales() {
        // The same pair at a different MCM_SCALE must be a different
        // store key: a warm start must never serve a result computed
        // at another scale.
        let dir = mcm_testkit::tempdir::TempDir::new("memo-scale");
        let cfg = SystemConfig::baseline_mcm();
        let spec = suite::by_name("CFD").unwrap();
        let mut a = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        let ra = a.run(&cfg, &spec);
        drop(a);
        let mut b = Memo::with_store(0.02, Store::open(dir.path()).unwrap());
        let rb = b.run(&cfg, &spec);
        assert_eq!(b.stats().store_hits, 0, "different scale must miss");
        assert_eq!(b.stats().misses, 1);
        assert_ne!(ra.cycles, rb.cycles);
    }

    #[test]
    fn store_key_separates_same_name_edited_specs() {
        // Regression: the store key hashed the spec's name and scaled
        // instruction count only, so a process with an edited suite
        // spec was served the original spec's stored report.
        let dir = mcm_testkit::tempdir::TempDir::new("memo-edited");
        let cfg = SystemConfig::baseline_mcm();
        let (spec, edited) = edited_cfd();
        assert_ne!(
            pair_fingerprint(0.01, &cfg, &spec),
            pair_fingerprint(0.01, &cfg, &edited)
        );
        let mut a = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        let original = a.run(&cfg, &spec);
        drop(a);
        let mut b = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        let fresh = b.run(&cfg, &edited);
        assert_eq!(b.stats().store_hits, 0, "an edited spec must miss");
        assert_eq!(b.stats().misses, 1);
        assert_eq!(fresh, run_instrumented(&cfg, &edited.scaled(0.01)));
        assert_ne!(original, fresh);
        // The original is still served from disk.
        let mut c = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        assert_eq!(c.run(&cfg, &spec), original);
        assert_eq!(c.stats().store_hits, 1);
    }

    #[test]
    fn warm_persists_from_workers_and_warm_starts() {
        let dir = mcm_testkit::tempdir::TempDir::new("memo-warm-store");
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let pairs = [(&cfg, &w1), (&opt, &w1), (&cfg, &w2), (&opt, &w2)];
        let mut cold = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        cold.warm_with_jobs(3, &pairs);
        assert_eq!(cold.store().unwrap().stats().puts, 4);
        let expect: Vec<RunReport> = pairs.iter().map(|(c, w)| cold.run(c, w)).collect();
        drop(cold);
        let mut warm = Memo::with_store(0.01, Store::open(dir.path()).unwrap());
        warm.warm_with_jobs(3, &pairs);
        assert_eq!(warm.stats().warm_planned, 0, "everything on disk");
        assert_eq!(warm.stats().store_hits, 4);
        let got: Vec<RunReport> = pairs.iter().map(|(c, w)| warm.run(c, w)).collect();
        assert_eq!(got, expect, "warm-started reports must be bit-exact");
    }

    #[test]
    fn supervised_warm_quarantines_named_pairs_identically_at_any_job_count() {
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let pairs = [(&cfg, &w1), (&opt, &w1), (&cfg, &w2), (&opt, &w2)];
        let check = |jobs: usize| -> Vec<PairFailure> {
            let mut memo = Memo::new(0.01);
            memo.warm_runner(jobs, 1, &pairs, |cfg, scaled| {
                assert!(
                    !(cfg.name == opt.name && scaled.name == "CFD"),
                    "injected fault"
                );
                run_instrumented(cfg, scaled)
            })
        };
        let serial = check(1);
        let parallel = check(4);
        assert_eq!(serial, parallel, "report must not depend on job count");
        assert_eq!(serial.len(), 1);
        assert_eq!(serial[0].config, opt.name);
        assert_eq!(serial[0].workload, "CFD");
        assert_eq!(serial[0].failure.attempts, 2);
        assert!(serial[0].failure.message.contains("injected fault"));
        assert!(serial[0]
            .to_string()
            .starts_with(&format!("QUARANTINED ({:?}, \"CFD\")", opt.name)));
    }

    #[test]
    fn supervised_warm_completes_and_caches_healthy_pairs() {
        let cfg = SystemConfig::baseline_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let pairs = [(&cfg, &w1), (&cfg, &w2)];
        let mut memo = Memo::new(0.01);
        let failures = memo.warm_runner(2, 0, &pairs, |cfg, scaled| {
            assert!(scaled.name != "Stream", "bad workload");
            run_instrumented(cfg, scaled)
        });
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].workload, "Stream");
        // The healthy pair is cached; the quarantined one is not and
        // re-attempts (successfully, without the injected fault) on use.
        assert_eq!(memo.stats().warm_planned, 2);
        memo.run(&cfg, &w1);
        assert_eq!(memo.stats().hits, 1);
        memo.run(&cfg, &w2);
        assert_eq!(memo.stats().misses, 1, "quarantined pair re-simulates");
    }

    #[test]
    fn unsupervised_warm_panics_name_the_pair() {
        let cfg = SystemConfig::baseline_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let mut memo = Memo::new(0.01);
        let failures = memo.warm_runner(1, 0, &[(&cfg, &w1)], |_, _| -> RunReport {
            panic!("sim exploded")
        });
        let caught = std::panic::catch_unwind(|| fail_fast(&failures))
            .expect_err("a failed warm must panic");
        let msg = mcm_exec::pool::panic_message(caught.as_ref());
        assert_eq!(
            msg,
            format!(
                "grid worker panicked at grid index 0: ({:?}, \"CFD\"): sim exploded",
                cfg.name
            )
        );
        fail_fast(&[]);
    }
}

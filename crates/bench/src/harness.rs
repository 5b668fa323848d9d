//! Shared machinery for the figure/table harness binaries: scaled,
//! memoized simulation runs and plain-text table rendering.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::OnceLock;

use mcm_engine::rng::StableHasher;
use mcm_engine::stats::geomean;
use mcm_exec::pool::TaskFailure;
use mcm_fault::inject::scripted_task_panic;
use mcm_fault::{FaultConfig, FaultPlan, NullFaultPlan, SeededFaultPlan};
use mcm_gpu::{RunReport, Simulator, SystemConfig};
use mcm_probe::{ChromeTraceProbe, MetricsProbe, NullProbe, Probe};
use mcm_store::Store;
use mcm_telemetry::{Class, Counter};
use mcm_workloads::{Category, WorkloadSpec};

use crate::env::RunEnv;

/// The persistent [`Store`] at `env.store`, armed with its crash drill;
/// `None` when no store is set. Panics when the directory cannot be
/// opened at all — a mistyped knob must abort the run, not silently
/// fall back to volatile caching.
pub(crate) fn open_store(env: &RunEnv) -> Option<Store> {
    let dir = env.store.as_ref()?;
    let store = Store::open(dir).unwrap_or_else(|e| {
        panic!(
            "MCM_STORE: cannot open result store at {}: {e}",
            dir.display()
        )
    });
    Some(store.with_crash_after(env.store_crash_after))
}

/// A memoizing runner: each `(configuration, workload)` pair is
/// simulated once per process, so figures that share configurations
/// (e.g. every figure needs the baseline) don't re-run it.
///
/// The cache keys on each [`Pair`]'s key — content fingerprints, not
/// display names — so two configurations or specs that share a name but
/// differ in any parameter are simulated (and cached) separately.
///
/// A harness process warms everything it will read in one
/// [`Memo::warm`] call, which plans the unique uncached pairs up front
/// and dispatches them across the [`RunEnv`]'s worker threads via
/// [`mcm_exec`]. Rendering then reads through [`Memo::get`], which
/// takes `&self` and so cannot simulate: every figure, table, and
/// artifact is byte-identical regardless of the job count.
///
/// With a persistent [`Store`] attached (`MCM_STORE=<dir>`, see
/// [`Memo::new`]), the cache additionally survives the process:
/// every fresh simulation is durably committed as it completes, and
/// later processes (or a restart after a crash) serve those pairs from
/// disk under the same key, which folds in everything that determines
/// a result, so a knob change or an edited spec is a different key,
/// never a stale hit.
#[derive(Debug)]
pub struct Memo {
    env: RunEnv,
    cache: HashMap<u64, RunReport>,
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
}

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
        }
    })
}

/// One `(configuration, workload)` pair under a run context, with every
/// name the pair goes by. [`Pair::new`] is the one place a pair is
/// hashed, into two names:
///
/// - the *key*, which every cache names the pair's result by: the
///   memo's in-process cache and its warm dedupe, `MCM_STORE`, and the
///   sweep daemon's rendered cache and in-flight registry. It must
///   survive the process, so it folds in everything the run context
///   contributes to a result: the configuration's
///   [`fingerprint`](SystemConfig::fingerprint), the scaled spec's
///   [`fingerprint`](WorkloadSpec::fingerprint) (which captures the
///   scale and any edit to a suite entry) and the fault rate and seed
///   (the seed even at rate 0);
/// - the artifact-file [`stem`](Pair::stem): the collapsed display
///   names plus a 32-bit hash of both fingerprints. Two runs share a
///   stem only if they would simulate identically, so parallel workers
///   never race on an artifact file, even for configs or specs that
///   share a display name but differ in a parameter.
///
/// The fields are private because the names are derived from the rest.
#[derive(Debug, Clone)]
pub struct Pair<'c> {
    pub(crate) cfg: &'c SystemConfig,
    /// The workload spec scaled to the run context: what the pair
    /// simulates.
    pub(crate) spec: WorkloadSpec,
    pub(crate) key: u64,
    pub(crate) stem: String,
}

impl<'c> Pair<'c> {
    /// `spec` (unscaled) on `cfg` under `env`.
    pub fn new(env: &RunEnv, cfg: &'c SystemConfig, spec: &WorkloadSpec) -> Self {
        let spec = spec.scaled(env.scale);
        let mut h = StableHasher::new();
        h.write_u64(cfg.fingerprint());
        h.write_u64(spec.fingerprint());
        // The stem hashes the two fingerprints; the key goes on to fold
        // in the fault settings.
        let stem = format!(
            "{}__{}-{:08x}",
            collapse(&cfg.name),
            collapse(spec.name),
            h.finish() as u32
        );
        h.write_f64(env.fault_rate);
        h.write_u64(env.fault_seed);
        Pair {
            cfg,
            spec,
            key: h.finish(),
            stem,
        }
    }

    /// The scaled workload spec the pair simulates.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The stem the pair's trace and metrics files are named by.
    pub fn stem(&self) -> &str {
        &self.stem
    }

    /// The report `store` holds for this pair, if any.
    pub(crate) fn stored(&self, store: Option<&Store>) -> Option<RunReport> {
        store?.get(self.key, self.spec.name)
    }

    /// Simulates this pair with `sim` ([`run_instrumented`], or a
    /// test's own fault) and commits the report to `store` before
    /// returning it, so a crash mid-sweep keeps every finished result.
    pub(crate) fn simulate<G>(&self, env: &RunEnv, store: Option<&Store>, sim: G) -> RunReport
    where
        G: Fn(&RunEnv, &Pair) -> RunReport,
    {
        let report = sim(env, self);
        if let Some(store) = store {
            store.put(self.key, self.spec.name, &report);
        }
        report
    }
}

/// The [`Pair`] key of an unfaulted run at `scale`: rate 0 and the
/// default fault seed.
pub fn pair_fingerprint(scale: f64, cfg: &SystemConfig, spec: &WorkloadSpec) -> u64 {
    Pair::new(&RunEnv::at_scale(scale), cfg, spec).key
}

impl Memo {
    /// Creates the runner for `env`. With `env.store` set, attaches the
    /// persistent [`Store`] at that directory, so results survive (and
    /// are served across) process restarts.
    ///
    /// # Panics
    ///
    /// Panics when `env.store` is set but the directory cannot be
    /// opened at all. On-disk *corruption* is not an error: damaged
    /// records are quarantined as misses by the store's recovery scan.
    pub fn new(env: RunEnv) -> Self {
        Memo {
            store: open_store(&env),
            env,
            cache: HashMap::new(),
            stats: MemoStats::default(),
        }
    }

    /// Creates an unfaulted runner at `scale` backed by an already open
    /// [`Store`] (see [`RunEnv::at_scale`]).
    pub fn with_store(scale: f64, store: Store) -> Self {
        Memo {
            store: Some(store),
            ..Memo::new(RunEnv::at_scale(scale))
        }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The workload scale in force.
    pub fn scale(&self) -> f64 {
        self.env.scale
    }

    /// Runs `spec` (scaled) on `cfg`, memoized — in-process first, then
    /// the persistent store (when attached), then a fresh simulation
    /// (which is durably committed to the store as it completes).
    ///
    /// Fresh (non-memoized) runs honour the memo's fault, sink and
    /// script settings: see [`run_instrumented`].
    pub fn run(&mut self, cfg: &SystemConfig, spec: &WorkloadSpec) -> RunReport {
        let pair = Pair::new(&self.env, cfg, spec);
        if let Some(r) = self.cache.get(&pair.key) {
            self.stats.hits += 1;
            memo_tele().hits.inc();
            return r.clone();
        }
        let report = if let Some(r) = pair.stored(self.store.as_ref()) {
            self.stats.store_hits += 1;
            memo_tele().store_hits.inc();
            r
        } else {
            self.stats.misses += 1;
            memo_tele().misses.inc();
            pair.simulate(&self.env, self.store.as_ref(), run_instrumented)
        };
        self.cache.insert(pair.key, report.clone());
        report
    }

    /// The cached report of `spec` (scaled) on `cfg`. Renderers read
    /// through this, so rendering never simulates.
    ///
    /// # Panics
    ///
    /// Panics, naming the pair, when no warm has cached it: the pair is
    /// missing from the grid that was warmed, or a supervised warm
    /// quarantined it.
    pub fn get(&self, cfg: &SystemConfig, spec: &WorkloadSpec) -> &RunReport {
        let key = Pair::new(&self.env, cfg, spec).key;
        self.cache.get(&key).unwrap_or_else(|| {
            panic!(
                "no warmed report for ({:?}, {:?}): warm every pair before rendering",
                cfg.name, spec.name
            )
        })
    }

    /// Simulates every uncached `(configuration, workload)` pair in
    /// `pairs` across the memo's `jobs` worker threads and memoizes the
    /// results for [`Memo::get`]. A harness makes one call with every
    /// pair it will render.
    ///
    /// Planning happens up front in grid order: duplicates and
    /// already-cached pairs are dropped, artifact stems are checked for
    /// collisions (see [`Pair::stem`]), and results are merged back
    /// in plan order — output never depends on thread scheduling.
    ///
    /// Under `supervised`, a panicking pair is retried `retries` times
    /// and then quarantined — reported on stderr, left uncached, so a
    /// later [`Memo::run`] re-attempts it — while every other pair
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if two planned pairs would write the same artifact stem,
    /// or (unsupervised) if a simulation panicked; see
    /// [`Memo::warm_with_jobs`].
    pub fn warm(&mut self, pairs: &[(&SystemConfig, &WorkloadSpec)]) {
        if self.env.supervised {
            for failure in
                self.warm_runner(self.env.jobs, self.env.retries, pairs, run_instrumented)
            {
                eprintln!("mcm: exec: {failure}");
            }
        } else {
            self.warm_with_jobs(self.env.jobs, pairs);
        }
    }

    /// Plans one warm call: drops pairs already in the in-process
    /// cache, dedupes *exact* duplicates by key (counted in
    /// `memo.warm_deduped`), serves pairs present in the persistent
    /// store straight into the cache, checks the survivors' artifact
    /// stems for collisions, and books the `memo.*` accounting. Returns
    /// the pairs that genuinely need simulating, in grid order.
    fn plan<'p>(&mut self, pairs: &[(&'p SystemConfig, &'p WorkloadSpec)]) -> Vec<Pair<'p>> {
        let mut planned: Vec<Pair> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stems: HashMap<String, usize> = HashMap::new();
        let mut deduped = 0u64;
        let mut store_hits = 0u64;
        for &(cfg, spec) in pairs {
            let pair = Pair::new(&self.env, cfg, spec);
            if self.cache.contains_key(&pair.key) {
                continue;
            }
            // Exact-pair dedupe, decided on the full content key, never
            // on a name or a truncated stem hash.
            if !seen.insert(pair.key) {
                deduped += 1;
                continue;
            }
            if let Some(r) = pair.stored(self.store.as_ref()) {
                store_hits += 1;
                self.cache.insert(pair.key, r);
                continue;
            }
            // A *different* pair mapping to the same stem would silently
            // overwrite artifacts; fail loud instead.
            if let Some(&first) = stems.get(&pair.stem) {
                let first = &planned[first];
                panic!(
                    "artifact stem {:?} collides: ({:?}, {:?}) vs ({:?}, {:?})",
                    pair.stem, first.cfg.name, first.spec.name, cfg.name, spec.name
                );
            }
            stems.insert(pair.stem.clone(), planned.len());
            planned.push(pair);
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
        planned
    }

    /// [`Memo::warm`] unsupervised, with an explicit worker count.
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

    /// The one warm runner: plans `pairs`, runs the planned grid under
    /// [`mcm_exec::pool::run_grid_supervised`] with `sim`
    /// ([`run_instrumented`], or a test's own fault), caches every
    /// result, and names each quarantined pair.
    fn warm_runner<G>(
        &mut self,
        jobs: usize,
        retries: u32,
        pairs: &[(&SystemConfig, &WorkloadSpec)],
        sim: G,
    ) -> Vec<PairFailure>
    where
        G: Fn(&RunEnv, &Pair) -> RunReport + Sync,
    {
        let planned = self.plan(pairs);
        let (env, store) = (&self.env, self.store.as_ref());
        // Each worker commits its own result, not the merge after it: a
        // crash mid-sweep keeps every already-finished pair.
        let grid = mcm_exec::pool::run_grid_supervised(&planned, jobs, retries, |_, pair| {
            pair.simulate(env, store, &sim)
        });
        for (pair, report) in planned.iter().zip(grid.results) {
            if let Some(report) = report {
                self.cache.insert(pair.key, report);
            }
        }
        grid.failures
            .into_iter()
            .map(|failure| {
                let pair = &planned[failure.index];
                PairFailure {
                    config: pair.cfg.name.clone(),
                    workload: pair.spec.name.to_string(),
                    failure,
                }
            })
            .collect()
    }

    /// This instance's hit/miss/warm accounting.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// All reports produced so far, sorted by (configuration, workload)
    /// for deterministic output. Two configurations that share a name
    /// are ordered by their cache key, not by the hash map's seed.
    pub fn reports(&self) -> Vec<&RunReport> {
        let mut all: Vec<(&u64, &RunReport)> = self.cache.iter().collect();
        all.sort_by(|(ka, a), (kb, b)| {
            (&a.config, &a.workload, ka).cmp(&(&b.config, &b.workload, kb))
        });
        all.into_iter().map(|(_, r)| r).collect()
    }
}

/// One quarantined `(configuration, workload)` pair from a supervised
/// warm ([`Memo::warm`]): the pair's names plus
/// the underlying executor-level [`TaskFailure`] (grid index, attempt
/// count, last panic message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairFailure {
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

/// Runs one pair the way every harness sweep does: `env`'s scripted
/// worker fault fires first (when one is set; the deterministic crash
/// the supervised executor is exercised against), then [`run_with_env`]
/// picks the fault plan and the sinks, naming artifacts by
/// [`Pair::stem`].
///
/// With no fault, sink or script set this is exactly
/// [`Simulator::run`]: the null hooks monomorphize to no
/// instrumentation.
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written, or
/// when the scripted fault fires.
pub fn run_instrumented(env: &RunEnv, pair: &Pair) -> RunReport {
    if let Some(script) = &env.task_panic {
        scripted_task_panic(script, &pair.cfg.name, pair.spec.name);
    }
    run_with_env(env, pair.cfg, &pair.spec, &mut NullProbe, &pair.stem).0
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
/// fault plan `env` picks: a positive fault rate runs under a
/// [`SeededFaultPlan`] seeded from `env.fault_seed`, rate 0 under the
/// zero-overhead [`NullFaultPlan`]. Sinks attach as in
/// [`run_with_sinks`].
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written.
pub fn run_with_env<P: Probe>(
    env: &RunEnv,
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    probe: &mut P,
    stem: &str,
) -> (RunReport, Artifacts) {
    if env.fault_rate > 0.0 {
        let mut plan = SeededFaultPlan::new(FaultConfig::with_rate(env.fault_seed, env.fault_rate));
        run_with_sinks(env, cfg, spec, probe, &mut plan, stem)
    } else {
        run_with_sinks(env, cfg, spec, probe, &mut NullFaultPlan, stem)
    }
}

/// Runs one (already scaled) workload on `cfg` under `probe` and
/// `plan`, attaching the observability sinks `env` selects next to
/// `probe`:
///
/// - `trace` (`MCM_TRACE=<dir>`) — write a Chrome trace-event JSON to
///   `<dir>/<stem>.trace.json` (load in Perfetto).
/// - `metrics` (`MCM_METRICS=<dir>`) — write a utilization time-series
///   CSV to `<dir>/<stem>.metrics.csv`, in buckets of
///   `metrics_bucket` cycles.
///
/// Fault events reach the sinks, so fault windows show up in the
/// artifacts. Sweeps that run one `(configuration, workload)` pair
/// under several fault scenarios (the `resilience` harness) pass a
/// per-scenario `stem`, so the scenarios never overwrite each other's
/// files and may run in parallel.
///
/// # Panics
///
/// Panics if an artifact directory cannot be created or written.
pub fn run_with_sinks<P: Probe, F: FaultPlan>(
    env: &RunEnv,
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    probe: &mut P,
    plan: &mut F,
    stem: &str,
) -> (RunReport, Artifacts) {
    if env.trace.is_none() && env.metrics.is_none() {
        let report = Simulator::run_faulted(cfg, spec, probe, plan);
        return (report, Artifacts::default());
    }
    let mut sinks = (
        probe,
        (
            env.trace.as_ref().map(|_| ChromeTraceProbe::new()),
            env.metrics
                .as_ref()
                .map(|_| MetricsProbe::new(env.metrics_bucket, cfg.topology.sms_per_module)),
        ),
    );
    let report = Simulator::run_faulted(cfg, spec, &mut sinks, plan);
    let (_, (trace, metrics)) = sinks;
    let mut written = Artifacts::default();
    if let (Some(dir), Some(mut trace)) = (&env.trace, trace) {
        std::fs::create_dir_all(dir).expect("create MCM_TRACE directory");
        let path = dir.join(format!("{stem}.trace.json"));
        trace.save(&path).expect("write Chrome trace");
        written.trace = Some(path);
    }
    if let (Some(dir), Some(metrics)) = (&env.metrics, metrics) {
        std::fs::create_dir_all(dir).expect("create MCM_METRICS directory");
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

/// Creates the process's [`TelemetryGuard`] for `env.telemetry`,
/// labeling the snapshot with the binary's file stem.
pub fn telemetry_guard(env: &RunEnv) -> TelemetryGuard {
    let label = std::env::args()
        .next()
        .and_then(|a| {
            PathBuf::from(a)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "mcm".to_string());
    TelemetryGuard {
        path: env.telemetry.clone(),
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
/// one `category` within `suite` (or all categories when `None`), read
/// from `memo`, which must already hold both configurations' runs.
///
/// # Panics
///
/// Panics, naming the category, when the filter selects zero workloads
/// — the geometric mean of an empty set has no value, and a figure
/// printing one would silently report garbage. Panics, naming the
/// pair, when `memo` lacks a run (see [`Memo::get`]).
pub fn geomean_speedup(
    memo: &Memo,
    suite: &[WorkloadSpec],
    cfg: &SystemConfig,
    baseline: &SystemConfig,
    category: Option<Category>,
) -> f64 {
    let speedups: Vec<f64> = suite
        .iter()
        .filter(|w| category.is_none_or(|c| w.category == c))
        .map(|w| memo.get(cfg, w).speedup_over(memo.get(baseline, w)))
        .collect();
    assert!(
        !speedups.is_empty(),
        "no workloads in the {}-entry suite match category {:?}; \
         geomean speedup is undefined",
        suite.len(),
        category
    );
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
    use mcm_fault::inject::TaskPanicScript;
    use mcm_workloads::suite;

    #[test]
    fn memo_caches_runs() {
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
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
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
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
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
        let cfg = SystemConfig::baseline_mcm();
        let (spec, edited) = edited_cfd();
        let original = memo.run(&cfg, &spec);
        let fresh = memo.run(&cfg, &edited);
        assert_eq!(memo.stats().misses, 2, "the edited spec must miss");
        assert_eq!(memo.cache.len(), 2);
        let env = RunEnv::at_scale(0.01);
        assert_eq!(
            fresh,
            run_instrumented(&env, &Pair::new(&env, &cfg, &edited))
        );
        assert_ne!(original, fresh);
        // The warm planner keys the same way.
        let mut warm = Memo::new(RunEnv::at_scale(0.01));
        warm.warm_with_jobs(1, &[(&cfg, &spec), (&cfg, &edited)]);
        assert_eq!(warm.stats().warm_planned, 2);
        assert_eq!(warm.stats().warm_deduped, 0);
    }

    /// The artifact stem of `spec` on `cfg` at `scale`.
    fn stem(scale: f64, cfg: &SystemConfig, spec: &WorkloadSpec) -> String {
        Pair::new(&RunEnv::at_scale(scale), cfg, spec).stem
    }

    #[test]
    fn artifact_stems_separate_same_name_configs() {
        let a = SystemConfig::baseline_mcm();
        let mut b = SystemConfig::baseline_mcm();
        b.sm.mlp_per_warp += 1;
        let spec = suite::by_name("CFD").unwrap();
        assert_ne!(stem(1.0, &a, &spec), stem(1.0, &b, &spec));
        assert_eq!(stem(1.0, &a, &spec), stem(1.0, &a, &spec));
        let (spec, edited) = edited_cfd();
        assert_ne!(stem(1.0, &a, &spec), stem(1.0, &a, &edited));
    }

    /// Store keys and artifact stems name records and files that outlive
    /// the process: a change that moves one strands every store and
    /// artifact directory written before it.
    #[test]
    fn pair_keys_and_artifact_stems_do_not_move() {
        let cfd = suite::by_name("CFD").unwrap();
        let stream = suite::by_name("Stream").unwrap();
        let baseline = SystemConfig::baseline_mcm();
        assert_eq!(
            pair_fingerprint(0.01, &baseline, &cfd),
            0x0fb0_ec8d_5d29_723a
        );
        assert_eq!(
            pair_fingerprint(0.5, &SystemConfig::optimized_mcm(), &stream),
            0x6f41_61c8_e5c2_79f8
        );
        assert_eq!(
            stem(0.01, &baseline, &cfd),
            "MCM-GPU-baseline-768-GB-s__CFD-a14e323d"
        );
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
                let stem = stem(scale, &cfg, &with_seed(seed));
                seen.insert(stem, seed).map(|first| (first, seed))
            })
            .unwrap();
        let (a, b) = (with_seed(a), with_seed(b));
        assert_ne!(
            stem(1.0, &cfg, &a),
            stem(1.0, &cfg, &b),
            "the unscaled stems differ, so only the written stems clash"
        );
        Memo::new(RunEnv::at_scale(scale)).plan(&[(&cfg, &a), (&cfg, &b)]);
    }

    #[test]
    fn warm_plans_unique_pairs_and_fills_the_cache() {
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
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
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
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
    fn parallel_warm_matches_serial_runs_in_grid_order() {
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let [w1, w2, w3] = ["CFD", "Stream", "Hotspot"].map(|n| suite::by_name(n).unwrap());
        let grid = [(&cfg, &w1), (&cfg, &w2), (&opt, &w1), (&opt, &w2)];
        let one_config = [(&cfg, &w1), (&cfg, &w2), (&cfg, &w3)];
        for (jobs, pairs) in [(3, &grid[..]), (4, &one_config[..])] {
            let mut serial = Memo::new(RunEnv::at_scale(0.01));
            let expect: Vec<RunReport> = pairs.iter().map(|(c, w)| serial.run(c, w)).collect();
            let mut parallel = Memo::new(RunEnv::at_scale(0.01));
            parallel.warm_with_jobs(jobs, pairs);
            let got: Vec<&RunReport> = pairs.iter().map(|(c, w)| parallel.get(c, w)).collect();
            assert!(got.into_iter().eq(&expect), "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "no warmed report for (\"MCM-GPU baseline (768 GB/s)\", \"CFD\")")]
    fn get_panics_naming_an_unwarmed_pair() {
        let spec = suite::by_name("CFD").unwrap();
        Memo::new(RunEnv::at_scale(0.01)).get(&SystemConfig::baseline_mcm(), &spec);
    }

    #[test]
    fn reports_break_name_ties_on_the_cache_key() {
        // Two configurations under one display name: `runs.csv` must
        // list their rows in one order in every process, whatever seed
        // each process's hash map draws.
        let a = SystemConfig::baseline_mcm();
        let mut b = a.clone();
        b.topology.link_gbps /= 4.0;
        let spec = suite::by_name("CFD").unwrap();
        let mut warm = Memo::new(RunEnv::at_scale(0.01));
        warm.warm_with_jobs(1, &[(&a, &spec), (&b, &spec)]);
        let mut want: Vec<(&u64, &RunReport)> = warm.cache.iter().collect();
        want.sort_by_key(|(key, _)| **key);
        // Each map below draws its own hash seed.
        for _ in 0..16 {
            let mut memo = Memo::new(RunEnv::at_scale(0.01));
            memo.cache
                .extend(want.iter().map(|(k, r)| (**k, (*r).clone())));
            assert!(memo.reports().into_iter().eq(want.iter().map(|(_, r)| *r)));
        }
    }

    #[test]
    #[should_panic(expected = "match category")]
    fn geomean_speedup_names_the_empty_category() {
        // A suite with no limited-parallelism workloads must fail loud,
        // not feed an empty slice to `geomean`.
        let memo = Memo::new(RunEnv::at_scale(0.01));
        let suite: Vec<WorkloadSpec> = vec![suite::by_name("CFD").unwrap()];
        let cfg = SystemConfig::optimized_mcm();
        let base = SystemConfig::baseline_mcm();
        geomean_speedup(
            &memo,
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
    fn pair_keys_separate_scales() {
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
    fn pair_keys_separate_same_name_edited_specs() {
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
        let env = RunEnv::at_scale(0.01);
        assert_eq!(
            fresh,
            run_instrumented(&env, &Pair::new(&env, &cfg, &edited))
        );
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

    /// One pair at fault rates 0 and 0.01 against one store: two
    /// records and two reports, and a fresh memo at 0.01 is served the
    /// faulted one.
    #[test]
    fn one_store_keeps_a_pair_at_two_fault_rates_apart() {
        let dir = mcm_testkit::tempdir::TempDir::new("memo-fault-rates");
        let cfg = SystemConfig::baseline_mcm();
        let spec = suite::by_name("CFD").unwrap();
        let at = |fault_rate| {
            Memo::new(RunEnv {
                fault_rate,
                store: Some(dir.path().to_path_buf()),
                ..RunEnv::at_scale(0.01)
            })
        };
        let healthy = at(0.0).run(&cfg, &spec);
        let degraded = at(0.01).run(&cfg, &spec);
        assert_ne!(healthy, degraded);
        let mut warm = at(0.01);
        assert_eq!(warm.store().unwrap().stats().recovered, 2);
        assert_eq!(warm.run(&cfg, &spec), degraded);
        assert_eq!(warm.stats().store_hits, 1);
    }

    #[test]
    fn supervised_warm_quarantines_named_pairs_identically_at_any_job_count() {
        let cfg = SystemConfig::baseline_mcm();
        let opt = SystemConfig::optimized_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let pairs = [(&cfg, &w1), (&opt, &w1), (&cfg, &w2), (&opt, &w2)];
        let check = |jobs: usize| -> Vec<PairFailure> {
            let mut memo = Memo::new(RunEnv {
                task_panic: Some(TaskPanicScript::new("CFD", u64::MAX)),
                ..RunEnv::at_scale(0.01)
            });
            memo.warm_runner(jobs, 1, &pairs, run_instrumented)
        };
        let serial = check(1);
        let parallel = check(4);
        assert_eq!(serial, parallel, "report must not depend on job count");
        let named: Vec<(&str, &str)> = serial
            .iter()
            .map(|f| (f.config.as_str(), f.workload.as_str()))
            .collect();
        assert_eq!(
            named,
            [(cfg.name.as_str(), "CFD"), (opt.name.as_str(), "CFD")]
        );
        for quarantined in &serial {
            assert_eq!(quarantined.failure.attempts, 2);
            assert!(
                quarantined.failure.message.contains("attempt 2"),
                "{quarantined}"
            );
        }
        assert!(serial[1]
            .to_string()
            .starts_with(&format!("QUARANTINED ({:?}, \"CFD\")", opt.name)));
    }

    /// Each run context's script spends its own budget: a second memo
    /// with an equal script fails its first attempt again.
    #[test]
    fn each_run_context_spends_its_own_panic_budget() {
        let cfg = SystemConfig::baseline_mcm();
        let cfd = suite::by_name("CFD").unwrap();
        let env = || RunEnv {
            supervised: true,
            retries: 0,
            task_panic: Some(TaskPanicScript::new("CFD", 1)),
            ..RunEnv::at_scale(0.01)
        };
        assert_eq!(env(), env(), "the two run contexts hold equal scripts");
        for env in [env(), env()] {
            let mut memo = Memo::new(env);
            let failures = memo.warm_runner(
                memo.env.jobs,
                memo.env.retries,
                &[(&cfg, &cfd)],
                run_instrumented,
            );
            assert_eq!(failures.len(), 1, "the pair is quarantined");
            assert!(
                failures[0].failure.message.contains("attempt 1"),
                "{}",
                failures[0]
            );
        }
    }

    /// `warm` takes its job count, supervision, retry budget and
    /// scripted panic from the memo's run context.
    #[test]
    fn supervised_warm_completes_and_caches_healthy_pairs() {
        let cfg = SystemConfig::baseline_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let w2 = suite::by_name("Stream").unwrap();
        let mut memo = Memo::new(RunEnv {
            jobs: 2,
            supervised: true,
            retries: 0,
            task_panic: Some(TaskPanicScript::new("Stream", 1)),
            ..RunEnv::at_scale(0.01)
        });
        memo.warm(&[(&cfg, &w1), (&cfg, &w2)]);
        // The healthy pair is cached; the quarantined one is not and
        // re-attempts (successfully, its budget spent) on use.
        assert_eq!(memo.stats().warm_planned, 2);
        assert_eq!(memo.cache.len(), 1, "the scripted pair is quarantined");
        memo.run(&cfg, &w1);
        assert_eq!(memo.stats().hits, 1);
        memo.run(&cfg, &w2);
        assert_eq!(memo.stats().misses, 1, "quarantined pair re-simulates");
    }

    #[test]
    fn unsupervised_warm_panics_name_the_pair() {
        let cfg = SystemConfig::baseline_mcm();
        let w1 = suite::by_name("CFD").unwrap();
        let mut memo = Memo::new(RunEnv::at_scale(0.01));
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

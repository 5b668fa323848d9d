//! The service: accept loop, per-connection protocol handling, the
//! in-flight dedupe registry, and the shutdown drill.
//!
//! ## Exactly-once, structurally
//!
//! The dedupe registry is a map from [`PairKey`] to the subscribers
//! waiting on that pair's in-flight run. Every sweep request is
//! classified **entirely under the registry lock**:
//!
//! * backend lookup succeeds → **hit**, answered immediately;
//! * key already in the registry → **shared**, a subscriber is added
//!   to the existing entry;
//! * otherwise → **miss**: a job is submitted and the entry inserted,
//!   *while still holding the lock*.
//!
//! A completing job must take the same lock to remove its entry and
//! notify subscribers, so no request can observe the gap between "run
//! finished and persisted" and "entry removed": either the entry is
//! still there (→ shared) or the result is in the store (→ hit). Each
//! unique pair therefore runs at most once per process lifetime — and
//! with a persistent store underneath, once ever.
//!
//! ## Admission and fairness
//!
//! Misses are submitted as one all-or-nothing batch on the
//! connection's own lane of the bounded
//! [`mcm_exec::service::ServicePool`]: a request that
//! does not fit is answered with a single error line — no ack, no
//! partial grid — and lanes are drained round-robin so a giant sweep
//! cannot starve a one-pair query from another connection.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use mcm_exec::pool::panic_message;
use mcm_exec::service::{Job, ServicePool};
use mcm_telemetry::{global, Class, Counter, Gauge};

use crate::protocol::{
    ack_line, bye_line, done_line, error_line, pair_line, pong_line, Request, Source,
    MAX_REQUEST_LINE,
};
use crate::{Backend, PairKey};

/// Tuning knobs for [`SweepService::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Simulation worker threads (the pool size).
    pub workers: usize,
    /// Bound on queued (accepted but not started) jobs; an arriving
    /// batch that would exceed it is rejected whole.
    pub queue_capacity: usize,
}

/// A point-in-time copy of one service instance's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sweep requests received (well-formed enough to classify).
    pub requests: u64,
    /// Pairs answered from the backend's cache or store.
    pub hits: u64,
    /// Pairs that scheduled a simulation — exactly the number of
    /// simulations this instance ever ran.
    pub misses: u64,
    /// Pairs answered by subscribing to an already-in-flight run.
    pub inflight_dedups: u64,
    /// Whole requests rejected by admission control.
    pub rejections: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_dedups: AtomicU64,
    rejections: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inflight_dedups: self.inflight_dedups.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
        }
    }
}

/// Pre-registered global `serve.*` telemetry, mirroring the
/// per-instance cells. `misses` and `requests` are a function of what
/// clients asked (PerConfig); the hit/dedup split depends on arrival
/// timing (Volatile) even though their *sum* per grid is fixed.
struct ServeTele {
    requests: Counter,
    hits: Counter,
    misses: Counter,
    inflight_dedups: Counter,
    rejections: Counter,
    queue_depth_hw: Gauge,
}

fn tele() -> &'static ServeTele {
    static TELE: OnceLock<ServeTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = global();
        ServeTele {
            requests: reg.counter("serve.requests", Class::PerConfig),
            hits: reg.counter("serve.hits", Class::Volatile),
            misses: reg.counter("serve.misses", Class::PerConfig),
            inflight_dedups: reg.counter("serve.inflight_dedups", Class::Volatile),
            rejections: reg.counter("serve.rejections", Class::PerConfig),
            queue_depth_hw: reg.gauge("serve.queue_depth_hw", Class::Volatile),
        }
    })
}

/// Per-request completion bookkeeping: the `done` line goes out when
/// the last pending pair of the request delivers.
struct Tracker {
    remaining: AtomicUsize,
    id: u64,
    pairs: usize,
    tx: mpsc::Sender<String>,
}

impl Tracker {
    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = self.tx.send(done_line(self.id, self.pairs));
        }
    }
}

/// One waiter on an in-flight pair.
struct Subscriber {
    tx: mpsc::Sender<String>,
    tracker: Arc<Tracker>,
    id: u64,
    index: usize,
    config: String,
    workload: String,
    source: Source,
}

impl Subscriber {
    fn deliver(self, outcome: &Result<String, String>) {
        let line = match outcome {
            Ok(report) => pair_line(
                self.id,
                self.index,
                &self.config,
                &self.workload,
                self.source,
                report,
            ),
            Err(msg) => error_line(
                &format!("({}, {}): {msg}", self.config, self.workload),
                Some(self.id),
            ),
        };
        let _ = self.tx.send(line);
        self.tracker.complete_one();
    }
}

/// What jobs and connection threads share. Deliberately does **not**
/// contain the pool, so queued job closures hold no reference cycle
/// through it.
struct Core {
    backend: Arc<dyn Backend>,
    registry: Mutex<HashMap<PairKey, Vec<Subscriber>>>,
    stats: StatsCells,
}

impl Core {
    fn lock_registry(&self) -> std::sync::MutexGuard<'_, HashMap<PairKey, Vec<Subscriber>>> {
        self.registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Runs one pair on a pool worker and notifies every subscriber.
fn run_and_notify(core: &Core, key: &PairKey) {
    let outcome = catch_unwind(AssertUnwindSafe(|| core.backend.run(key)))
        .map_err(|p| format!("simulation panicked: {}", panic_message(p.as_ref())));
    // The lock is the synchronization point of the exactly-once
    // contract: the entry leaves the registry only after the result is
    // in the store (backend.run persisted it above).
    let subs = core.lock_registry().remove(key).unwrap_or_default();
    for sub in subs {
        sub.deliver(&outcome);
    }
}

/// A pending pair before the tracker exists (classification happens
/// before the pending count is known).
struct Seed {
    index: usize,
    config: String,
    workload: String,
    source: Source,
}

impl Seed {
    fn materialize(self, tx: &mpsc::Sender<String>, tracker: &Arc<Tracker>, id: u64) -> Subscriber {
        Subscriber {
            tx: tx.clone(),
            tracker: Arc::clone(tracker),
            id,
            index: self.index,
            config: self.config,
            workload: self.workload,
            source: self.source,
        }
    }
}

#[allow(clippy::too_many_lines)]
fn handle_sweep(
    core: &Arc<Core>,
    pool: &ServicePool,
    lane: u64,
    id: u64,
    configs: &[String],
    workloads: &[String],
    tx: &mpsc::Sender<String>,
) {
    core.stats.requests.fetch_add(1, Ordering::Relaxed);
    tele().requests.inc();

    // Expand the workload selection, then resolve the whole grid in
    // request order; any unknown name rejects the request before
    // anything is scheduled.
    let mut expanded: Vec<String> = Vec::new();
    for w in workloads {
        if w == "*" {
            expanded.extend(core.backend.all_workloads());
        } else {
            expanded.push(w.clone());
        }
    }
    let mut grid: Vec<(String, String, PairKey)> = Vec::with_capacity(configs.len());
    for c in configs {
        for w in &expanded {
            match core.backend.resolve(c, w) {
                Ok(key) => grid.push((c.clone(), w.clone(), key)),
                Err(msg) => {
                    let _ = tx.send(error_line(&format!("sweep {id}: {msg}"), Some(id)));
                    return;
                }
            }
        }
    }
    let pairs = grid.len();

    // Classify under the registry lock — see the module docs for why
    // the lock must span lookup, submission, and registration.
    let mut reg = core.lock_registry();
    let mut hit_lines: Vec<String> = Vec::new();
    let mut existing: Vec<(PairKey, Seed)> = Vec::new();
    let mut owned: Vec<(PairKey, Vec<Seed>)> = Vec::new();
    let mut owned_slots: HashMap<u64, usize> = HashMap::new();
    let (mut hits, mut dedups) = (0u64, 0u64);
    for (index, (config, workload, key)) in grid.into_iter().enumerate() {
        if let Some(report) = core.backend.lookup(&key) {
            hits += 1;
            hit_lines.push(pair_line(
                id,
                index,
                &config,
                &workload,
                Source::Hit,
                &report,
            ));
        } else if reg.contains_key(&key) {
            // Another connection's run is in flight: subscribe.
            dedups += 1;
            let seed = Seed {
                index,
                config,
                workload,
                source: Source::Shared,
            };
            existing.push((key, seed));
        } else if let Some(&slot) = owned_slots.get(&key.fingerprint) {
            // The same pair twice within this request: one run.
            dedups += 1;
            owned[slot].1.push(Seed {
                index,
                config,
                workload,
                source: Source::Shared,
            });
        } else {
            owned_slots.insert(key.fingerprint, owned.len());
            let seed = Seed {
                index,
                config,
                workload,
                source: Source::Run,
            };
            owned.push((key, vec![seed]));
        }
    }

    // All-or-nothing admission for the misses, still under the lock so
    // a submitted job cannot complete before its registry entry exists.
    let jobs: Vec<Job> = owned
        .iter()
        .map(|(key, _)| {
            let core = Arc::clone(core);
            let key = key.clone();
            Box::new(move || run_and_notify(&core, &key)) as Job
        })
        .collect();
    if let Err(e) = pool.try_submit_batch(lane, jobs) {
        drop(reg);
        core.stats.rejections.fetch_add(1, Ordering::Relaxed);
        tele().rejections.inc();
        let _ = tx.send(error_line(
            &format!("sweep {id} rejected ({pairs} pairs): {e}"),
            Some(id),
        ));
        return;
    }
    tele().queue_depth_hw.record_max(pool.queued() as u64);

    let misses = owned.len() as u64;
    let pending = existing.len() + owned.iter().map(|(_, s)| s.len()).sum::<usize>();
    let tracker = Arc::new(Tracker {
        remaining: AtomicUsize::new(pending),
        id,
        pairs,
        tx: tx.clone(),
    });
    // Ack and hits are enqueued under the lock, so they precede every
    // pending pair line of this request on the wire.
    let _ = tx.send(ack_line(id, pairs));
    for line in hit_lines {
        let _ = tx.send(line);
    }
    for (key, seed) in existing {
        reg.get_mut(&key)
            .expect("contains_key checked under the same lock")
            .push(seed.materialize(tx, &tracker, id));
    }
    for (key, seeds) in owned {
        let subs = seeds
            .into_iter()
            .map(|s| s.materialize(tx, &tracker, id))
            .collect();
        reg.insert(key, subs);
    }
    drop(reg);

    core.stats.hits.fetch_add(hits, Ordering::Relaxed);
    core.stats.misses.fetch_add(misses, Ordering::Relaxed);
    core.stats
        .inflight_dedups
        .fetch_add(dedups, Ordering::Relaxed);
    let t = tele();
    t.hits.add(hits);
    t.misses.add(misses);
    t.inflight_dedups.add(dedups);

    if pending == 0 {
        let _ = tx.send(done_line(id, pairs));
    }
}

fn stats_line(stats: &ServeStats) -> String {
    format!(
        "{{\"stats\":{{\"hits\":{},\"inflight_dedups\":{},\"misses\":{},\"rejections\":{},\"requests\":{},\"runs\":{}}}}}",
        stats.hits,
        stats.inflight_dedups,
        stats.misses,
        stats.rejections,
        stats.requests,
        // Aliases misses: the number of simulations this instance ran,
        // which is the deterministic quantity scripts diff on.
        stats.misses,
    )
}

/// Handles one request line. Returns `false` when the connection must
/// stop serving (shutdown requested).
fn handle_request(
    core: &Arc<Core>,
    pool: &ServicePool,
    lane: u64,
    line: &str,
    tx: &mpsc::Sender<String>,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) -> bool {
    match Request::parse(line) {
        Err(msg) => {
            let _ = tx.send(error_line(&msg, None));
            true
        }
        Ok(Request::Ping) => {
            let _ = tx.send(pong_line());
            true
        }
        Ok(Request::Stats) => {
            let _ = tx.send(stats_line(&core.stats.snapshot()));
            true
        }
        Ok(Request::Shutdown) => {
            let _ = tx.send(bye_line());
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            false
        }
        Ok(Request::Sweep {
            id,
            configs,
            workloads,
        }) => {
            handle_sweep(core, pool, lane, id, &configs, &workloads, tx);
            true
        }
    }
}

/// Serves one client connection: a reader loop in this thread and a
/// writer thread draining the response channel. The writer handle is
/// parked in `writer_handles` for the accept loop to join *after* the
/// registry is cleared — joining it here would deadlock on pending
/// subscribers during shutdown.
fn connection_loop(
    core: &Arc<Core>,
    pool: &ServicePool,
    lane: u64,
    stream: TcpStream,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    writer_handles: &Mutex<Vec<JoinHandle<()>>>,
) {
    let (tx, rx) = mpsc::channel::<String>();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = std::thread::Builder::new()
        .name(format!("mcm-serve-writer-{lane}"))
        .spawn(move || {
            let mut w = io::BufWriter::new(write_half);
            for line in rx {
                // A vanished client is not an error; keep draining so
                // job-side sends never see a closed channel mid-batch.
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
                let _ = w.flush();
            }
        })
        .expect("spawn connection writer");
    writer_handles
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(writer);

    // Timed reads keep the loop responsive to the shutdown flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Read at most one byte past the cap. `line` keeps what earlier
        // timed-out reads accumulated, so the cap spans them.
        let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_REQUEST_LINE && !line.ends_with('\n') => {
                let _ = tx.send(error_line(
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"),
                    None,
                ));
                break;
            }
            Ok(_) => {
                let request = line.trim().to_string();
                line.clear();
                if !request.is_empty()
                    && !handle_request(core, pool, lane, &request, &tx, shutdown, addr)
                {
                    break;
                }
            }
            // A timeout may leave a partial line accumulated in `line`;
            // the next read_line appends the rest.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // `tx` drops here; the writer exits once subscribers (if any) are
    // delivered or cleared.
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    core: Arc<Core>,
    pool: Arc<ServicePool>,
    shutdown: Arc<AtomicBool>,
) {
    let writer_handles = Arc::new(Mutex::new(Vec::new()));
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut lane = 0u64;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        lane += 1;
        let core = Arc::clone(&core);
        let pool = Arc::clone(&pool);
        let shutdown = Arc::clone(&shutdown);
        let writer_handles = Arc::clone(&writer_handles);
        let handle = std::thread::Builder::new()
            .name(format!("mcm-serve-conn-{lane}"))
            .spawn(move || {
                connection_loop(&core, &pool, lane, stream, &shutdown, addr, &writer_handles);
            })
            .expect("spawn connection thread");
        connections.push(handle);
    }
    // The shutdown drill, in dependency order: readers first (no new
    // work), then the pool (running jobs finish and notify; queued
    // jobs drop), then the registry (subscribers of dropped jobs get a
    // loud error), then the writers (all senders are gone by now).
    for h in connections {
        let _ = h.join();
    }
    pool.shutdown();
    let leftovers: Vec<(PairKey, Vec<Subscriber>)> = core.lock_registry().drain().collect();
    for (key, subs) in leftovers {
        let outcome = Err(format!(
            "server shut down before ({}, {}) ran",
            key.config, key.workload
        ));
        for sub in subs {
            sub.deliver(&outcome);
        }
    }
    let writers = std::mem::take(
        &mut *writer_handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for h in writers {
        let _ = h.join();
    }
}

/// A running sweep service. See the crate docs for the protocol and
/// the module docs for the invariants.
pub struct SweepService {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    core: Arc<Core>,
    pool: Arc<ServicePool>,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl SweepService {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `backend`.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unusable.
    pub fn start(
        bind: &str,
        backend: Arc<dyn Backend>,
        opts: ServeOptions,
    ) -> io::Result<SweepService> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            backend,
            registry: Mutex::new(HashMap::new()),
            stats: StatsCells::default(),
        });
        let pool = Arc::new(ServicePool::new(opts.workers, opts.queue_capacity));
        let pool_handle = Arc::clone(&pool);
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mcm-serve-accept".to_string())
                .spawn(move || accept_loop(listener, addr, core, pool, shutdown))?
        };
        Ok(SweepService {
            addr,
            shutdown,
            accept: Some(accept),
            core,
            pool: pool_handle,
        })
    }

    /// The bound address (with the actual port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This instance's counters.
    pub fn stats(&self) -> ServeStats {
        self.core.stats.snapshot()
    }

    /// Jobs accepted but not yet started — the pool's live queue
    /// depth, for operators (and tests) watching backlog drain.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Requests shutdown without waiting (idempotent; also triggered
    /// by the protocol's `shutdown` op).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the service has fully shut down — every connection
    /// answered or torn down, the pool drained and joined — and
    /// returns the final counters. Returns only after a `shutdown` op
    /// or a [`SweepService::shutdown`] call.
    pub fn wait(mut self) -> ServeStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

//! The service: accept loop, per-connection protocol handling, the
//! in-flight dedupe registry, the workers, and the shutdown drill.
//!
//! ## One lock
//!
//! One mutex guards the service's `State`: the in-flight registry (a
//! map from a pair's [`PairKey::fingerprint`] to the subscribers waiting
//! on that pair's run) and the `LaneQueue` of misses waiting for a
//! worker. One condvar wakes the [`ServeOptions::workers`] persistent
//! threads, which each pop a pair and run it.
//!
//! ## Exactly-once, structurally
//!
//! Every sweep request is classified **entirely under the lock**:
//!
//! * backend lookup succeeds → **hit**, answered immediately;
//! * key already in the registry → **shared**, a subscriber is added
//!   to the existing entry;
//! * otherwise → **miss**: the pair is queued and its entry inserted
//!   in the same critical section.
//!
//! A worker pops a pair under the lock, runs it without the lock, and
//! takes the lock again to remove the entry and notify subscribers,
//! after [`Backend::run`] has persisted the result. So no request can
//! observe the gap between "run finished and persisted" and "entry
//! removed": either the entry is still there (→ shared) or the result
//! is in the store (→ hit). Each unique pair therefore runs at most
//! once per process lifetime — and with a persistent store underneath,
//! once ever.
//!
//! ## Admission and fairness
//!
//! A request's misses join the connection's own lane of the
//! `LaneQueue` as one all-or-nothing batch: a request that does not
//! fit `queue_capacity` is answered with a single error line — no ack,
//! no partial grid — and lanes are served round-robin, so a giant sweep
//! cannot starve a one-pair query from another connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mcm_exec::pool::panic_message;
use mcm_telemetry::{global, Class, Counter, Gauge};

use crate::protocol::{
    ack_line, bye_line, done_line, error_line, pair_line, pong_line, Request, Source,
    MAX_REQUEST_LINE,
};
use crate::{Backend, PairKey};

/// Tuning knobs for [`SweepService::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Simulation worker threads.
    pub workers: usize,
    /// Bound on queued (accepted but not started) pairs; an arriving
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

/// One waiter on an in-flight pair, under the names it asked by.
struct Subscriber {
    tx: mpsc::Sender<String>,
    tracker: Arc<Tracker>,
    id: u64,
    index: usize,
    key: PairKey,
    source: Source,
}

impl Subscriber {
    fn deliver(self, outcome: &Result<String, String>) {
        let PairKey {
            config, workload, ..
        } = &self.key;
        let line = match outcome {
            Ok(report) => pair_line(self.id, self.index, config, workload, self.source, report),
            Err(msg) => error_line(&format!("({config}, {workload}): {msg}"), Some(self.id)),
        };
        let _ = self.tx.send(line);
        self.tracker.complete_one();
    }
}

/// The misses waiting for a worker: one FIFO lane per client
/// connection, served round-robin one item per turn, so a connection
/// that queues a 10,000-pair grid cannot starve one that asks for a
/// single pair — the small request is at most one rotation from the
/// head. Plain data: the service lock guards it.
struct LaneQueue<T> {
    /// Lanes holding items, in service order: the front lane gives up
    /// its oldest item next. A lane leaves the rotation when it runs
    /// dry and rejoins at the back with its next batch.
    lanes: VecDeque<(u64, VecDeque<T>)>,
    capacity: usize,
}

impl<T> LaneQueue<T> {
    fn new(capacity: usize) -> Self {
        LaneQueue {
            lanes: VecDeque::new(),
            capacity,
        }
    }

    /// Queues `batch` behind `lane`'s items, all or nothing: a batch
    /// that would take the queue past its capacity is refused whole,
    /// with a message naming the pressure. An empty batch is always
    /// admitted and leaves the queue untouched.
    fn try_push(&mut self, lane: u64, batch: Vec<T>) -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        let queued = self.len();
        if queued + batch.len() > self.capacity {
            return Err(format!(
                "queue full: {queued} queued of {} capacity, batch of {} rejected",
                self.capacity,
                batch.len()
            ));
        }
        match self.lanes.iter_mut().find(|(l, _)| *l == lane) {
            Some((_, items)) => items.extend(batch),
            None => self.lanes.push_back((lane, batch.into())),
        }
        Ok(())
    }

    /// The next item round-robin: the front lane gives up one item and
    /// rotates to the back if it has more.
    fn pop(&mut self) -> Option<T> {
        let (lane, mut items) = self.lanes.pop_front()?;
        let item = items
            .pop_front()
            .expect("a lane in the rotation holds items");
        if !items.is_empty() {
            self.lanes.push_back((lane, items));
        }
        Some(item)
    }

    /// Items queued, across every lane.
    fn len(&self) -> usize {
        self.lanes.iter().map(|(_, items)| items.len()).sum()
    }

    fn clear(&mut self) {
        self.lanes.clear();
    }
}

/// Everything the service lock guards.
struct State {
    /// The in-flight registry: every queued or running pair, by
    /// fingerprint, with the subscribers waiting on its run. Two names
    /// for one fingerprint share one run.
    inflight: HashMap<u64, Vec<Subscriber>>,
    queue: LaneQueue<PairKey>,
    /// Set by the shutdown drill; workers exit instead of parking.
    shutdown: bool,
}

/// What workers and connection threads share.
struct Core {
    backend: Arc<dyn Backend>,
    state: Mutex<State>,
    /// Wakes parked workers when pairs are queued or shutdown begins.
    work: Condvar,
    stats: StatsCells,
}

impl Core {
    fn lock(&self) -> MutexGuard<'_, State> {
        // `Backend::run` never runs under the lock. A panic in `lookup`
        // strikes before a sweep mutates the state, so a poisoned lock
        // still guards a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A worker's life: pop the next pair round-robin, run it without the
/// lock, repeat; park while the queue is dry; exit at shutdown.
fn worker_loop(core: &Core) {
    let mut st = core.lock();
    while !st.shutdown {
        if let Some(key) = st.queue.pop() {
            drop(st);
            run_and_notify(core, &key);
            st = core.lock();
        } else {
            st = core.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs one pair on a worker and notifies every subscriber. The
/// `catch_unwind` is the worker's only guard: a panicking simulation
/// answers its subscribers with the message, and the worker goes on to
/// the next pair.
fn run_and_notify(core: &Core, key: &PairKey) {
    let outcome = catch_unwind(AssertUnwindSafe(|| core.backend.run(key)))
        .map_err(|p| format!("simulation panicked: {}", panic_message(p.as_ref())));
    // The lock is the synchronization point of the exactly-once
    // contract: the entry leaves the registry only after the result is
    // in the store (backend.run persisted it above).
    let subs = core
        .lock()
        .inflight
        .remove(&key.fingerprint)
        .unwrap_or_default();
    for sub in subs {
        sub.deliver(&outcome);
    }
}

/// A pending pair before the tracker exists (classification happens
/// before the pending count is known).
struct Seed {
    index: usize,
    key: PairKey,
    source: Source,
}

impl Seed {
    fn materialize(self, tx: &mpsc::Sender<String>, tracker: &Arc<Tracker>, id: u64) -> Subscriber {
        Subscriber {
            tx: tx.clone(),
            tracker: Arc::clone(tracker),
            id,
            index: self.index,
            key: self.key,
            source: self.source,
        }
    }
}

#[allow(clippy::too_many_lines)]
fn handle_sweep(
    core: &Core,
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
    let mut grid: Vec<PairKey> = Vec::with_capacity(configs.len());
    for c in configs {
        for w in &expanded {
            match core.backend.resolve(c, w) {
                Ok(key) => grid.push(key),
                Err(msg) => {
                    let _ = tx.send(error_line(&format!("sweep {id}: {msg}"), Some(id)));
                    return;
                }
            }
        }
    }
    let pairs = grid.len();

    // Classify under the lock — see the module docs for why the lock
    // must span lookup, admission, and registration.
    let mut st = core.lock();
    let mut hit_lines: Vec<String> = Vec::new();
    let mut existing: Vec<Seed> = Vec::new();
    let mut owned: Vec<(PairKey, Vec<Seed>)> = Vec::new();
    let mut owned_slots: HashMap<u64, usize> = HashMap::new();
    let (mut hits, mut dedups) = (0u64, 0u64);
    for (index, key) in grid.into_iter().enumerate() {
        let fingerprint = key.fingerprint;
        if let Some(report) = core.backend.lookup(&key) {
            hits += 1;
            hit_lines.push(pair_line(
                id,
                index,
                &key.config,
                &key.workload,
                Source::Hit,
                &report,
            ));
        } else if st.inflight.contains_key(&fingerprint) {
            // Another connection's run is in flight: subscribe.
            dedups += 1;
            existing.push(Seed {
                index,
                key,
                source: Source::Shared,
            });
        } else if let Some(&slot) = owned_slots.get(&fingerprint) {
            // The same pair twice within this request: one run.
            dedups += 1;
            owned[slot].1.push(Seed {
                index,
                key,
                source: Source::Shared,
            });
        } else {
            owned_slots.insert(fingerprint, owned.len());
            let seed = Seed {
                index,
                key: key.clone(),
                source: Source::Run,
            };
            owned.push((key, vec![seed]));
        }
    }

    // All-or-nothing admission for the misses, still under the lock so
    // no worker can pop a pair before its registry entry exists.
    let batch = owned.iter().map(|(key, _)| key.clone()).collect();
    if let Err(e) = st.queue.try_push(lane, batch) {
        drop(st);
        core.stats.rejections.fetch_add(1, Ordering::Relaxed);
        tele().rejections.inc();
        let _ = tx.send(error_line(
            &format!("sweep {id} rejected ({pairs} pairs): {e}"),
            Some(id),
        ));
        return;
    }
    tele().queue_depth_hw.record_max(st.queue.len() as u64);

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
    for seed in existing {
        st.inflight
            .get_mut(&seed.key.fingerprint)
            .expect("contains_key checked under the same lock")
            .push(seed.materialize(tx, &tracker, id));
    }
    for (key, seeds) in owned {
        let subs = seeds
            .into_iter()
            .map(|s| s.materialize(tx, &tracker, id))
            .collect();
        st.inflight.insert(key.fingerprint, subs);
    }
    drop(st);
    if misses > 0 {
        core.work.notify_all();
    }

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
    core: &Core,
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
            handle_sweep(core, lane, id, &configs, &workloads, tx);
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
    core: &Core,
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
                // worker-side sends never see a closed channel mid-batch.
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
                let _ = w.flush();
            }
        })
        .expect("spawn connection writer");
    writer_handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(writer);

    // Timed reads keep the loop responsive to the shutdown flag. Lines
    // accumulate as bytes and are decoded only once complete, so a
    // timeout inside a multi-byte character loses nothing.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // Read at most one byte past the cap. `line` keeps what earlier
        // timed-out reads accumulated, so the cap spans them.
        let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        let eof = match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(n) => n == 0,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let _ = tx.send(error_line(
                &format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"),
                None,
            ));
            break;
        }
        // A complete line, or the unterminated last line of a client
        // that half-closed.
        let request = std::mem::take(&mut line);
        let serving = match std::str::from_utf8(&request) {
            Ok(text) => {
                let text = text.trim();
                text.is_empty() || handle_request(core, lane, text, &tx, shutdown, addr)
            }
            Err(e) => {
                let _ = tx.send(error_line(&format!("request line is not UTF-8: {e}"), None));
                true
            }
        };
        if eof || !serving {
            break;
        }
    }
    // `tx` drops here; the writer exits once subscribers (if any) are
    // delivered or cleared.
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    core: Arc<Core>,
    workers: usize,
    shutdown: Arc<AtomicBool>,
) {
    let workers: Vec<JoinHandle<()>> = (0..workers)
        .map(|w| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("mcm-serve-worker-{w}"))
                .spawn(move || worker_loop(&core))
                .expect("spawn service worker")
        })
        .collect();
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
        let shutdown = Arc::clone(&shutdown);
        let writer_handles = Arc::clone(&writer_handles);
        let handle = std::thread::Builder::new()
            .name(format!("mcm-serve-conn-{lane}"))
            .spawn(move || {
                connection_loop(&core, lane, stream, &shutdown, addr, &writer_handles);
            })
            .expect("spawn connection thread");
        connections.push(handle);
    }
    // The shutdown drill, in dependency order: readers first (no new
    // work), then the workers (running pairs finish and notify; queued
    // pairs drop), then the registry (subscribers of dropped pairs get
    // a loud error), then the writers (all senders are gone by now).
    // With every reader joined, no sweep can reach the queue after it
    // is cleared here.
    for h in connections {
        let _ = h.join();
    }
    {
        let mut st = core.lock();
        st.shutdown = true;
        st.queue.clear();
    }
    core.work.notify_all();
    for w in workers {
        let _ = w.join();
    }
    let leftovers: Vec<Subscriber> = core.lock().inflight.drain().flat_map(|(_, s)| s).collect();
    for sub in leftovers {
        let PairKey {
            config, workload, ..
        } = &sub.key;
        let outcome = Err(format!(
            "server shut down before ({config}, {workload}) ran"
        ));
        sub.deliver(&outcome);
    }
    let writers = std::mem::take(
        &mut *writer_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
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
    /// starts serving `backend`. The accept thread spawns the workers
    /// and joins them at shutdown, so an error here leaves none behind.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unusable.
    ///
    /// # Panics
    ///
    /// Panics when `opts.workers` or `opts.queue_capacity` is zero.
    pub fn start(
        bind: &str,
        backend: Arc<dyn Backend>,
        opts: ServeOptions,
    ) -> io::Result<SweepService> {
        assert!(
            opts.workers >= 1,
            "a sweep service needs at least one worker"
        );
        assert!(
            opts.queue_capacity >= 1,
            "a zero-capacity queue rejects everything"
        );
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            backend,
            state: Mutex::new(State {
                inflight: HashMap::new(),
                queue: LaneQueue::new(opts.queue_capacity),
                shutdown: false,
            }),
            work: Condvar::new(),
            stats: StatsCells::default(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mcm-serve-accept".to_string())
                .spawn(move || accept_loop(listener, addr, core, opts.workers, shutdown))?
        };
        Ok(SweepService {
            addr,
            shutdown,
            accept: Some(accept),
            core,
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

    /// Pairs accepted but not yet started — the live queue depth, for
    /// operators (and tests) watching backlog drain.
    pub fn queued(&self) -> usize {
        self.core.lock().queue.len()
    }

    /// Requests shutdown without waiting (idempotent; also triggered
    /// by the protocol's `shutdown` op).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the service has fully shut down — every connection
    /// answered or torn down, the workers stopped and joined — and
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

#[cfg(test)]
mod tests {
    use super::LaneQueue;

    #[test]
    fn lanes_are_served_round_robin() {
        let mut queue = LaneQueue::new(64);
        // Lane 1 floods first; lanes 2 and 3 arrive after with one item
        // each. Fairness: the singletons must not wait behind the flood.
        for (lane, tag) in [(1, "a1"), (1, "a2"), (1, "a3"), (2, "b1"), (3, "c1")] {
            queue.try_push(lane, vec![tag]).unwrap();
        }
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(order, ["a1", "b1", "c1", "a2", "a3"]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn admission_refuses_a_batch_whole() {
        let mut queue = LaneQueue::new(3);
        queue.try_push(7, vec![1, 2]).unwrap();
        // A 2-item batch into a 3-slot queue holding 2: refused whole.
        let err = queue
            .try_push(8, vec![3, 4])
            .expect_err("batch must not fit");
        assert_eq!(
            err,
            "queue full: 2 queued of 3 capacity, batch of 2 rejected"
        );
        // Nothing of the refused batch was queued: one slot remains.
        assert_eq!(queue.len(), 2);
        queue.try_push(8, vec![5]).unwrap();
        assert_eq!(queue.len(), 3);
        let order: Vec<u32> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(order, [1, 5, 2]);
    }

    #[test]
    fn empty_batch_always_admits() {
        let mut queue = LaneQueue::new(1);
        queue.try_push(0, vec![9]).unwrap();
        queue.try_push(1, Vec::new()).unwrap();
        assert_eq!(queue.len(), 1);
        assert_eq!((queue.pop(), queue.pop()), (Some(9), None));
    }
}

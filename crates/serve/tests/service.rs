//! Integration tests for [`SweepService`] over scripted backends: the
//! exactly-once contract (hits never run, in-flight duplicates share
//! one run), admission control, and the shutdown drill — all over real
//! localhost sockets.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcm_serve::protocol::{report_slice, MAX_REQUEST_LINE};
use mcm_serve::service::{ServeOptions, SweepService};
use mcm_serve::{Backend, PairKey};

/// A manually opened gate that `ScriptedBackend::run` can block on,
/// counting entries so tests can wait for a worker to be mid-run.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicU64,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn pass(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn wait_entered(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "gate never reached {n} entries");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A backend over a fixed name grid; `run` renders a deterministic
/// fake report and records it so later lookups hit.
struct ScriptedBackend {
    configs: Vec<String>,
    workloads: Vec<String>,
    cache: Mutex<HashMap<u64, String>>,
    runs: AtomicU64,
    gate: Option<Arc<Gate>>,
}

impl ScriptedBackend {
    fn new(configs: &[&str], workloads: &[&str], gate: Option<Arc<Gate>>) -> Self {
        ScriptedBackend {
            configs: configs.iter().map(|s| (*s).to_string()).collect(),
            workloads: workloads.iter().map(|s| (*s).to_string()).collect(),
            cache: Mutex::new(HashMap::new()),
            runs: AtomicU64::new(0),
            gate,
        }
    }

    fn fingerprint(config: &str, workload: &str) -> u64 {
        // Deterministic, collision-free over the tiny test grids.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in config.bytes().chain([0u8]).chain(workload.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn render(config: &str, workload: &str) -> String {
        format!("{{\"config\":\"{config}\",\"workload\":\"{workload}\",\"cycles\":42}}")
    }

    fn prefill(&self, config: &str, workload: &str) {
        self.cache.lock().unwrap().insert(
            Self::fingerprint(config, workload),
            Self::render(config, workload),
        );
    }
}

impl Backend for ScriptedBackend {
    fn resolve(&self, config: &str, workload: &str) -> Result<PairKey, String> {
        if !self.configs.iter().any(|c| c == config) {
            return Err(format!("unknown config \"{config}\""));
        }
        if !self.workloads.iter().any(|w| w == workload) {
            return Err(format!("unknown workload \"{workload}\""));
        }
        Ok(PairKey {
            fingerprint: Self::fingerprint(config, workload),
            config: config.to_string(),
            workload: workload.to_string(),
        })
    }

    fn lookup(&self, key: &PairKey) -> Option<String> {
        self.cache.lock().unwrap().get(&key.fingerprint).cloned()
    }

    fn run(&self, key: &PairKey) -> String {
        self.runs.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        let report = Self::render(&key.config, &key.workload);
        self.cache
            .lock()
            .unwrap()
            .insert(key.fingerprint, report.clone());
        report
    }

    fn all_workloads(&self) -> Vec<String> {
        self.workloads.clone()
    }
}

/// A blocking line client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(service: &SweepService) -> Client {
        let stream = TcpStream::connect(service.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        line.trim_end().to_string()
    }

    /// Reads until the sweep's `done` line, returning every line seen
    /// (including it).
    fn recv_until_done(&mut self, id: u64) -> Vec<String> {
        let done = format!("{{\"done\":{id},");
        let mut lines = Vec::new();
        loop {
            let line = self.recv();
            let finished = line.starts_with(&done);
            lines.push(line);
            if finished {
                return lines;
            }
        }
    }

    /// Remaining lines until EOF.
    fn drain(mut self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut line = String::new();
        while self.reader.read_line(&mut line).unwrap_or(0) > 0 {
            lines.push(line.trim_end().to_string());
            line.clear();
        }
        lines
    }
}

fn sweep_request(id: u64, configs: &[&str], workloads: &[&str]) -> String {
    let quote = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"op\":\"sweep\",\"id\":{id},\"configs\":[{}],\"workloads\":[{}]}}",
        quote(configs),
        quote(workloads)
    )
}

fn start(backend: Arc<dyn Backend>, workers: usize, queue_capacity: usize) -> SweepService {
    SweepService::start(
        "127.0.0.1:0",
        backend,
        ServeOptions {
            workers,
            queue_capacity,
        },
    )
    .expect("bind sweep service")
}

#[test]
fn ping_stats_and_shutdown_round_trip() {
    let backend = Arc::new(ScriptedBackend::new(&["a"], &["w"], None));
    let service = start(backend, 1, 16);
    let mut client = Client::connect(&service);
    client.send("{\"op\":\"ping\"}");
    assert_eq!(client.recv(), "{\"pong\":true}");
    client.send("{\"op\":\"stats\"}");
    let stats = client.recv();
    assert!(stats.contains("\"runs\":0"), "fresh stats: {stats}");
    client.send("not json");
    assert!(client.recv().contains("\"error\""));
    client.send("{\"op\":\"shutdown\"}");
    assert_eq!(client.recv(), "{\"bye\":true}");
    service.wait();
}

#[test]
fn hits_never_run_and_misses_run_once() {
    let backend = Arc::new(ScriptedBackend::new(&["a", "b"], &["w"], None));
    backend.prefill("a", "w");
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 2, 16);
    let mut client = Client::connect(&service);

    client.send(&sweep_request(1, &["a", "b"], &["w"]));
    let lines = client.recv_until_done(1);
    assert_eq!(lines[0], "{\"ack\":1,\"pairs\":2}");
    let hit = lines
        .iter()
        .find(|l| l.contains("\"config\":\"a\""))
        .unwrap();
    assert!(hit.contains("\"source\":\"hit\""), "prefilled pair: {hit}");
    let run = lines
        .iter()
        .find(|l| l.contains("\"config\":\"b\""))
        .unwrap();
    assert!(run.contains("\"source\":\"run\""), "missing pair: {run}");
    assert_eq!(*lines.last().unwrap(), "{\"done\":1,\"pairs\":2}");

    // The same grid again is now all hits; the wildcard selection
    // resolves through all_workloads().
    client.send(&sweep_request(2, &["a", "b"], &["*"]));
    let again = client.recv_until_done(2);
    assert!(again.iter().all(|l| !l.contains("\"source\":\"run\"")));

    assert_eq!(backend.runs.load(Ordering::SeqCst), 1);
    let stats = service.stats();
    assert_eq!(stats.misses, 1, "exactly one simulation ever: {stats:?}");
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.requests, 2);
}

#[test]
fn unknown_names_reject_the_whole_request() {
    let backend = Arc::new(ScriptedBackend::new(&["a"], &["w"], None));
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 1, 16);
    let mut client = Client::connect(&service);
    client.send(&sweep_request(3, &["a", "nope"], &["w"]));
    let line = client.recv();
    assert!(
        line.contains("\"error\"") && line.contains("unknown config") && line.contains("nope"),
        "got: {line}"
    );
    assert_eq!(backend.runs.load(Ordering::SeqCst), 0, "nothing scheduled");
    assert_eq!(service.stats().misses, 0);
}

#[test]
fn concurrent_duplicate_pairs_share_one_run() {
    let gate = Arc::new(Gate::default());
    let backend = Arc::new(ScriptedBackend::new(
        &["a"],
        &["w"],
        Some(Arc::clone(&gate)),
    ));
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 2, 16);

    // First client owns the run; the gate holds it mid-simulation.
    let mut first = Client::connect(&service);
    first.send(&sweep_request(1, &["a"], &["w"]));
    assert_eq!(first.recv(), "{\"ack\":1,\"pairs\":1}");
    gate.wait_entered(1);

    // Second client asks for the same pair while it is in flight: it
    // must subscribe, not resubmit.
    let mut second = Client::connect(&service);
    second.send(&sweep_request(7, &["a"], &["w"]));
    assert_eq!(second.recv(), "{\"ack\":7,\"pairs\":1}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().inflight_dedups < 1 {
        assert!(Instant::now() < deadline, "dedupe never observed");
        std::thread::sleep(Duration::from_millis(2));
    }

    gate.open();
    let first_lines = first.recv_until_done(1);
    let second_lines = second.recv_until_done(7);
    let owner = &first_lines[0];
    let shared = &second_lines[0];
    assert!(owner.contains("\"source\":\"run\""), "owner: {owner}");
    assert!(shared.contains("\"source\":\"shared\""), "shared: {shared}");
    assert_eq!(
        report_slice(owner).unwrap(),
        report_slice(shared).unwrap(),
        "both clients received byte-identical reports"
    );

    assert_eq!(backend.runs.load(Ordering::SeqCst), 1, "one run, ever");
    let stats = service.stats();
    assert_eq!((stats.misses, stats.inflight_dedups), (1, 1), "{stats:?}");
}

#[test]
fn duplicate_pairs_within_one_request_run_once() {
    let backend = Arc::new(ScriptedBackend::new(&["a"], &["w"], None));
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 1, 16);
    let mut client = Client::connect(&service);
    // configs ["a","a"] × workloads ["w"] — the same pair twice.
    client.send(&sweep_request(4, &["a", "a"], &["w"]));
    let lines = client.recv_until_done(4);
    assert_eq!(lines[0], "{\"ack\":4,\"pairs\":2}");
    assert_eq!(backend.runs.load(Ordering::SeqCst), 1);
    let sources: Vec<&str> = lines
        .iter()
        .filter_map(|l| {
            if l.contains("\"source\":\"run\"") {
                Some("run")
            } else if l.contains("\"source\":\"shared\"") {
                Some("shared")
            } else {
                None
            }
        })
        .collect();
    assert_eq!(sources.len(), 2);
    assert!(sources.contains(&"run") && sources.contains(&"shared"));
}

#[test]
fn oversized_requests_are_rejected_whole() {
    let gate = Arc::new(Gate::default());
    let backend = Arc::new(ScriptedBackend::new(
        &["a", "b", "c"],
        &["w"],
        Some(Arc::clone(&gate)),
    ));
    // One worker, queue bound of one: a blocked run leaves room for
    // exactly one queued job.
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 1, 1);
    let mut client = Client::connect(&service);
    client.send(&sweep_request(1, &["a"], &["w"]));
    assert_eq!(client.recv(), "{\"ack\":1,\"pairs\":1}");
    gate.wait_entered(1); // worker is mid-run; the queue is empty

    // Two fresh misses cannot fit a queue of one: rejected whole, with
    // no ack and nothing scheduled.
    let mut greedy = Client::connect(&service);
    greedy.send(&sweep_request(2, &["b", "c"], &["w"]));
    let line = greedy.recv();
    assert!(
        line.contains("\"error\"") && line.contains("rejected"),
        "got: {line}"
    );

    gate.open();
    let lines = client.recv_until_done(1);
    assert!(lines.iter().any(|l| l.contains("\"source\":\"run\"")));
    assert_eq!(backend.runs.load(Ordering::SeqCst), 1, "b and c never ran");
    let stats = service.stats();
    assert_eq!(stats.rejections, 1, "{stats:?}");
}

#[test]
fn over_long_request_lines_are_refused_and_the_connection_closed() {
    let backend = Arc::new(ScriptedBackend::new(&["a"], &["w"], None));
    let service = start(backend, 1, 16);
    let ping = "{\"op\":\"ping\"}";
    let mut client = Client::connect(&service);
    // A line of exactly the cap is served.
    client.send(&format!(
        "{ping}{}",
        " ".repeat(MAX_REQUEST_LINE - ping.len())
    ));
    assert_eq!(client.recv(), "{\"pong\":true}");

    // One byte more is not, even trickled in across several of the
    // reader's 100 ms timeouts: the cap counts the accumulated bytes.
    let quarter = " ".repeat(MAX_REQUEST_LINE / 4);
    for _ in 0..4 {
        client.stream.write_all(quarter.as_bytes()).unwrap();
        client.stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    client.stream.write_all(b" \n").unwrap();
    let line = client.recv();
    assert!(
        line.contains("\"error\"") && line.contains("exceeds"),
        "got: {line}"
    );
    // The server closed this connection: EOF, or a reset when it
    // dropped the unread newline.
    let mut rest = String::new();
    let after = client.reader.read_line(&mut rest);
    assert!(
        matches!(after, Ok(0) | Err(_)),
        "connection still open: {after:?} {rest:?}"
    );

    // The daemon itself keeps serving.
    let mut other = Client::connect(&service);
    other.send(ping);
    assert_eq!(other.recv(), "{\"pong\":true}");
    other.send("{\"op\":\"shutdown\"}");
    assert_eq!(other.recv(), "{\"bye\":true}");
    service.wait();
}

#[test]
fn shutdown_drill_answers_pending_pairs_loudly() {
    let gate = Arc::new(Gate::default());
    let backend = Arc::new(ScriptedBackend::new(
        &["a", "b"],
        &["w"],
        Some(Arc::clone(&gate)),
    ));
    let service = start(Arc::clone(&backend) as Arc<dyn Backend>, 1, 16);
    let mut client = Client::connect(&service);
    // One worker: (a, w) starts running, (b, w) stays queued.
    client.send(&sweep_request(9, &["a", "b"], &["w"]));
    assert_eq!(client.recv(), "{\"ack\":9,\"pairs\":2}");
    gate.wait_entered(1);

    let mut controller = Client::connect(&service);
    controller.send("{\"op\":\"shutdown\"}");
    assert_eq!(controller.recv(), "{\"bye\":true}");
    // Hold the gate until the pool's shutdown has cleared the queued
    // (b, w) job; opening earlier would let the worker take it through
    // the open gate and turn the drill into a normal completion.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queued() > 0 {
        assert!(Instant::now() < deadline, "queued job never cleared");
        std::thread::sleep(Duration::from_millis(2));
    }
    gate.open(); // let the in-flight run finish

    let lines = client.drain();
    let ran = lines
        .iter()
        .find(|l| l.contains("\"config\":\"a\""))
        .expect("in-flight pair completes through shutdown");
    assert!(ran.contains("\"source\":\"run\""), "got: {ran}");
    let dropped = lines
        .iter()
        .find(|l| l.contains("\"error\"") && l.contains("(b, w)"))
        .expect("queued pair answered with a shutdown error");
    assert!(dropped.contains("shut down"), "got: {dropped}");
    assert!(
        lines.iter().any(|l| l.starts_with("{\"done\":9,")),
        "the sweep still completes: {lines:?}"
    );
    assert_eq!(backend.runs.load(Ordering::SeqCst), 1, "b never ran");
    service.wait();
}

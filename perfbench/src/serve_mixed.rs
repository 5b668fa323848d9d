//! `serve_mixed`: a closed loop over two client connections, no think
//! time, against an in-process sweep daemon whose store was pre-warmed
//! with most of the pair pool. Both clients ask for overlapping pairs,
//! so `run`, `hit` and `shared` answers all occur. The daemon is
//! restarted over a fresh copy of the pre-warmed store for each round
//! of requests, which keeps the mix of answers the same for the whole
//! run.
//!
//! This is the only workload that uses the protocol, in-flight dedupe,
//! admission and round-robin fairness; it reads the store through the
//! serve backend's render cache and simulates on the service pool.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcm_bench::harness::Memo;
use mcm_bench::serve_backend::MemoBackend;
use mcm_gpu::{RunReport, SystemConfig};
use mcm_serve::protocol::{render_report, report_slice, Request};
use mcm_serve::service::{ServeOptions, ServeStats, SweepService};
use mcm_store::Store;
use mcm_telemetry::json::Json;
use mcm_workloads::WorkloadSpec;

use crate::env::{copy_store, release_free_memory, TempDir};
use crate::inputs::{self, Pair, ServePool, SweepRequest};
use crate::metrics::{check_instructions, median, Metric};
use crate::sim_serial::run_pair;
use crate::{ms_since, timed_setup, Ctx, Outcome};

/// Daemon simulation workers (the host has two cores).
pub const WORKERS: usize = 2;
/// Admission bound: far above what two closed-loop clients can queue,
/// so no request is rejected.
pub const QUEUE_CAPACITY: usize = 4096;
/// A response slower than this fails the request.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A daemon over its own copy of the pre-warmed store. Field order is
/// drop order: the service shuts down before its directory goes.
struct Daemon {
    service: SweepService,
    _dir: TempDir,
}

fn start_daemon(ctx: &Ctx<'_>, warm_store: &Path, round: u64) -> Daemon {
    let dir = TempDir::new(ctx.tmp, &format!("serve-round-{round}"));
    copy_store(warm_store, dir.path());
    let store = Store::open(dir.path()).expect("open the daemon's store");
    let backend = Arc::new(MemoBackend::new(ctx.size.scale, Some(store)));
    let opts = ServeOptions {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
    };
    let service = SweepService::start("127.0.0.1:0", backend, opts).expect("bind the daemon");
    Daemon { service, _dir: dir }
}

/// One client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Panics
    ///
    /// Panics when the daemon cannot be reached.
    pub fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the daemon");
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone client socket"));
        Client { reader, writer }
    }

    /// Sends one sweep request and reads until its `done` (or error)
    /// line.
    pub fn request(&mut self, id: u64, req: &SweepRequest) -> Served {
        let line = Request::Sweep {
            id,
            configs: vec![req.preset.to_string()],
            workloads: req.workloads.iter().map(|w| (*w).to_string()).collect(),
        }
        .render();
        let mut served = Served {
            request: req.clone(),
            op: 0,
            round: 0,
            latency_ms: 0.0,
            ack_us: None,
            pair_lines: Vec::new(),
            error: None,
        };
        let t = Instant::now();
        if let Err(e) = self.writer.write_all(format!("{line}\n").as_bytes()) {
            served.error = Some(format!("send failed: {e}"));
            return served;
        }
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.reader.read_line(&mut buf) {
                Ok(0) => {
                    served.error = Some("daemon closed the connection".to_string());
                    break;
                }
                Err(e) => {
                    served.error = Some(format!("read failed: {e}"));
                    break;
                }
                Ok(_) => {}
            }
            let l = buf.trim_end();
            if l.starts_with("{\"ack\":") {
                served.ack_us = Some(t.elapsed().as_secs_f64() * 1e6);
            } else if l.starts_with("{\"done\":") {
                break;
            } else if l.starts_with("{\"error\":") {
                served.error = Some(l.to_string());
                break;
            } else {
                served.pair_lines.push(l.to_string());
            }
        }
        served.latency_ms = ms_since(t);
        served
    }
}

/// One answered request.
#[derive(Debug)]
pub struct Served {
    /// What was asked.
    pub request: SweepRequest,
    /// Which request of which client's sequence (repeated every round).
    pub op: u64,
    /// The daemon round it was sent in.
    pub round: u64,
    /// Request sent to `done` line, ms.
    pub latency_ms: f64,
    /// Request sent to `ack` line, µs.
    pub ack_us: Option<f64>,
    /// The `pair` lines, as received.
    pub pair_lines: Vec<String>,
    /// The error line or transport failure, if any.
    pub error: Option<String>,
}

/// Runs one round: both clients send the sequence concurrently, each
/// waiting for its previous answer. Returns every answer and the
/// round's wall time in seconds.
fn round(
    ctx: &Ctx<'_>,
    clients: &mut [Client; 2],
    seq: &[SweepRequest],
    round: u64,
) -> (Vec<Served>, f64) {
    let t = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    seq.iter()
                        .enumerate()
                        .map(|(i, req)| {
                            let id = (round << 20) | ((c as u64) << 16) | i as u64;
                            let mut served = ctx
                                .tracer
                                .span("serve.request", None, id, |_| client.request(id, req));
                            served.op = ((c as u64) << 32) | i as u64;
                            served.round = round;
                            served
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (answers, t.elapsed().as_secs_f64())
}

fn add_stats(total: &mut ServeStats, s: ServeStats) {
    total.requests += s.requests;
    total.hits += s.hits;
    total.misses += s.misses;
    total.inflight_dedups += s.inflight_dedups;
    total.rejections += s.rejections;
}

/// The workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let scale = ctx.size.scale;
    let prepared = |p: &Pair| (p.config(), p.spec());
    let (pool, warm_store, mut refs, mut daemon, mut clients) =
        timed_setup(ctx.size.setup_reps, &mut out.setup_s, |rep| {
            let pool: ServePool = inputs::serve_pool(ctx.seed, ctx.size);
            let warm_store = TempDir::new(ctx.tmp, &format!("serve-warm-{rep}"));
            let mut memo = Memo::with_store(
                scale,
                Store::open(warm_store.path()).expect("open the pre-warm store"),
            );
            let warm: Vec<(SystemConfig, WorkloadSpec)> = pool.warm.iter().map(prepared).collect();
            // One job: two workers contending with the host's other
            // load made set-up time swing by a third from run to run.
            memo.warm_with_jobs(1, &crate::sweep::refs(&warm));
            let refs: BTreeMap<Pair, RunReport> = pool
                .warm
                .iter()
                .zip(&warm)
                .map(|(p, (c, s))| (*p, memo.run(c, s)))
                .collect();
            drop(memo);
            let daemon = start_daemon(ctx, warm_store.path(), 0);
            let addr = daemon.service.local_addr();
            let clients = [Client::connect(addr), Client::connect(addr)];
            (pool, warm_store, refs, daemon, clients)
        });
    out.inputs = pool.all();

    let mut stats = ServeStats::default();
    let mut answers: Vec<Served> = Vec::new();
    let mut walls = Vec::new();
    let seq = inputs::serve_requests(ctx.seed, &pool, ctx.size);
    let start = Instant::now();
    let mut r = 0u64;
    loop {
        let (served, wall_s) = round(ctx, &mut clients, &seq, r);
        walls.push(wall_s);
        answers.extend(served);
        add_stats(&mut stats, daemon.service.stats());
        r += 1;
        if ctx.expired(start, true) {
            break;
        }
        drop(clients);
        drop(daemon);
        release_free_memory();
        daemon = start_daemon(ctx, warm_store.path(), r);
        let addr = daemon.service.local_addr();
        clients = [Client::connect(addr), Client::connect(addr)];
    }
    drop(clients);
    drop(daemon);

    // Direct results for the pairs the daemon simulated itself.
    for p in &pool.cold {
        let (cfg, spec) = prepared(p);
        match run_pair(&cfg, &spec.scaled(scale)) {
            Ok(report) => {
                refs.insert(*p, report);
            }
            Err(msg) => out.fail(msg),
        }
    }
    let rendered: BTreeMap<Pair, String> =
        refs.iter().map(|(p, r)| (*p, render_report(r))).collect();
    for (p, report) in &refs {
        out.check(check_instructions(report, &p.spec().scaled(scale)));
        let recorded = out.digest.add(report);
        out.check(recorded);
    }

    let mut sources: BTreeMap<String, u64> = BTreeMap::new();
    let mut acks = Vec::new();
    let mut delivered = vec![(0u64, 0u64); walls.len()]; // per round: instructions, pairs
    for a in &answers {
        out.attempted += 1;
        if let Some(e) = &a.error {
            out.fail(format!("request {:?}: {e}", a.request));
            continue;
        }
        // Each answer is its own operation: which request simulates and
        // which shares varies from round to round, so a request's
        // fastest repeat would hide the miss path.
        out.ops.push(((a.round << 40) | a.op, a.latency_ms));
        acks.extend(a.ack_us);
        match verify(a, &rendered, &refs, &mut sources) {
            Ok((instructions, pairs)) => {
                let d = &mut delivered[a.round as usize];
                d.0 += instructions;
                d.1 += pairs;
            }
            Err(msg) => out.fail(msg),
        }
    }
    for (wall_s, (instructions, pairs)) in walls.into_iter().zip(delivered) {
        out.work.push((0, wall_s, instructions, pairs));
    }

    if ctx.tracer.enabled() {
        let pairs = (stats.hits + stats.misses + stats.inflight_dedups) as f64;
        out.layers = vec![
            Metric::new("serve.requests", "count", stats.requests as f64),
            Metric::new("serve.hits", "count", stats.hits as f64),
            Metric::new("serve.misses", "count", stats.misses as f64),
            Metric::new(
                "serve.inflight_dedups",
                "count",
                stats.inflight_dedups as f64,
            ),
            Metric::new("serve.rejections", "count", stats.rejections as f64),
            Metric::new(
                "serve.no_sim_ratio",
                "ratio",
                (stats.hits + stats.inflight_dedups) as f64 / pairs,
            ),
            Metric::new("serve.ack_us_p50", "us", median(&acks)),
        ];
    }
    eprintln!("perfbench: serve_mixed answer sources {sources:?}");
    out
}

/// Checks one answered request: one pair line per requested pair, each
/// carrying exactly the bytes `render_report` gives the direct result.
/// Returns the delivered instructions and pairs.
fn verify(
    a: &Served,
    rendered: &BTreeMap<Pair, String>,
    refs: &BTreeMap<Pair, RunReport>,
    sources: &mut BTreeMap<String, u64>,
) -> Result<(u64, u64), String> {
    let mut instructions = 0;
    if a.pair_lines.len() != a.request.workloads.len() {
        return Err(format!(
            "request {:?}: {} pair lines for {} pairs",
            a.request,
            a.pair_lines.len(),
            a.request.workloads.len()
        ));
    }
    for line in &a.pair_lines {
        let doc = Json::parse(line).map_err(|e| format!("unparsable pair line: {e}"))?;
        let field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let pair = Pair {
            preset: a.request.preset,
            workload: a
                .request
                .workloads
                .iter()
                .copied()
                .find(|w| *w == field("workload"))
                .ok_or_else(|| format!("unrequested workload in {line:.120}"))?,
        };
        if field("config") != pair.preset {
            return Err(format!("unrequested config in {line:.120}"));
        }
        if report_slice(line) != rendered.get(&pair).map(String::as_str) {
            return Err(format!(
                "({}, {}): served report differs from the direct result",
                pair.preset, pair.workload
            ));
        }
        *sources.entry(field("source")).or_default() += 1;
        instructions += refs[&pair].instructions;
    }
    Ok((instructions, a.pair_lines.len() as u64))
}

//! End-to-end drill of the sweep service over the real simulator and
//! the real persistent store, driving the actual `serve` binary as a
//! subprocess:
//!
//! * two concurrent clients with overlapping grids — each unique pair
//!   simulated exactly once (`runs` from the `stats` op);
//! * served report bytes identical to a direct in-process
//!   [`Memo`](mcm_bench::harness::Memo) run of the same pair;
//! * `kill -9` mid-life, then a warm restart over the same `MCM_STORE`
//!   — the whole grid comes back as hits with the same bytes, and the
//!   dead server's stale `LOCK` is broken;
//! * a graceful shutdown leaves no `LOCK` behind;
//! * the scripted `serve_client` binary round-trips
//!   ping/sweep/stats/shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mcm_bench::env::RunEnv;
use mcm_bench::harness::Memo;
use mcm_gpu::SystemConfig;
use mcm_serve::protocol::report_slice;
use mcm_workloads::suite;

const SCALE: &str = "0.01";

/// A running `serve` subprocess with its advertised address.
struct Server {
    child: Child,
    addr: String,
    /// Kept open so the server's final status line never hits a closed
    /// pipe (println! panics on EPIPE).
    stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn spawn(store_dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .env("MCM_SCALE", SCALE)
            .env("MCM_STORE", store_dir)
            .env("MCM_SERVE_ADDR", "127.0.0.1:0")
            .env("MCM_SERVE_WORKERS", "2")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve binary");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read banner");
        let addr = first
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner names the address")
            .to_string();
        assert!(
            first.starts_with("mcm-serve: listening on "),
            "unexpected banner: {first:?}"
        );
        Server {
            child,
            addr,
            stdout,
        }
    }

    fn kill_hard(mut self) {
        self.child.kill().expect("SIGKILL the server");
        let _ = self.child.wait();
    }

    fn wait_exit(mut self) {
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().expect("server exit status");
        assert!(status.success(), "server exited with {status:?}\n{rest}");
        assert!(
            rest.contains("mcm-serve: shut down"),
            "missing farewell: {rest:?}"
        );
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .unwrap();
        Conn {
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
        assert!(
            self.reader.read_line(&mut line).expect("recv") > 0,
            "server closed the connection"
        );
        line.trim_end().to_string()
    }

    /// Sweeps and returns `(config, workload, source, report)` in index
    /// order.
    fn sweep(
        &mut self,
        id: u64,
        configs: &[&str],
        workloads: &[&str],
    ) -> Vec<(String, String, String, String)> {
        let quoted = |names: &[&str]| {
            names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        self.send(&format!(
            "{{\"op\":\"sweep\",\"id\":{id},\"configs\":[{}],\"workloads\":[{}]}}",
            quoted(configs),
            quoted(workloads)
        ));
        let mut pairs = Vec::new();
        loop {
            let line = self.recv();
            if line.starts_with(&format!("{{\"done\":{id},")) {
                break;
            }
            if line.starts_with(&format!("{{\"ack\":{id},")) {
                continue;
            }
            assert!(!line.contains("\"error\""), "sweep {id} failed: {line}");
            let field = |key: &str| {
                let pat = format!("\"{key}\":\"");
                let rest = &line[line.find(&pat).unwrap() + pat.len()..];
                rest[..rest.find('"').unwrap()].to_string()
            };
            let index: usize = {
                let rest = &line[line.find("\"index\":").unwrap() + 8..];
                rest[..rest.find(',').unwrap()].parse().unwrap()
            };
            let report = report_slice(&line).expect("pair line has a report");
            pairs.push((
                index,
                field("config"),
                field("workload"),
                field("source"),
                report.to_string(),
            ));
        }
        pairs.sort_by_key(|(index, ..)| *index);
        pairs
            .into_iter()
            .map(|(_, c, w, s, r)| (c, w, s, r))
            .collect()
    }

    fn runs(&mut self) -> u64 {
        self.send("{\"op\":\"stats\"}");
        let line = self.recv();
        let rest = &line[line.find("\"runs\":").unwrap() + 7..];
        rest[..rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())]
            .parse()
            .expect("runs is a number")
    }

    fn shutdown(&mut self) {
        self.send("{\"op\":\"shutdown\"}");
        assert_eq!(self.recv(), "{\"bye\":true}");
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mcm-serve-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn served_sweeps_run_once_match_direct_runs_and_survive_kill_minus_nine() {
    let store_dir = scratch("main");
    let all = suite::suite();
    let (w0, w1) = (all[0].name, all[1].name);

    // --- Cold server: two concurrent clients, overlapping grids. ---
    let server = Server::spawn(&store_dir);
    let twin = std::thread::spawn({
        let addr = server.addr.clone();
        move || Conn::open(&addr).sweep(50, &["baseline"], &[w1, w0])
    });
    let mut conn = Conn::open(&server.addr);
    let first = conn.sweep(1, &["baseline"], &[w0, w1]);
    let twin_pairs = twin.join().expect("twin client");

    // Exactly once: 2 unique pairs across both clients, 2 simulations.
    assert_eq!(conn.runs(), 2, "each unique pair simulated exactly once");
    assert_eq!(first.len(), 2);
    assert_eq!(twin_pairs.len(), 2);
    // Identical bytes on both connections (grids are reversed copies).
    assert_eq!(first[0].3, twin_pairs[1].3);
    assert_eq!(first[1].3, twin_pairs[0].3);

    // --- Byte identity against a direct in-process run. ---
    let scale: f64 = SCALE.parse().unwrap();
    let mut memo = Memo::new(RunEnv::at_scale(scale));
    let direct0 = memo.run(&SystemConfig::baseline_mcm(), &all[0]);
    let direct1 = memo.run(&SystemConfig::baseline_mcm(), &all[1]);
    assert_eq!(
        first[0].3,
        mcm_serve::protocol::render_report(&direct0),
        "served report is byte-identical to a direct Memo run"
    );
    assert_eq!(first[1].3, mcm_serve::protocol::render_report(&direct1));

    // --- Same grid again: pure hits, no new simulations. ---
    let again = conn.sweep(2, &["baseline"], &[w0, w1]);
    assert!(
        again.iter().all(|(_, _, source, _)| source == "hit"),
        "warm repeat must be all hits: {again:?}"
    );
    assert_eq!(conn.runs(), 2, "hits never touch the pool");

    // --- kill -9, then warm-restart over the same store. ---
    server.kill_hard();
    assert!(
        store_dir.join("LOCK").exists(),
        "a SIGKILLed server leaves its stale LOCK behind (the point of the drill)"
    );
    let revived = Server::spawn(&store_dir);
    let mut conn = Conn::open(&revived.addr);
    let warm = conn.sweep(3, &["baseline"], &[w0, w1]);
    assert!(
        warm.iter().all(|(_, _, source, _)| source == "hit"),
        "after restart the grid is served from the store: {warm:?}"
    );
    assert_eq!(conn.runs(), 0, "the revived server never simulates");
    assert_eq!(warm[0].3, first[0].3, "bytes survive the restart");
    assert_eq!(warm[1].3, first[1].3);

    // --- Graceful shutdown cleans up. ---
    conn.shutdown();
    revived.wait_exit();
    assert!(
        !store_dir.join("LOCK").exists(),
        "graceful shutdown removes the store lock"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn scripted_client_round_trips_the_protocol() {
    let store_dir = scratch("client");
    let server = Server::spawn(&store_dir);
    let w0 = suite::suite()[0].name;
    let out = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .env("MCM_SERVE_ADDR", &server.addr)
        .env(
            "MCM_SERVE_SCRIPT",
            format!("ping; sweep baseline:{w0}; sweep2 baseline:{w0}; stats; shutdown"),
        )
        .output()
        .expect("run serve_client");
    assert!(
        out.status.success(),
        "serve_client exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "pong");
    assert!(lines[1].starts_with(&format!("pair 0 baseline {w0} {{")));
    assert_eq!(lines[2], "done 1");
    assert_eq!(lines[3], lines[1], "sweep2 serves the same bytes");
    assert_eq!(lines[4], "sweep2 ok");
    assert_eq!(lines[5], "runs=1", "three sweeps of one pair, one run");
    assert_eq!(lines[6], "bye");
    server.wait_exit();
    let _ = std::fs::remove_dir_all(&store_dir);
}

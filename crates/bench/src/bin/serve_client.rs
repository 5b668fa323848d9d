//! Scripted client for the `mcm-serve` daemon — the tier-1 smoke
//! driver and a minimal example of the wire protocol.
//!
//! * `MCM_SERVE_ADDR` — the server's address (required).
//! * `MCM_SERVE_SCRIPT` — `;`-separated statements, run in order:
//!   * `sweep <cfg,..>:<wl,..>` — one connection; prints each pair as
//!     `pair <index> <config> <workload> <report>` in index order.
//!   * `sweep2 <cfg,..>:<wl,..>` — the same grid from two concurrent
//!     connections (exercises cross-client in-flight dedupe); prints
//!     the first connection's pairs, then `sweep2 ok` once both
//!     complete with byte-identical reports.
//!   * `stats` — prints `runs=<n>` (simulations the server ever ran).
//!   * `ping` — prints `pong`.
//!   * `shutdown` — asks the server to exit; prints `bye`.
//!
//! Pair output carries no hit/run/shared tags and is index-sorted, so
//! the bytes are identical whether the server answered cold, warm, or
//! mid-flight — scripts diff two runs' outputs directly.
//!
//! Protocol `error` lines are printed as `error <message>` and exit
//! the client with status 3.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

use mcm_bench::harness::env_parsed;
use mcm_serve::protocol::report_slice;

struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { reader, stream }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush())
            .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => fail("server closed the connection"),
            Ok(_) => line.trim_end().to_string(),
            Err(e) => fail(&format!("recv failed: {e}")),
        }
    }

    /// Runs one sweep, returning `(index, config, workload, report)`
    /// per pair, index-sorted. Exits on protocol errors.
    fn sweep(
        &mut self,
        id: u64,
        configs: &str,
        workloads: &str,
    ) -> Vec<(u64, String, String, String)> {
        let json_list = |csv: &str| {
            csv.split(',')
                .map(|n| format!("\"{}\"", n.trim()))
                .collect::<Vec<_>>()
                .join(",")
        };
        self.send(&format!(
            "{{\"op\":\"sweep\",\"id\":{id},\"configs\":[{}],\"workloads\":[{}]}}",
            json_list(configs),
            json_list(workloads)
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
            if let Some(msg) = field_str(&line, "error") {
                println!("error {msg}");
                exit(3);
            }
            let index = field_u64(&line, "index")
                .unwrap_or_else(|| fail(&format!("unparsable pair line: {line}")));
            let config = field_str(&line, "config").unwrap_or_default();
            let workload = field_str(&line, "workload").unwrap_or_default();
            let report = report_slice(&line)
                .unwrap_or_else(|| fail(&format!("pair line without report: {line}")))
                .to_string();
            pairs.push((index, config, workload, report));
        }
        pairs.sort_by_key(|(index, ..)| *index);
        pairs
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("mcm-serve-client: {msg}");
    exit(2);
}

/// Minimal field scraping: these lines are machine-generated with
/// known key order, so a substring scan is exact.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn print_pairs(pairs: &[(u64, String, String, String)]) {
    for (index, config, workload, report) in pairs {
        println!("pair {index} {config} {workload} {report}");
    }
}

fn main() {
    let addr: String =
        env_parsed("MCM_SERVE_ADDR").unwrap_or_else(|| fail("MCM_SERVE_ADDR is required"));
    let script: String =
        env_parsed("MCM_SERVE_SCRIPT").unwrap_or_else(|| fail("MCM_SERVE_SCRIPT is required"));
    let mut conn = Conn::open(&addr);
    let mut next_id = 0u64;
    for stmt in script.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        match stmt.split_once(' ').unwrap_or((stmt, "")) {
            ("ping", _) => {
                conn.send("{\"op\":\"ping\"}");
                let line = conn.recv();
                if line != "{\"pong\":true}" {
                    fail(&format!("bad pong: {line}"));
                }
                println!("pong");
            }
            ("stats", _) => {
                conn.send("{\"op\":\"stats\"}");
                let line = conn.recv();
                let runs =
                    field_u64(&line, "runs").unwrap_or_else(|| fail(&format!("bad stats: {line}")));
                println!("runs={runs}");
            }
            ("shutdown", _) => {
                conn.send("{\"op\":\"shutdown\"}");
                let line = conn.recv();
                if line != "{\"bye\":true}" {
                    fail(&format!("bad bye: {line}"));
                }
                println!("bye");
            }
            ("sweep", grid) => {
                let (configs, workloads) = grid
                    .split_once(':')
                    .unwrap_or_else(|| fail(&format!("sweep wants <cfgs>:<wls>, got {grid:?}")));
                next_id += 1;
                let pairs = conn.sweep(next_id, configs, workloads);
                print_pairs(&pairs);
                println!("done {}", pairs.len());
            }
            ("sweep2", grid) => {
                let (configs, workloads) = grid
                    .split_once(':')
                    .unwrap_or_else(|| fail(&format!("sweep2 wants <cfgs>:<wls>, got {grid:?}")));
                next_id += 1;
                let id = next_id;
                // Same grid from a second, concurrent connection: the
                // server must answer both while simulating each unique
                // pair at most once.
                let twin = std::thread::spawn({
                    let (addr, configs, workloads) =
                        (addr.clone(), configs.to_string(), workloads.to_string());
                    move || Conn::open(&addr).sweep(id, &configs, &workloads)
                });
                let pairs = conn.sweep(id, configs, workloads);
                let twin_pairs = twin.join().unwrap_or_else(|_| fail("twin sweep panicked"));
                for (a, b) in pairs.iter().zip(twin_pairs.iter()) {
                    if a.3 != b.3 {
                        fail(&format!(
                            "report bytes diverged across connections for ({}, {})",
                            a.1, a.2
                        ));
                    }
                }
                print_pairs(&pairs);
                println!("sweep2 ok");
            }
            (other, _) => fail(&format!("unknown statement {other:?}")),
        }
    }
}

//! `mcm-serve` daemon: the sweep service over the bench harness
//! backend.
//!
//! Runs until a client sends the `shutdown` op (or the process is
//! killed — the persistent store makes that safe: restart over the same
//! `MCM_STORE` and finished pairs are hits). Knobs:
//!
//! * `MCM_SERVE_ADDR` — bind address, default `127.0.0.1:0`
//!   (ephemeral; the chosen port is printed on the first line).
//! * `MCM_SERVE_WORKERS` — simulation workers, default `MCM_JOBS`'
//!   resolution ([`mcm_exec::jobs`]).
//! * `MCM_SERVE_QUEUE` — admission bound on queued jobs, default 1024.
//! * `MCM_STORE`, `MCM_SCALE` — as in the harness
//!   ([`mcm_bench::harness::Memo::from_env`]).

use std::sync::Arc;

use mcm_bench::harness::env_parsed;
use mcm_bench::serve_backend::MemoBackend;
use mcm_serve::service::{ServeOptions, SweepService};

fn main() {
    let addr: String = env_parsed("MCM_SERVE_ADDR").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let opts = ServeOptions {
        workers: env_parsed("MCM_SERVE_WORKERS").unwrap_or_else(mcm_exec::jobs),
        queue_capacity: env_parsed("MCM_SERVE_QUEUE").unwrap_or(1024),
    };
    let backend = Arc::new(MemoBackend::from_env());
    let service = SweepService::start(&addr, backend, opts)
        .unwrap_or_else(|e| panic!("mcm-serve: cannot bind {addr}: {e}"));
    // First line is machine-readable: scripts parse the port from it.
    println!("mcm-serve: listening on {}", service.local_addr());
    let stats = service.wait();
    println!(
        "mcm-serve: shut down ({} requests, {} hits, {} runs, {} shared, {} rejected)",
        stats.requests, stats.hits, stats.misses, stats.inflight_dedups, stats.rejections
    );
}

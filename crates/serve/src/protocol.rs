//! The wire protocol: one JSON document per `\n`-terminated line, both
//! directions, over localhost TCP.
//!
//! ## Requests
//!
//! ```text
//! {"op":"sweep","id":1,"configs":["baseline","optimized"],"workloads":["CFD","*"]}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! `id` is a client-chosen request tag echoed on every response line of
//! that sweep. `"*"` in `workloads` expands to the backend's full
//! suite.
//!
//! ## Responses
//!
//! A sweep is answered with one `ack` line, one `pair` line per
//! `(config, workload)` pair of the request grid (in completion order,
//! *not* grid order — clients reorder by `index`), and one `done` line:
//!
//! ```text
//! {"ack":1,"pairs":2}
//! {"id":1,"index":0,"config":"baseline","workload":"CFD","source":"hit","report":{...}}
//! {"id":1,"index":1,"config":"optimized","workload":"CFD","source":"run","report":{...}}
//! {"done":1,"pairs":2}
//! ```
//!
//! `source` says how the pair was answered: `"hit"` (cache/store),
//! `"run"` (this request triggered the simulation), or `"shared"`
//! (subscribed to another request's in-flight run). The `report` value
//! is spliced in **verbatim** from [`render_report`] — the bytes are
//! identical across all three sources, which the integration tests
//! pin.
//!
//! Errors answer with `{"error":"...","id":N}` (the `id` is present
//! when the error belongs to a sweep). A rejected request (admission
//! control) produces *only* an error line: no ack, no pairs, nothing
//! scheduled. A request line longer than [`MAX_REQUEST_LINE`] bytes is
//! answered with one error line, and the server closes the connection.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcm_gpu::RunReport;
use mcm_interconnect::energy::Tier;
use mcm_telemetry::json::{push_escaped, Json};

/// The longest request line the server reads, in bytes, not counting
/// the newline. A full-suite sweep over every preset is a few KiB; the
/// cap bounds what one client can make the server buffer.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve) a config × workload grid.
    Sweep {
        /// Client-chosen tag echoed on every response line.
        id: u64,
        /// Configuration preset names.
        configs: Vec<String>,
        /// Workload names; `"*"` expands to the full suite.
        workloads: Vec<String>,
    },
    /// Report service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the service after answering.
    Shutdown,
}

fn string_list(obj: &BTreeMap<String, Json>, key: &str) -> Result<Vec<String>, String> {
    let arr = obj
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("sweep needs a {key:?} array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        out.push(
            v.as_str()
                .ok_or_else(|| format!("{key:?} entries must be strings"))?
                .to_string(),
        );
    }
    if out.is_empty() {
        return Err(format!("{key:?} must not be empty"));
    }
    Ok(out)
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message for syntax errors, unknown ops, or
    /// missing/ill-typed fields; the service echoes it back verbatim.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let Json::Obj(obj) = &doc else {
            return Err("request must be a JSON object".to_string());
        };
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs an \"op\" string".to_string())?;
        match op {
            "sweep" => Ok(Request::Sweep {
                id: doc
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "sweep needs a numeric \"id\"".to_string())?,
                configs: string_list(obj, "configs")?,
                workloads: string_list(obj, "workloads")?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the request as its wire line (without the newline).
    /// Clients use this; the service only parses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Request::Sweep {
                id,
                configs,
                workloads,
            } => {
                let _ = write!(out, "{{\"op\":\"sweep\",\"id\":{id},\"configs\":[");
                for (i, c) in configs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(&mut out, c);
                }
                out.push_str("],\"workloads\":[");
                for (i, w) in workloads.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(&mut out, w);
                }
                out.push_str("]}");
            }
            Request::Stats => out.push_str("{\"op\":\"stats\"}"),
            Request::Ping => out.push_str("{\"op\":\"ping\"}"),
            Request::Shutdown => out.push_str("{\"op\":\"shutdown\"}"),
        }
        out
    }
}

/// How a pair response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the backend's cache or persistent store.
    Hit,
    /// This request triggered the simulation.
    Run,
    /// Subscribed to another request's in-flight run.
    Shared,
}

impl Source {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Hit => "hit",
            Source::Run => "run",
            Source::Shared => "shared",
        }
    }
}

/// The `ack` line for a sweep of `pairs` pairs.
pub fn ack_line(id: u64, pairs: usize) -> String {
    format!("{{\"ack\":{id},\"pairs\":{pairs}}}")
}

/// One pair response line. `report` is spliced in verbatim — it must
/// be a complete JSON value, normally [`render_report`] output.
pub fn pair_line(
    id: u64,
    index: usize,
    config: &str,
    workload: &str,
    source: Source,
    report: &str,
) -> String {
    let mut out = String::with_capacity(report.len() + 96);
    let _ = write!(out, "{{\"id\":{id},\"index\":{index},\"config\":");
    push_escaped(&mut out, config);
    out.push_str(",\"workload\":");
    push_escaped(&mut out, workload);
    let _ = write!(out, ",\"source\":\"{}\",\"report\":", source.as_str());
    out.push_str(report);
    out.push('}');
    out
}

/// The `done` line closing a sweep.
pub fn done_line(id: u64, pairs: usize) -> String {
    format!("{{\"done\":{id},\"pairs\":{pairs}}}")
}

/// An error line; `id` ties it to a sweep when there is one.
pub fn error_line(message: &str, id: Option<u64>) -> String {
    let mut out = String::new();
    out.push_str("{\"error\":");
    push_escaped(&mut out, message);
    if let Some(id) = id {
        let _ = write!(out, ",\"id\":{id}");
    }
    out.push('}');
    out
}

/// The `pong` answer to a ping.
pub fn pong_line() -> String {
    "{\"pong\":true}".to_string()
}

/// The farewell answer to a shutdown request.
pub fn bye_line() -> String {
    "{\"bye\":true}".to_string()
}

/// Extracts the verbatim `report` value from a pair line. The splice
/// in [`pair_line`] puts `report` last, so this is an exact byte slice
/// of what [`render_report`] produced — the client-side half of the
/// byte-identity contract.
pub fn report_slice(pair_line: &str) -> Option<&str> {
    let start = pair_line.find("\"report\":")? + "\"report\":".len();
    let end = pair_line.len().checked_sub(1)?;
    (start <= end).then(|| &pair_line[start..end])
}

fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

fn push_ratio(out: &mut String, r: mcm_engine::stats::Ratio) {
    out.push('[');
    push_u64(out, r.hits());
    out.push(',');
    push_u64(out, r.total());
    out.push(']');
}

/// Renders a [`RunReport`] as canonical JSON: every field in struct
/// declaration order, ratios as `[hits,total]` pairs, the energy
/// ledger as its five raw byte counters (tier order then DRAM), and
/// per-module stats as nested arrays. Lossless — raw counters only, no
/// derived floats — and **byte-deterministic**: the same report always
/// renders to the same bytes, which is what lets the service promise
/// responses identical to a direct harness run.
pub fn render_report(r: &RunReport) -> String {
    let mut out = String::with_capacity(256 + r.modules.len() * 64);
    out.push_str("{\"workload\":");
    push_escaped(&mut out, &r.workload);
    out.push_str(",\"config\":");
    push_escaped(&mut out, &r.config);
    out.push_str(",\"cycles\":");
    push_u64(&mut out, r.cycles.as_u64());
    for (name, v) in [
        ("instructions", r.instructions),
        ("mem_ops", r.mem_ops),
        ("reads", r.reads),
        ("writes", r.writes),
        ("local_accesses", r.local_accesses),
        ("remote_accesses", r.remote_accesses),
    ] {
        let _ = write!(out, ",\"{name}\":");
        push_u64(&mut out, v);
    }
    for (name, ratio) in [("l1", r.l1), ("l15", r.l15), ("l2", r.l2)] {
        let _ = write!(out, ",\"{name}\":");
        push_ratio(&mut out, ratio);
    }
    out.push_str(",\"inter_module_bytes\":");
    push_u64(&mut out, r.inter_module_bytes);
    out.push_str(",\"dram_bytes\":");
    push_u64(&mut out, r.dram_bytes);
    out.push_str(",\"energy\":[");
    for tier in Tier::ALL {
        push_u64(&mut out, r.energy.bytes(tier));
        out.push(',');
    }
    push_u64(&mut out, r.energy.dram_bytes());
    out.push_str("],\"modules\":[");
    for (i, m) in r.modules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(&mut out, m.instructions);
        out.push(',');
        push_u64(&mut out, m.dram_bytes);
        out.push(',');
        push_ratio(&mut out, m.l2);
        out.push(',');
        push_ratio(&mut out, m.l15);
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_engine::stats::Ratio;
    use mcm_engine::Cycle;
    use mcm_gpu::ModuleStats;
    use mcm_interconnect::energy::EnergyLedger;

    fn sample_report() -> RunReport {
        let mut energy = EnergyLedger::new();
        energy.record(Tier::Chip, 100);
        energy.record(Tier::Package, 200);
        energy.record_dram(500);
        RunReport {
            workload: "CFD".into(),
            config: "MCM-GPU baseline (768 GB/s)".into(),
            cycles: Cycle::new(1000),
            instructions: 4000,
            mem_ops: 900,
            reads: 600,
            writes: 300,
            local_accesses: 700,
            remote_accesses: 200,
            l1: Ratio::from_parts(10, 20),
            l15: Ratio::from_parts(0, 0),
            l2: Ratio::from_parts(5, 8),
            inter_module_bytes: 123,
            dram_bytes: 456,
            energy,
            modules: vec![ModuleStats {
                instructions: 2000,
                dram_bytes: 228,
                l2: Ratio::from_parts(3, 4),
                l15: Ratio::from_parts(0, 0),
            }],
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Sweep {
                id: 7,
                configs: vec!["baseline".into(), "optimized".into()],
                workloads: vec!["CFD".into(), "*".into()],
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
    }

    #[test]
    fn bad_requests_are_named() {
        for (line, needle) in [
            ("nonsense", "bad request JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{\"op\":\"dance\"}", "unknown op"),
            (
                "{\"op\":\"sweep\",\"id\":1,\"workloads\":[\"x\"]}",
                "configs",
            ),
            (
                "{\"op\":\"sweep\",\"id\":1,\"configs\":[],\"workloads\":[\"x\"]}",
                "must not be empty",
            ),
            (
                "{\"op\":\"sweep\",\"configs\":[\"a\"],\"workloads\":[\"x\"]}",
                "numeric \"id\"",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn rendered_reports_are_valid_deterministic_json() {
        let r = sample_report();
        let a = render_report(&r);
        let b = render_report(&r);
        assert_eq!(a, b, "rendering must be byte-deterministic");
        let doc = Json::parse(&a).expect("well-formed");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("CFD"));
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(1000));
        // Ratios are raw [hits, total] pairs, never floats.
        let l1 = doc.get("l1").and_then(Json::as_arr).unwrap();
        assert_eq!(l1[0].as_u64(), Some(10));
        assert_eq!(l1[1].as_u64(), Some(20));
        // Energy is the five raw counters in tier-then-DRAM order.
        let energy = doc.get("energy").and_then(Json::as_arr).unwrap();
        assert_eq!(energy.len(), 5);
        assert_eq!(energy[0].as_u64(), Some(100));
        assert_eq!(energy[4].as_u64(), Some(500));
    }

    #[test]
    fn pair_lines_carry_the_report_verbatim() {
        let report = render_report(&sample_report());
        let line = pair_line(3, 1, "baseline", "CFD", Source::Shared, &report);
        assert_eq!(report_slice(&line), Some(report.as_str()));
        let doc = Json::parse(&line).expect("pair line is one JSON object");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("shared"));
        assert_eq!(
            doc.get("report")
                .and_then(|r| r.get("workload"))
                .and_then(Json::as_str),
            Some("CFD")
        );
    }

    #[test]
    fn control_lines_are_well_formed() {
        for line in [
            ack_line(9, 4),
            done_line(9, 4),
            error_line("boom \"quoted\"", Some(9)),
            error_line("standalone", None),
            pong_line(),
            bye_line(),
        ] {
            Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(error_line("x", Some(2)).contains("\"id\":2"));
        assert!(!error_line("x", None).contains("\"id\""));
    }
}

//! Chrome trace-event JSON sink: per-request lifecycles and warp-phase
//! slices, viewable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The mapping onto the trace-event model:
//!
//! * Each memory request is a **nestable async** span (`ph` `b`/`n`/`e`)
//!   under `cat:"req"`, keyed by the run-unique request id. Stage
//!   entries appear as instants (`n`) inside the span.
//! * Each warp phase is a **complete slice** (`ph:"X"`) on track
//!   `pid = SM + 1`, `tid = warp slot`, so one SM's warps stack under
//!   one process group.
//! * Each kernel launch is a complete slice on `pid 0`.
//!
//! Timestamps are integer simulated cycles written into the `ts` field
//! (the viewer will label them "µs"; read 1 µs as 1 cycle). Events are
//! appended in simulator hook order, so traces from identical runs are
//! byte-identical.

use std::collections::HashMap;
use std::fmt::Write as _;

use mcm_engine::Cycle;
use mcm_telemetry::json::push_escaped;

use crate::{FaultEvent, Probe, ReqStage, RequestMeta, WarpPhase};

/// Builds one JSON object by appending `"key":value` pairs to a buffer.
/// Numbers are written as integers (trace timestamps are whole cycles).
struct Obj<'a> {
    buf: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    fn open(buf: &'a mut String) -> Self {
        buf.push('{');
        Obj { buf, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_escaped(self.buf, key);
        self.buf.push(':');
    }

    fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_escaped(self.buf, value);
        self
    }

    fn num(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    fn close(self) {
        self.buf.push('}');
    }
}

/// Records a Chrome trace of the run; call
/// [`finish`](ChromeTraceProbe::finish) afterwards for the JSON.
#[derive(Debug, Default)]
pub struct ChromeTraceProbe {
    /// Comma-joined trace-event objects.
    buf: String,
    events: u64,
    /// Request id → meta, for naming stage/end events.
    reqs: HashMap<u64, RequestMeta>,
    /// Per warp slot: (slice start, phase, sm) of the open phase.
    warps: Vec<Option<(u64, WarpPhase, u32)>>,
    /// Kernel in flight: (index, start).
    kernel: Option<(u32, u64)>,
    /// Highest SM index seen (for process-name metadata).
    max_sm: Option<u32>,
}

impl ChromeTraceProbe {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ChromeTraceProbe::default()
    }

    /// Number of trace events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.events += 1;
    }

    fn req_name(meta: &RequestMeta) -> String {
        format!(
            "{} {} m{}>m{}",
            if meta.is_read { "read" } else { "write" },
            if meta.remote { "remote" } else { "local" },
            meta.module,
            meta.home
        )
    }

    /// Emits one complete (`X`) slice.
    fn slice(&mut self, pid: u64, tid: u64, cat: &str, name: &str, start: u64, end: u64) {
        self.sep();
        Obj::open(&mut self.buf)
            .str("ph", "X")
            .str("cat", cat)
            .str("name", name)
            .num("pid", pid)
            .num("tid", tid)
            .num("ts", start)
            .num("dur", end - start)
            .close();
    }

    /// Emits one nestable-async event (`b`/`n`/`e`) for request `id`.
    fn async_ev(&mut self, ph: &str, id: u64, meta: &RequestMeta, name: &str, ts: u64) {
        self.sep();
        Obj::open(&mut self.buf)
            .str("ph", ph)
            .str("cat", "req")
            .str("name", name)
            .num("id", id)
            .num("pid", 0)
            .num("tid", u64::from(meta.sm))
            .num("ts", ts)
            .close();
    }

    fn process_name(&mut self, pid: u64, name: &str) {
        self.sep();
        self.buf.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":"
        ));
        push_escaped(&mut self.buf, name);
        self.buf.push_str("}}");
    }

    /// Renders the accumulated trace as a Chrome trace-event JSON
    /// document. Call after the run completes (open warp phases, if
    /// any, are dropped).
    pub fn finish(&mut self) -> String {
        let max_sm = self.max_sm;
        self.process_name(0, "memory requests + kernels");
        if let Some(max) = max_sm {
            for sm in 0..=max {
                self.process_name(u64::from(sm) + 1, &format!("sm{sm}"));
            }
        }
        format!("{{\"traceEvents\":[{}]}}", self.buf)
    }

    /// Writes [`finish`](ChromeTraceProbe::finish) output to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn save(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.finish())
    }

    fn warp_slot(&mut self, warp: u32) -> &mut Option<(u64, WarpPhase, u32)> {
        let idx = warp as usize;
        if self.warps.len() <= idx {
            self.warps.resize(idx + 1, None);
        }
        &mut self.warps[idx]
    }

    /// Closes the open phase of `warp` at `now` (clamped monotone) and
    /// returns the clamped time.
    fn close_phase(&mut self, warp: u32, now: u64) -> u64 {
        let open = self.warp_slot(warp).take();
        match open {
            Some((start, phase, sm)) if now > start => {
                self.slice(
                    u64::from(sm) + 1,
                    u64::from(warp),
                    "warp",
                    phase.label(),
                    start,
                    now,
                );
                now
            }
            Some((start, ..)) => start,
            None => now,
        }
    }
}

impl Probe for ChromeTraceProbe {
    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        self.kernel = Some((kernel, now.as_u64()));
    }

    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        if let Some((k, start)) = self.kernel.take() {
            debug_assert_eq!(k, kernel);
            let end = now.as_u64().max(start);
            self.slice(0, 0, "kernel", &format!("kernel{k}"), start, end);
        }
    }

    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        *self.warp_slot(warp) = Some((now.as_u64(), WarpPhase::Issue, sm));
        self.max_sm = Some(self.max_sm.map_or(sm, |m| m.max(sm)));
    }

    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        let t = self.close_phase(warp, now.as_u64());
        *self.warp_slot(warp) = Some((t, phase, sm));
    }

    fn warp_retire(&mut self, warp: u32, _sm: u32, now: Cycle) {
        self.close_phase(warp, now.as_u64());
        *self.warp_slot(warp) = None;
    }

    fn request_issued(&mut self, id: u64, now: Cycle, meta: RequestMeta) {
        let name = Self::req_name(&meta);
        self.async_ev("b", id, &meta, &name, now.as_u64());
        self.reqs.insert(id, meta);
    }

    fn request_stage(&mut self, id: u64, now: Cycle, stage: ReqStage) {
        if let Some(meta) = self.reqs.get(&id).copied() {
            self.async_ev("n", id, &meta, &stage.label(), now.as_u64());
        }
    }

    fn request_retired(&mut self, id: u64, now: Cycle) {
        if let Some(meta) = self.reqs.remove(&id) {
            let name = Self::req_name(&meta);
            self.async_ev("e", id, &meta, &name, now.as_u64());
        }
    }

    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        let name = match event {
            FaultEvent::LinkRetry { link, attempt } => {
                format!("link-retry {link} #{attempt}")
            }
            FaultEvent::DramThrottle { module, stretch } => {
                format!("dram-throttle m{module} x{stretch}")
            }
            FaultEvent::MshrPoison { request } => format!("mshr-poison req{request}"),
            FaultEvent::ModuleDisabled { module, kernel } => {
                format!("module-disabled m{module} k{kernel}")
            }
        };
        self.sep();
        Obj::open(&mut self.buf)
            .str("ph", "i")
            .str("cat", "fault")
            .str("name", &name)
            .str("s", "g")
            .num("pid", 0)
            .num("tid", 0)
            .num("ts", now.as_u64())
            .close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RequestMeta {
        RequestMeta {
            sm: 3,
            module: 0,
            home: 2,
            remote: true,
            is_read: true,
        }
    }

    #[test]
    fn object_builds_in_order() {
        let mut buf = String::new();
        Obj::open(&mut buf)
            .str("name", "req 1")
            .num("id", 7)
            .num("ts", 0)
            .close();
        assert_eq!(buf, r#"{"name":"req 1","id":7,"ts":0}"#);
        let mut empty = String::new();
        Obj::open(&mut empty).close();
        assert_eq!(empty, "{}");
    }

    #[test]
    fn request_lifecycle_emits_begin_instants_end() {
        let mut tr = ChromeTraceProbe::new();
        tr.request_issued(7, Cycle::new(10), meta());
        tr.request_stage(7, Cycle::new(20), ReqStage::ToHome { at: 0 });
        tr.request_stage(7, Cycle::new(50), ReqStage::Mem);
        tr.request_retired(7, Cycle::new(90));
        assert_eq!(tr.events(), 4);
        let json = tr.finish();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains(r#""ph":"b""#));
        assert!(json.contains(r#""ph":"e""#));
        assert!(json.contains("read remote m0>m2"));
        assert!(json.contains("ring>@0"));
    }

    #[test]
    fn warp_phases_become_slices() {
        let mut tr = ChromeTraceProbe::new();
        tr.warp_spawn(5, 1, Cycle::new(0));
        tr.warp_phase(5, 1, Cycle::new(10), WarpPhase::Compute);
        tr.warp_phase(5, 1, Cycle::new(40), WarpPhase::RemoteMem);
        tr.warp_retire(5, 1, Cycle::new(100));
        // Slices: issue [0,10), compute [10,40), remote-mem [40,100).
        assert_eq!(tr.events(), 3);
        let json = tr.finish();
        assert!(json.contains(r#""name":"issue""#));
        assert!(json.contains(r#""name":"remote-mem""#));
        assert!(json.contains(r#""dur":60"#));
        // Track layout: pid = sm + 1, tid = warp slot.
        assert!(json.contains(r#""pid":2,"tid":5"#));
    }

    #[test]
    fn non_monotone_phase_times_are_clamped() {
        let mut tr = ChromeTraceProbe::new();
        tr.warp_spawn(0, 0, Cycle::new(100));
        // A transition observed "before" the open slice start must not
        // produce a negative duration.
        tr.warp_phase(0, 0, Cycle::new(40), WarpPhase::LocalMem);
        tr.warp_retire(0, 0, Cycle::new(120));
        let json = tr.finish();
        assert!(!json.contains(":-"), "negative duration leaked: {json}");
    }

    #[test]
    fn kernel_slice_and_metadata() {
        let mut tr = ChromeTraceProbe::new();
        tr.kernel_begin(0, Cycle::new(0));
        tr.warp_spawn(0, 2, Cycle::new(0));
        tr.warp_retire(0, 2, Cycle::new(10));
        tr.kernel_end(0, Cycle::new(500));
        let json = tr.finish();
        assert!(json.contains(r#""name":"kernel0""#));
        assert!(json.contains(r#""name":"sm2""#));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn faults_become_instant_events() {
        let mut tr = ChromeTraceProbe::new();
        tr.fault(
            Cycle::new(42),
            FaultEvent::LinkRetry {
                link: crate::LinkId::RingCw(1),
                attempt: 0,
            },
        );
        tr.fault(
            Cycle::new(99),
            FaultEvent::DramThrottle {
                module: 2,
                stretch: 2.0,
            },
        );
        assert_eq!(tr.events(), 2);
        let json = tr.finish();
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""cat":"fault""#));
        assert!(json.contains("link-retry cw1 #0"));
        assert!(json.contains("dram-throttle m2 x2"));
    }

    #[test]
    fn identical_inputs_identical_json() {
        let run = || {
            let mut tr = ChromeTraceProbe::new();
            tr.request_issued(1, Cycle::new(5), meta());
            tr.request_retired(1, Cycle::new(50));
            tr.finish()
        };
        assert_eq!(run(), run());
    }
}

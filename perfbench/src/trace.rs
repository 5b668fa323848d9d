//! The traced pass's instruments, all owned by the benchmark: in-memory
//! spans around the public calls it makes, and a counting [`Probe`]
//! for `Simulator::run_probed`. Nothing here is compiled into the
//! program under test.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mcm_engine::Cycle;
use mcm_probe::{LinkId, Probe, ReqStage, RequestMeta, WarpPhase};

/// One timed call: name, start, end (ns since the tracer started), the
/// span that caused it, and the pair or request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Unique within the run, from 1.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one pair or request.
    pub group: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Records spans in memory when enabled; a disabled tracer only calls
/// through, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span. `f` receives the span's id (0 when
    /// disabled) for use as the parent of nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        group: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            id,
            parent: parent.filter(|&p| p != 0),
            group,
            start_ns,
            end_ns,
        });
        out
    }

    /// Spans recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// The I/O error of creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.group, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts what one simulation did, hook by hook.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Kernel launches.
    pub kernels: u64,
    /// Event-queue pops (the `queue_depth` hook fires once per pop).
    pub pops: u64,
    /// Queue depth after each pop, as a count per depth.
    pub depth_hist: Vec<u64>,
    /// Warps admitted.
    pub warps_spawned: u64,
    /// Warp phase transitions.
    pub phase_changes: u64,
    /// Transitions into the MSHR-full phase: load replays.
    pub mshr_full: u64,
    /// Memory requests issued.
    pub req_issued: u64,
    /// Requests entering the L1.5/crossbar stage.
    pub stage_access: u64,
    /// Ring/mesh hops toward the home module.
    pub stage_to_home: u64,
    /// Home L2/DRAM accesses.
    pub stage_mem: u64,
    /// Ring/mesh hops back to the requester.
    pub stage_to_requester: u64,
    /// Probes per cache level and their hits: L1, L1.5, L2.
    pub cache: [(u64, u64); 3],
    /// MSHR occupancy changes.
    pub mshr_updates: u64,
    /// Inter-module link transfers and bytes.
    pub link_transfers: u64,
    /// Bytes carried by inter-module links.
    pub link_bytes: u64,
    /// Module crossbar transfers.
    pub xbar_transfers: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// DRAM bytes.
    pub dram_bytes: u64,
}

impl Counts {
    /// Median queue depth observed at pops.
    pub fn depth_p50(&self) -> u64 {
        let half = self.pops.div_ceil(2);
        let mut seen = 0;
        for (depth, &n) in self.depth_hist.iter().enumerate() {
            seen += n;
            if seen >= half && n > 0 {
                return depth as u64;
            }
        }
        0
    }
}

/// A [`Probe`] that counts every hook into [`Counts`].
#[derive(Debug, Default)]
pub struct CountingProbe {
    /// What was counted.
    pub counts: Counts,
}

impl Probe for CountingProbe {
    fn kernel_begin(&mut self, _kernel: u32, _now: Cycle) {
        self.counts.kernels += 1;
    }

    fn warp_spawn(&mut self, _warp: u32, _sm: u32, _now: Cycle) {
        self.counts.warps_spawned += 1;
    }

    fn warp_phase(&mut self, _warp: u32, _sm: u32, _now: Cycle, phase: WarpPhase) {
        self.counts.phase_changes += 1;
        if phase == WarpPhase::MshrFull {
            self.counts.mshr_full += 1;
        }
    }

    fn request_issued(&mut self, _id: u64, _now: Cycle, _meta: RequestMeta) {
        self.counts.req_issued += 1;
    }

    fn request_stage(&mut self, _id: u64, _now: Cycle, stage: ReqStage) {
        let c = &mut self.counts;
        match stage {
            ReqStage::Access => c.stage_access += 1,
            ReqStage::ToHome { .. } => c.stage_to_home += 1,
            ReqStage::Mem => c.stage_mem += 1,
            ReqStage::ToRequester { .. } => c.stage_to_requester += 1,
        }
    }

    fn cache_access(&mut self, cache: &'static str, _unit: u32, _now: Cycle, hit: bool) {
        let level = match cache {
            "L1" => 0,
            "L1.5" => 1,
            _ => 2,
        };
        let (accesses, hits) = &mut self.counts.cache[level];
        *accesses += 1;
        *hits += u64::from(hit);
    }

    fn mshr_occupancy(&mut self, _sm: u32, _now: Cycle, _outstanding: u32, _capacity: u32) {
        self.counts.mshr_updates += 1;
    }

    fn link_transfer(&mut self, _link: LinkId, _now: Cycle, bytes: u64, _arrival: Cycle) {
        self.counts.link_transfers += 1;
        self.counts.link_bytes += bytes;
    }

    fn xbar_transfer(&mut self, _module: u32, _now: Cycle, _bytes: u64) {
        self.counts.xbar_transfers += 1;
    }

    fn dram_access(&mut self, _partition: u32, _now: Cycle, bytes: u64) {
        self.counts.dram_accesses += 1;
        self.counts.dram_bytes += bytes;
    }

    fn queue_depth(&mut self, _now: Cycle, depth: usize) {
        self.counts.pops += 1;
        let hist = &mut self.counts.depth_hist;
        if hist.len() <= depth {
            hist.resize(depth + 1, 0);
        }
        hist[depth] += 1;
    }
}

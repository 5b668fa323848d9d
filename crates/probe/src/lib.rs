//! Zero-overhead instrumentation for the MCM-GPU simulator.
//!
//! The simulator's run loop owns one [`Probe`], and every contended
//! component operation receives it as the `probe` half of an
//! `mcm_fault::Hooks` context, next to the fault plan. A probe is a
//! passive observer: hooks fire at interesting moments (a request
//! enters a hierarchy stage, a warp changes state, bytes cross a link)
//! and the probe may record them, but it can never influence timing —
//! instrumented and uninstrumented runs are cycle-identical by
//! construction.
//!
//! The default [`NullProbe`] implements every hook as an empty inlined
//! default method, so the monomorphized uninstrumented simulator
//! contains no probe code at all: observability is free when off.
//!
//! Three concrete sinks ship here, all hermetic (JSON through
//! `mcm_telemetry::json`, no external crates):
//!
//! * [`ChromeTraceProbe`] — Chrome trace-event JSON of per-request
//!   lifecycles and warp phases, viewable in Perfetto
//!   (<https://ui.perfetto.dev>).
//! * [`MetricsProbe`] — fixed-bucket time series (link bytes, DRAM
//!   bandwidth, MSHR occupancy, cache hit rates, per-GPM warp-state
//!   breakdown) exported as tidy CSV through the workspace's
//!   `Tabular`/`ToCsv` machinery.
//! * [`StallProfile`] — attributes every warp-cycle to
//!   issue/compute/local-mem/remote-mem/MSHR-full/drain, the measured
//!   analogue of the paper's Fig. 16 decomposition.
//!
//! # Example
//!
//! ```
//! use mcm_engine::Cycle;
//! use mcm_probe::{NullProbe, Probe, WarpPhase};
//!
//! // A custom probe: count warp state transitions.
//! #[derive(Default)]
//! struct Transitions(u64);
//! impl Probe for Transitions {
//!     fn warp_phase(&mut self, _w: u32, _sm: u32, _now: Cycle, _p: WarpPhase) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut t = Transitions::default();
//! t.warp_phase(0, 0, Cycle::ZERO, WarpPhase::Compute);
//! assert_eq!(t.0, 1);
//! assert!(!<NullProbe as Probe>::ACTIVE);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod metrics;
pub mod stall;

pub use chrome::ChromeTraceProbe;
pub use metrics::MetricsProbe;
pub use stall::StallProfile;

use mcm_engine::Cycle;

/// What a warp is doing, as attributed by the run loop — the vocabulary
/// of the paper's Fig. 16 speedup decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WarpPhase {
    /// Scheduled and issuing instructions (front-end time).
    Issue,
    /// Executing a compute burst.
    Compute,
    /// Waiting on a load homed in the local DRAM partition.
    LocalMem,
    /// Waiting on a load homed in a remote partition (crossed the ring).
    RemoteMem,
    /// Stalled replaying a load because the SM's MSHR table is full.
    MshrFull,
    /// Out of instructions, draining in-flight loads before retiring.
    Drain,
}

impl WarpPhase {
    /// Every phase, in display order.
    pub const ALL: [WarpPhase; 6] = [
        WarpPhase::Issue,
        WarpPhase::Compute,
        WarpPhase::LocalMem,
        WarpPhase::RemoteMem,
        WarpPhase::MshrFull,
        WarpPhase::Drain,
    ];

    /// The memory-wait phase for a load of the given locality.
    #[inline]
    pub const fn mem(remote: bool) -> WarpPhase {
        if remote {
            WarpPhase::RemoteMem
        } else {
            WarpPhase::LocalMem
        }
    }

    /// Short lowercase label ("compute", "remote-mem", ...).
    pub const fn label(self) -> &'static str {
        match self {
            WarpPhase::Issue => "issue",
            WarpPhase::Compute => "compute",
            WarpPhase::LocalMem => "local-mem",
            WarpPhase::RemoteMem => "remote-mem",
            WarpPhase::MshrFull => "mshr-full",
            WarpPhase::Drain => "drain",
        }
    }
}

impl std::fmt::Display for WarpPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The hierarchy stage an in-flight memory request has entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqStage {
    /// Probing the GPM-side L1.5 and crossing the module crossbar.
    Access,
    /// Riding the inter-module network toward the home module; `at` is
    /// the node the message currently sits at.
    ToHome {
        /// Current node.
        at: u8,
    },
    /// Accessing the home module's L2/DRAM.
    Mem,
    /// Riding the network back to the requester; `at` is the node the
    /// response currently sits at.
    ToRequester {
        /// Current node.
        at: u8,
    },
}

impl ReqStage {
    /// Short label for trace rendering.
    pub fn label(self) -> String {
        match self {
            ReqStage::Access => "l1.5+xbar".to_string(),
            ReqStage::ToHome { at } => format!("ring>@{at}"),
            ReqStage::Mem => "mem".to_string(),
            ReqStage::ToRequester { at } => format!("ring<@{at}"),
        }
    }
}

/// Identifies one unidirectional inter-module link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkId {
    /// Ring segment carrying node `i` → node `i + 1`.
    RingCw(u8),
    /// Ring segment carrying node `i + 1` → node `i`.
    RingCcw(u8),
    /// Direct link of a fully connected fabric.
    Mesh {
        /// Source node.
        from: u8,
        /// Destination node.
        to: u8,
    },
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkId::RingCw(i) => write!(f, "cw{i}"),
            LinkId::RingCcw(i) => write!(f, "ccw{i}"),
            LinkId::Mesh { from, to } => write!(f, "mesh{from}-{to}"),
        }
    }
}

/// One injected fault, as reported to probes by the fault layer so
/// sinks can render fault windows alongside ordinary traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A transfer on `link` failed CRC and is retransmitting (0-based
    /// `attempt` that failed).
    LinkRetry {
        /// The affected link.
        link: LinkId,
        /// The attempt that took the error.
        attempt: u32,
    },
    /// DRAM partition `module` served an access under thermal throttle.
    DramThrottle {
        /// The throttled partition.
        module: u32,
        /// Service-time stretch applied (`> 1.0`).
        stretch: f64,
    },
    /// Request `request`'s fill arrived poisoned and replays once.
    MshrPoison {
        /// The run-unique request id.
        request: u64,
    },
    /// Module `module`'s SM pool is offline for `kernel`; its pending
    /// CTAs were restolen to the survivors.
    ModuleDisabled {
        /// The disabled module.
        module: u32,
        /// The kernel during which it is offline.
        kernel: u32,
    },
}

impl FaultEvent {
    /// Short kind label ("link-retry", "dram-throttle", ...), used as a
    /// metric name and trace category.
    pub const fn label(self) -> &'static str {
        match self {
            FaultEvent::LinkRetry { .. } => "link-retry",
            FaultEvent::DramThrottle { .. } => "dram-throttle",
            FaultEvent::MshrPoison { .. } => "mshr-poison",
            FaultEvent::ModuleDisabled { .. } => "module-disabled",
        }
    }
}

/// Static facts about a memory request, captured at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMeta {
    /// Issuing SM (global index).
    pub sm: u32,
    /// Issuing module.
    pub module: u8,
    /// Home module of the line.
    pub home: u8,
    /// Whether the line is homed in a remote partition.
    pub remote: bool,
    /// Load (`true`) or store (`false`).
    pub is_read: bool,
}

/// A passive observer of simulator internals.
///
/// Every hook has an empty default body, so a probe implements only
/// what it cares about and everything else disappears at
/// monomorphization. Hooks receive the *event time* at which the
/// observation was made; warp-side hooks may carry warp-internal
/// timestamps that run slightly ahead of (or occasionally behind) the
/// global event clock — sinks clamp per-entity time to be monotone.
///
/// Probes must never feed information back into the simulation: the
/// golden determinism suite pins instrumented and uninstrumented runs
/// to identical cycle counts.
pub trait Probe {
    /// Whether this probe records anything. The run loop may skip
    /// argument preparation for inactive probes; hook bodies of
    /// inactive probes must be no-ops.
    const ACTIVE: bool = true;

    /// A kernel launch begins (all CTAs of iteration `kernel` become
    /// schedulable).
    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        let _ = (kernel, now);
    }

    /// The launch fully drained; caches are about to be flushed.
    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        let _ = (kernel, now);
    }

    /// A warp was admitted to SM `sm` in runtime slot `warp`.
    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        let _ = (warp, sm, now);
    }

    /// Warp `warp` enters `phase` at `now`; time since its previous
    /// transition belongs to the previous phase.
    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        let _ = (warp, sm, now, phase);
    }

    /// Warp `warp` retired (its slot may be reused for a later warp).
    fn warp_retire(&mut self, warp: u32, sm: u32, now: Cycle) {
        let _ = (warp, sm, now);
    }

    /// A memory request entered the system. `id` is unique within one
    /// run (never reused, unlike internal request slots).
    fn request_issued(&mut self, id: u64, now: Cycle, meta: RequestMeta) {
        let _ = (id, now, meta);
    }

    /// Request `id` entered a hierarchy stage.
    fn request_stage(&mut self, id: u64, now: Cycle, stage: ReqStage) {
        let _ = (id, now, stage);
    }

    /// Request `id` completed (data delivered or store absorbed).
    fn request_retired(&mut self, id: u64, now: Cycle) {
        let _ = (id, now);
    }

    /// A cache level was probed. `cache` is the level's static name
    /// ("L1", "L1.5", "L2"); `unit` is the SM index for the L1 and the
    /// module index otherwise. Bypassing accesses are not reported.
    fn cache_access(&mut self, cache: &'static str, unit: u32, now: Cycle, hit: bool) {
        let _ = (cache, unit, now, hit);
    }

    /// SM `sm`'s MSHR occupancy changed (entry reserved or released).
    fn mshr_occupancy(&mut self, sm: u32, now: Cycle, outstanding: u32, capacity: u32) {
        let _ = (sm, now, outstanding, capacity);
    }

    /// `bytes` were accepted by inter-module link `link` at `now`,
    /// arriving at the far side at `arrival`.
    fn link_transfer(&mut self, link: LinkId, now: Cycle, bytes: u64, arrival: Cycle) {
        let _ = (link, now, bytes, arrival);
    }

    /// `bytes` crossed module `module`'s crossbar.
    fn xbar_transfer(&mut self, module: u32, now: Cycle, bytes: u64) {
        let _ = (module, now, bytes);
    }

    /// `bytes` moved in or out of DRAM partition `partition`.
    fn dram_access(&mut self, partition: u32, now: Cycle, bytes: u64) {
        let _ = (partition, now, bytes);
    }

    /// Event-queue depth observed after popping the event at `now`.
    fn queue_depth(&mut self, now: Cycle, depth: usize) {
        let _ = (now, depth);
    }

    /// The fault layer injected `event` at `now`. Only fires when a
    /// fault plan is active; fault-free runs never call it.
    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        let _ = (now, event);
    }
}

/// The do-nothing probe: every hook is an inlined empty default, so a
/// simulator monomorphized over `NullProbe` carries no instrumentation
/// code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ACTIVE: bool = false;
}

/// Two probes side by side: every hook forwards to both. Nest tuples to
/// combine more than two.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_begin(kernel, now);
        self.1.kernel_begin(kernel, now);
    }

    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_end(kernel, now);
        self.1.kernel_end(kernel, now);
    }

    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        self.0.warp_spawn(warp, sm, now);
        self.1.warp_spawn(warp, sm, now);
    }

    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        self.0.warp_phase(warp, sm, now, phase);
        self.1.warp_phase(warp, sm, now, phase);
    }

    fn warp_retire(&mut self, warp: u32, sm: u32, now: Cycle) {
        self.0.warp_retire(warp, sm, now);
        self.1.warp_retire(warp, sm, now);
    }

    fn request_issued(&mut self, id: u64, now: Cycle, meta: RequestMeta) {
        self.0.request_issued(id, now, meta);
        self.1.request_issued(id, now, meta);
    }

    fn request_stage(&mut self, id: u64, now: Cycle, stage: ReqStage) {
        self.0.request_stage(id, now, stage);
        self.1.request_stage(id, now, stage);
    }

    fn request_retired(&mut self, id: u64, now: Cycle) {
        self.0.request_retired(id, now);
        self.1.request_retired(id, now);
    }

    fn cache_access(&mut self, cache: &'static str, unit: u32, now: Cycle, hit: bool) {
        self.0.cache_access(cache, unit, now, hit);
        self.1.cache_access(cache, unit, now, hit);
    }

    fn mshr_occupancy(&mut self, sm: u32, now: Cycle, outstanding: u32, capacity: u32) {
        self.0.mshr_occupancy(sm, now, outstanding, capacity);
        self.1.mshr_occupancy(sm, now, outstanding, capacity);
    }

    fn link_transfer(&mut self, link: LinkId, now: Cycle, bytes: u64, arrival: Cycle) {
        self.0.link_transfer(link, now, bytes, arrival);
        self.1.link_transfer(link, now, bytes, arrival);
    }

    fn xbar_transfer(&mut self, module: u32, now: Cycle, bytes: u64) {
        self.0.xbar_transfer(module, now, bytes);
        self.1.xbar_transfer(module, now, bytes);
    }

    fn dram_access(&mut self, partition: u32, now: Cycle, bytes: u64) {
        self.0.dram_access(partition, now, bytes);
        self.1.dram_access(partition, now, bytes);
    }

    fn queue_depth(&mut self, now: Cycle, depth: usize) {
        self.0.queue_depth(now, depth);
        self.1.queue_depth(now, depth);
    }

    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        self.0.fault(now, event);
        self.1.fault(now, event);
    }
}

/// A probe behind a mutable reference: every hook forwards to the
/// referent. This lets a run loop *own* its probe generically (`P:
/// Probe`) while the caller keeps the concrete sink — instantiate the
/// loop with `P = &mut ConcreteSink`.
impl<P: Probe> Probe for &mut P {
    const ACTIVE: bool = P::ACTIVE;

    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        (**self).kernel_begin(kernel, now);
    }

    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        (**self).kernel_end(kernel, now);
    }

    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        (**self).warp_spawn(warp, sm, now);
    }

    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        (**self).warp_phase(warp, sm, now, phase);
    }

    fn warp_retire(&mut self, warp: u32, sm: u32, now: Cycle) {
        (**self).warp_retire(warp, sm, now);
    }

    fn request_issued(&mut self, id: u64, now: Cycle, meta: RequestMeta) {
        (**self).request_issued(id, now, meta);
    }

    fn request_stage(&mut self, id: u64, now: Cycle, stage: ReqStage) {
        (**self).request_stage(id, now, stage);
    }

    fn request_retired(&mut self, id: u64, now: Cycle) {
        (**self).request_retired(id, now);
    }

    fn cache_access(&mut self, cache: &'static str, unit: u32, now: Cycle, hit: bool) {
        (**self).cache_access(cache, unit, now, hit);
    }

    fn mshr_occupancy(&mut self, sm: u32, now: Cycle, outstanding: u32, capacity: u32) {
        (**self).mshr_occupancy(sm, now, outstanding, capacity);
    }

    fn link_transfer(&mut self, link: LinkId, now: Cycle, bytes: u64, arrival: Cycle) {
        (**self).link_transfer(link, now, bytes, arrival);
    }

    fn xbar_transfer(&mut self, module: u32, now: Cycle, bytes: u64) {
        (**self).xbar_transfer(module, now, bytes);
    }

    fn dram_access(&mut self, partition: u32, now: Cycle, bytes: u64) {
        (**self).dram_access(partition, now, bytes);
    }

    fn queue_depth(&mut self, now: Cycle, depth: usize) {
        (**self).queue_depth(now, depth);
    }

    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        (**self).fault(now, event);
    }
}

/// An optional probe: `None` behaves like [`NullProbe`] (but is only
/// known inactive at run time, so prefer `NullProbe` when the choice is
/// static).
impl<P: Probe> Probe for Option<P> {
    const ACTIVE: bool = P::ACTIVE;

    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        if let Some(p) = self {
            p.kernel_begin(kernel, now);
        }
    }

    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        if let Some(p) = self {
            p.kernel_end(kernel, now);
        }
    }

    fn warp_spawn(&mut self, warp: u32, sm: u32, now: Cycle) {
        if let Some(p) = self {
            p.warp_spawn(warp, sm, now);
        }
    }

    fn warp_phase(&mut self, warp: u32, sm: u32, now: Cycle, phase: WarpPhase) {
        if let Some(p) = self {
            p.warp_phase(warp, sm, now, phase);
        }
    }

    fn warp_retire(&mut self, warp: u32, sm: u32, now: Cycle) {
        if let Some(p) = self {
            p.warp_retire(warp, sm, now);
        }
    }

    fn request_issued(&mut self, id: u64, now: Cycle, meta: RequestMeta) {
        if let Some(p) = self {
            p.request_issued(id, now, meta);
        }
    }

    fn request_stage(&mut self, id: u64, now: Cycle, stage: ReqStage) {
        if let Some(p) = self {
            p.request_stage(id, now, stage);
        }
    }

    fn request_retired(&mut self, id: u64, now: Cycle) {
        if let Some(p) = self {
            p.request_retired(id, now);
        }
    }

    fn cache_access(&mut self, cache: &'static str, unit: u32, now: Cycle, hit: bool) {
        if let Some(p) = self {
            p.cache_access(cache, unit, now, hit);
        }
    }

    fn mshr_occupancy(&mut self, sm: u32, now: Cycle, outstanding: u32, capacity: u32) {
        if let Some(p) = self {
            p.mshr_occupancy(sm, now, outstanding, capacity);
        }
    }

    fn link_transfer(&mut self, link: LinkId, now: Cycle, bytes: u64, arrival: Cycle) {
        if let Some(p) = self {
            p.link_transfer(link, now, bytes, arrival);
        }
    }

    fn xbar_transfer(&mut self, module: u32, now: Cycle, bytes: u64) {
        if let Some(p) = self {
            p.xbar_transfer(module, now, bytes);
        }
    }

    fn dram_access(&mut self, partition: u32, now: Cycle, bytes: u64) {
        if let Some(p) = self {
            p.dram_access(partition, now, bytes);
        }
    }

    fn queue_depth(&mut self, now: Cycle, depth: usize) {
        if let Some(p) = self {
            p.queue_depth(now, depth);
        }
    }

    fn fault(&mut self, now: Cycle, event: FaultEvent) {
        if let Some(p) = self {
            p.fault(now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `P::ACTIVE` through a generic fn so the assertions below
    /// exercise the same const the instrumentation sites see.
    fn active<P: Probe>() -> bool {
        P::ACTIVE
    }

    #[derive(Default)]
    struct CountAll(u64);

    impl Probe for CountAll {
        fn warp_phase(&mut self, _w: u32, _sm: u32, _now: Cycle, _p: WarpPhase) {
            self.0 += 1;
        }

        fn dram_access(&mut self, _p: u32, _now: Cycle, _b: u64) {
            self.0 += 1;
        }
    }

    #[test]
    fn null_probe_is_inactive_and_inert() {
        assert!(!active::<NullProbe>());
        let mut p = NullProbe;
        p.warp_phase(0, 0, Cycle::ZERO, WarpPhase::Drain);
        p.queue_depth(Cycle::new(5), 3);
    }

    #[test]
    fn pair_forwards_to_both() {
        let mut pair = (CountAll::default(), CountAll::default());
        assert!(active::<(CountAll, CountAll)>());
        pair.warp_phase(1, 0, Cycle::ZERO, WarpPhase::Compute);
        pair.dram_access(0, Cycle::ZERO, 128);
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
        // A pair with a NullProbe half stays active.
        assert!(active::<(CountAll, NullProbe)>());
        assert!(!active::<(NullProbe, NullProbe)>());
    }

    #[test]
    fn mut_ref_forwards_and_mirrors_active() {
        let mut sink = CountAll::default();
        {
            let fwd: &mut CountAll = &mut sink;
            assert!(active::<&mut CountAll>());
            fwd.warp_phase(0, 0, Cycle::ZERO, WarpPhase::Compute);
            fwd.dram_access(0, Cycle::ZERO, 64);
        }
        assert_eq!(sink.0, 2);
        assert!(!active::<&mut NullProbe>());
    }

    #[test]
    fn option_forwards_when_some() {
        let mut p: Option<CountAll> = Some(CountAll::default());
        p.warp_phase(0, 0, Cycle::ZERO, WarpPhase::Issue);
        assert_eq!(p.as_ref().unwrap().0, 1);
        let mut none: Option<CountAll> = None;
        none.warp_phase(0, 0, Cycle::ZERO, WarpPhase::Issue);
    }

    #[test]
    fn phase_labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in WarpPhase::ALL {
            assert!(seen.insert(p.label()));
        }
        assert_eq!(WarpPhase::mem(true), WarpPhase::RemoteMem);
        assert_eq!(WarpPhase::mem(false), WarpPhase::LocalMem);
    }

    #[test]
    fn vocab_displays() {
        assert_eq!(LinkId::RingCw(2).to_string(), "cw2");
        assert_eq!(LinkId::RingCcw(0).to_string(), "ccw0");
        assert_eq!(LinkId::Mesh { from: 1, to: 3 }.to_string(), "mesh1-3");
        assert_eq!(ReqStage::ToHome { at: 2 }.label(), "ring>@2");
        assert_eq!(WarpPhase::RemoteMem.to_string(), "remote-mem");
        assert_eq!(FaultEvent::MshrPoison { request: 1 }.label(), "mshr-poison");
    }

    #[derive(Default)]
    struct CountFaults(u64);

    impl Probe for CountFaults {
        fn fault(&mut self, _now: Cycle, _event: FaultEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn fault_hook_forwards_through_combinators() {
        let ev = FaultEvent::LinkRetry {
            link: LinkId::RingCw(0),
            attempt: 1,
        };
        let mut pair = (CountFaults::default(), Some(CountFaults::default()));
        pair.fault(Cycle::new(10), ev);
        assert_eq!(pair.0 .0, 1);
        assert_eq!(pair.1.as_ref().unwrap().0, 1);
        let mut none: Option<CountFaults> = None;
        none.fault(Cycle::ZERO, ev);
        NullProbe.fault(Cycle::ZERO, ev);
    }
}

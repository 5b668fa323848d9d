//! The assembled machine: SMs, cache hierarchy, crossbars, ring, page
//! map and DRAM partitions, exposed as *stage primitives* that the
//! event loop in [`crate::Simulator`] drives.
//!
//! One [`McmSystem`] is built fresh per run from a
//! [`SystemConfig`](crate::SystemConfig). Modules are GPMs (or discrete
//! GPUs in the §6 comparison); each owns its SMs and L1s, an optional
//! GPM-side L1.5, a crossbar, a memory-side L2 slice and a DRAM
//! partition. The on-package ring connects modules.
//!
//! ## Why stages instead of one `read()` call
//!
//! Every contended component is a next-free-time bandwidth
//! [`Resource`](mcm_engine::Resource), and that model is only correct
//! when requests arrive in nondecreasing time order. A memory access
//! traverses several components at increasing timestamps, so each
//! traversal must be its own simulation event — otherwise one access's
//! *future* arrival (e.g. a ring response after DRAM queuing) would be
//! submitted before another access's *earlier* arrival and would block
//! it, creating a feedback loop of phantom queuing. The stage methods
//! here each touch only components whose arrival times are within a
//! fixed latency of the call time; the event loop orders the stages
//! globally.

use mcm_engine::stats::{Counter, Ratio};
use mcm_engine::Cycle;
use mcm_fault::{FaultPlan, Hooks};
use mcm_interconnect::energy::EnergyLedger;
use mcm_interconnect::mesh::Fabric;
use mcm_interconnect::ring::{NodeId, RingDir};
use mcm_interconnect::xbar::Crossbar;
use mcm_mem::addr::{AccessKind, LineAddr, Locality, PartitionId, LINE_BYTES};
use mcm_mem::cache::{AllocFilter, CacheConfig, CacheOutcome, SetAssocCache, WritePolicy};
use mcm_mem::dram::{DramConfig, DramPartition};
use mcm_mem::mshr::Mshr;
use mcm_mem::page::PageMap;
use mcm_probe::Probe;
use mcm_sm::SmCore;

use crate::config::SystemConfig;

/// Control-message size for a remote read request (the data returns in
/// a full line; the request itself is a small packet).
pub(crate) const REQUEST_BYTES: u64 = 32;

/// L1 tag+data latency in cycles.
pub(crate) const L1_LATENCY: u64 = 24;
/// GPM-side L1.5 hit latency in cycles (larger, farther array).
pub(crate) const L15_LATENCY: u64 = 40;
/// GPM-side L1.5 miss penalty: the tag probe largely overlaps the
/// crossbar routing of the downstream request, so a miss costs far less
/// than a hit's data-array access.
pub(crate) const L15_TAG_LATENCY: u64 = 12;
/// Memory-side L2 latency in cycles.
pub(crate) const L2_LATENCY: u64 = 48;
/// Crossbar traversal latency in cycles.
pub(crate) const XBAR_LATENCY: u64 = 4;
/// Per-SM L1 bandwidth in bytes/cycle (one line per cycle).
const L1_BANDWIDTH: f64 = 128.0;
/// Per-module L1.5 aggregate bank bandwidth in bytes/cycle.
const L15_BANDWIDTH: f64 = 2048.0;
/// L2 bank bandwidth per GB/s of the partition's DRAM bandwidth
/// ("banked such that they can provide the necessary parallelism to
/// saturate DRAM bandwidth", §4): a 768 GB/s partition gets ~2 KB/cycle
/// of L2 bandwidth, a monolithic 3 TB/s machine proportionally more.
const L2_BANDWIDTH_PER_DRAM_GBPS: f64 = 2.67;
/// On-die fabric bandwidth per SM in bytes/cycle; a module's crossbar
/// scales with its SM count, as monolithic dies scale their fabric
/// (effectively never the bottleneck, matching §4's assumption).
const XBAR_BANDWIDTH_PER_SM: f64 = 64.0;

/// What the L1.5 stage decided for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L15Outcome {
    /// The access does not touch the L1.5 (level disabled, or filtered
    /// out by the remote-only policy).
    NotPresent,
    /// Hit: the data is available at `ready_at`; no downstream travel.
    Hit {
        /// When the data is available.
        ready_at: Cycle,
    },
    /// Miss: continue downstream at `ready_at`; `fill` says whether the
    /// response should be installed here on its way back.
    Miss {
        /// When the downstream request may depart.
        ready_at: Cycle,
        /// Whether to fill this L1.5 with the response.
        fill: bool,
    },
}

/// The machine state for one run.
#[derive(Debug)]
pub struct McmSystem {
    modules: usize,
    sms_per_module: u32,
    sms: Vec<SmCore>,
    l1s: Vec<SetAssocCache>,
    mshrs: Vec<Mshr>,
    l15s: Vec<SetAssocCache>,
    xbars: Vec<Crossbar>,
    l2s: Vec<SetAssocCache>,
    drams: Vec<DramPartition>,
    ring: Fabric,
    page_map: PageMap,
    reads: Counter,
    writes: Counter,
    local_accesses: Counter,
    remote_accesses: Counter,
}

impl McmSystem {
    /// Builds an idle machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`SystemConfig::validate`] first for a graceful error).
    pub fn new(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let modules = usize::from(cfg.topology.modules);
        let total_sms = cfg.topology.total_sms() as usize;

        let l1_cfg = CacheConfig {
            name: "L1",
            size_bytes: cfg.caches.l1_bytes_per_sm,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: Cycle::new(L1_LATENCY),
            tag_latency: Cycle::new(L1_LATENCY),
            bandwidth: L1_BANDWIDTH,
            write_policy: WritePolicy::WriteThrough,
            alloc_filter: AllocFilter::All,
        };
        let l15_cfg = CacheConfig {
            name: "L1.5",
            size_bytes: cfg.caches.l15_bytes_total / modules as u64,
            line_bytes: LINE_BYTES,
            ways: 16,
            latency: Cycle::new(L15_LATENCY),
            tag_latency: Cycle::new(L15_TAG_LATENCY),
            bandwidth: L15_BANDWIDTH,
            write_policy: WritePolicy::WriteThrough,
            alloc_filter: cfg.caches.l15_filter,
        };
        let l2_cfg = CacheConfig {
            name: "L2",
            size_bytes: cfg.caches.l2_bytes_total / modules as u64,
            line_bytes: LINE_BYTES,
            ways: 16,
            latency: Cycle::new(L2_LATENCY),
            tag_latency: Cycle::new(L2_LATENCY),
            bandwidth: (cfg.dram_gbps_per_module() * L2_BANDWIDTH_PER_DRAM_GBPS).max(1024.0),
            write_policy: WritePolicy::WriteBack,
            alloc_filter: AllocFilter::All,
        };
        let per_module_dram = cfg.dram_gbps_per_module();
        let dram_cfg = DramConfig {
            bandwidth_gbps: per_module_dram,
            // Keep per-channel bandwidth roughly constant (~96 GB/s) so
            // bigger partitions get more channels, as real stacks do.
            channels: ((per_module_dram / 96.0).round() as u32).max(4),
            latency: cfg.dram_latency(),
        };

        McmSystem {
            modules,
            sms_per_module: cfg.topology.sms_per_module,
            sms: (0..total_sms).map(|_| SmCore::new(cfg.sm)).collect(),
            l1s: (0..total_sms)
                .map(|_| SetAssocCache::new(l1_cfg.clone()))
                .collect(),
            mshrs: (0..total_sms)
                .map(|_| Mshr::new(cfg.sm.mshr_entries))
                .collect(),
            l15s: (0..modules)
                .map(|_| SetAssocCache::new(l15_cfg.clone()))
                .collect(),
            xbars: (0..modules)
                .map(|_| {
                    Crossbar::new(
                        "gpm-xbar",
                        XBAR_BANDWIDTH_PER_SM * f64::from(cfg.topology.sms_per_module),
                        Cycle::new(XBAR_LATENCY),
                    )
                })
                .collect(),
            l2s: (0..modules)
                .map(|_| SetAssocCache::new(l2_cfg.clone()))
                .collect(),
            drams: (0..modules).map(|_| DramPartition::new(dram_cfg)).collect(),
            // `link_gbps` is the bidirectional capacity of one
            // GPM-to-GPM link (the paper's "768 GB/s per link");
            // Fabric splits it per direction / per mesh link.
            ring: Fabric::new(
                cfg.topology.network,
                cfg.topology.modules,
                cfg.topology.link_gbps,
                Cycle::new(cfg.topology.hop_cycles),
                cfg.topology.link_tier,
            ),
            page_map: PageMap::with_page_lines(
                cfg.placement,
                cfg.topology.modules,
                (cfg.ft_page_bytes / LINE_BYTES).max(1),
            ),
            reads: Counter::new(),
            writes: Counter::new(),
            local_accesses: Counter::new(),
            remote_accesses: Counter::new(),
        }
    }

    /// Number of modules.
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The module owning global SM index `sm`.
    #[inline]
    pub fn module_of(&self, sm: usize) -> usize {
        sm / self.sms_per_module as usize
    }

    /// Total SM count.
    pub fn total_sms(&self) -> usize {
        self.sms.len()
    }

    /// Immutable access to an SM (occupancy queries).
    pub fn sm(&self, sm: usize) -> &SmCore {
        &self.sms[sm]
    }

    /// Mutable access to an SM (the run loop admits and retires CTAs).
    pub fn sm_mut(&mut self, sm: usize) -> &mut SmCore {
        &mut self.sms[sm]
    }

    /// Mutable access to an SM's MSHR.
    pub fn mshr_mut(&mut self, sm: usize) -> &mut Mshr {
        &mut self.mshrs[sm]
    }

    /// Issues a compute burst of `insts` instructions on `sm`.
    pub fn compute(&mut self, now: Cycle, sm: usize, insts: u32) -> Cycle {
        self.sms[sm].issue(now, insts)
    }

    /// Resolves the home partition of `line` for a requester on
    /// `module`, updating first-touch state and locality statistics.
    pub fn home_of(&mut self, line: LineAddr, module: usize) -> (usize, Locality) {
        let home = self
            .page_map
            .partition_for(line, PartitionId(module as u8))
            .as_usize();
        if home == module {
            self.local_accesses.inc();
            (home, Locality::Local)
        } else {
            self.remote_accesses.inc();
            (home, Locality::Remote)
        }
    }

    // ------------------------------------------------------------------
    // Stage primitives, in path order. Each touches only components at
    // a bounded time offset from `now`; the event loop globally orders
    // the stage calls.
    // ------------------------------------------------------------------

    /// Stage 0 (warp side): issues the memory instruction and probes the
    /// L1, reporting the hit/miss to the hooks (unit = global SM index).
    /// Returns `(issued, outcome)`: `issued` is when the instruction
    /// has left the SM's issue stage (a store lets its warp continue
    /// then), `outcome` the L1 decision.
    pub fn l1_access<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        sm: usize,
        line: LineAddr,
        kind: AccessKind,
        hooks: &mut Hooks<P, F>,
    ) -> (Cycle, CacheOutcome) {
        match kind {
            AccessKind::Read => self.reads.inc(),
            AccessKind::Write => self.writes.inc(),
        }
        let t0 = self.sms[sm].issue_mem_op(now);
        (
            t0,
            self.l1s[sm].access_hooked(t0, line, kind, Locality::Local, sm as u32, hooks),
        )
    }

    /// Installs a returned line into an SM's L1, available at `ready`.
    pub fn l1_fill(&mut self, sm: usize, line: LineAddr, ready: Cycle) {
        self.l1s[sm].fill(line, ready, false);
    }

    /// Stage 1 (module side): probes the GPM-side L1.5, reporting the
    /// hit/miss to the hooks (unit = module index; filtered and disabled
    /// accesses are invisible).
    pub fn l15_access<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        module: usize,
        line: LineAddr,
        kind: AccessKind,
        locality: Locality,
        hooks: &mut Hooks<P, F>,
    ) -> L15Outcome {
        if self.l15s[module].is_disabled() {
            return L15Outcome::NotPresent;
        }
        match self.l15s[module].access_hooked(now, line, kind, locality, module as u32, hooks) {
            CacheOutcome::Bypass => L15Outcome::NotPresent,
            CacheOutcome::Hit { ready_at } => L15Outcome::Hit { ready_at },
            CacheOutcome::Miss { allocate, ready_at } => L15Outcome::Miss {
                ready_at,
                // Stores never fill (the L1.5 is write-through,
                // write-around).
                fill: allocate && !kind.is_write(),
            },
        }
    }

    /// Installs a returned line into a module's L1.5, available at
    /// `ready`.
    pub fn l15_fill(&mut self, module: usize, line: LineAddr, ready: Cycle) {
        self.l15s[module].fill(line, ready, false);
    }

    /// Stage 2: crosses the module's crossbar toward the memory side,
    /// reporting the traffic to the hooks; returns when the message
    /// leaves the module's fabric.
    pub fn fabric_out<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        module: usize,
        hooks: &mut Hooks<P, F>,
    ) -> Cycle {
        self.xbars[module].transfer_hooked(now, LINE_BYTES, module as u32, hooks)
    }

    /// The shortest ring route between two modules.
    pub fn ring_route(&self, from: usize, to: usize) -> (RingDir, u32) {
        self.ring.route(NodeId(from as u8), NodeId(to as u8))
    }

    /// One network hop from `node` toward `to` (direction `dir` on a
    /// ring; direct on a fully connected fabric), carrying `bytes`;
    /// returns `(next_node, arrival)`. The hooks see the traversed link
    /// and may fault it (CRC retransmit with backoff). Issue exactly
    /// one hop per simulation event so link queues stay causally
    /// ordered.
    pub fn ring_hop<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        node: usize,
        to: usize,
        dir: RingDir,
        bytes: u64,
        hooks: &mut Hooks<P, F>,
    ) -> (usize, Cycle) {
        let (next, t) = self
            .ring
            .hop(now, NodeId(node as u8), NodeId(to as u8), dir, bytes, hooks);
        (next.as_usize(), t)
    }

    /// Stage 3 (read): accesses the home memory partition — L2, then
    /// DRAM on a miss — and returns when the line is available at the
    /// home module. The hooks see the L2 hit/miss and any DRAM traffic
    /// (demand fill and dirty writeback), and may throttle the DRAM.
    pub fn mem_read<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        home: usize,
        line: LineAddr,
        locality: Locality,
        hooks: &mut Hooks<P, F>,
    ) -> Cycle {
        let unit = home as u32;
        match self.l2s[home].access_hooked(now, line, AccessKind::Read, locality, unit, hooks) {
            CacheOutcome::Hit { ready_at } => ready_at,
            CacheOutcome::Miss { allocate, ready_at } => {
                let r =
                    self.drams[home].access_hooked(ready_at, line, AccessKind::Read, unit, hooks);
                if allocate {
                    if let Some(ev) = self.l2s[home].fill(line, r, false) {
                        if ev.dirty {
                            // The victim's writeback departs when the miss
                            // is handled (`ready_at`), not when the fill
                            // lands: stamping it at the fill time would
                            // submit a future arrival to the DRAM queue
                            // and ratchet its next-free time.
                            self.drams[home].access_hooked(
                                ready_at,
                                ev.line,
                                AccessKind::Write,
                                unit,
                                hooks,
                            );
                        }
                    }
                }
                r
            }
            CacheOutcome::Bypass => unreachable!("L2 has no allocation filter"),
        }
    }

    /// Stage 3 (write): absorbs a store into the home memory partition.
    /// The write-back L2 takes it (allocating without fetch on a miss,
    /// as coalesced full-line stores do); dirty evictions spill to DRAM.
    /// The hooks see the same events as for [`McmSystem::mem_read`].
    pub fn mem_write<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        home: usize,
        line: LineAddr,
        locality: Locality,
        hooks: &mut Hooks<P, F>,
    ) {
        let unit = home as u32;
        match self.l2s[home].access_hooked(now, line, AccessKind::Write, locality, unit, hooks) {
            CacheOutcome::Hit { .. } => {}
            CacheOutcome::Miss { allocate, ready_at } => {
                if allocate {
                    if let Some(ev) = self.l2s[home].fill(line, ready_at, true) {
                        if ev.dirty {
                            self.drams[home].access_hooked(
                                ready_at,
                                ev.line,
                                AccessKind::Write,
                                unit,
                                hooks,
                            );
                        }
                    }
                } else {
                    self.drams[home].access_hooked(ready_at, line, AccessKind::Write, unit, hooks);
                }
            }
            CacheOutcome::Bypass => unreachable!("L2 has no allocation filter"),
        }
    }

    /// Flushes all private (L1) and GPM-side (L1.5) caches — the
    /// software-coherence action at every kernel boundary (§5.1.1).
    /// Write-through policies mean no writeback traffic results.
    pub fn flush_private_caches(&mut self) {
        for l1 in &mut self.l1s {
            l1.flush();
        }
        for l15 in &mut self.l15s {
            if !l15.is_disabled() {
                l15.flush();
            }
        }
        for mshr in &mut self.mshrs {
            mshr.clear();
        }
    }

    // ------------------------------------------------------------------
    // Statistics for report building.
    // ------------------------------------------------------------------

    /// Total warp instructions issued across all SMs.
    pub fn instructions(&self) -> u64 {
        self.sms.iter().map(SmCore::instructions).sum()
    }

    /// Loads issued.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Stores issued.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Accesses homed locally.
    pub fn local_accesses(&self) -> u64 {
        self.local_accesses.get()
    }

    /// Accesses homed remotely.
    pub fn remote_accesses(&self) -> u64 {
        self.remote_accesses.get()
    }

    /// Merged L1 hit ratio.
    pub fn l1_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l1 in &self.l1s {
            r.merge(l1.stats().accesses);
        }
        r
    }

    /// Merged L1.5 hit ratio (empty when the level is disabled).
    pub fn l15_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l15 in &self.l15s {
            if !l15.is_disabled() {
                r.merge(l15.stats().accesses);
            }
        }
        r
    }

    /// Merged L2 hit ratio.
    pub fn l2_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l2 in &self.l2s {
            r.merge(l2.stats().accesses);
        }
        r
    }

    /// Bytes carried by inter-module ring segments.
    pub fn inter_module_bytes(&self) -> u64 {
        self.ring.total_bytes()
    }

    /// Bytes moved in or out of DRAM arrays.
    pub fn dram_bytes(&self) -> u64 {
        self.drams.iter().map(DramPartition::total_bytes).sum()
    }

    /// Builds the data-movement energy ledger from accumulated traffic.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let chip: u64 = self.xbars.iter().map(Crossbar::total_bytes).sum();
        ledger.record(mcm_interconnect::energy::Tier::Chip, chip);
        ledger.record(self.ring.tier(), self.ring.total_bytes());
        ledger.record_dram(self.dram_bytes());
        ledger
    }

    /// Per-module statistics for the run report.
    pub fn module_stats(&self) -> Vec<crate::report::ModuleStats> {
        (0..self.modules)
            .map(|m| {
                let per = self.sms_per_module as usize;
                let instructions = self.sms[m * per..(m + 1) * per]
                    .iter()
                    .map(SmCore::instructions)
                    .sum();
                crate::report::ModuleStats {
                    instructions,
                    dram_bytes: self.drams[m].total_bytes(),
                    l2: self.l2s[m].stats().accesses,
                    l15: if self.l15s[m].is_disabled() {
                        mcm_engine::stats::Ratio::new()
                    } else {
                        self.l15s[m].stats().accesses
                    },
                }
            })
            .collect()
    }

    /// The page map (placement diagnostics).
    pub fn page_map(&self) -> &PageMap {
        &self.page_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use mcm_mem::page::PlacementPolicy;

    fn tiny_mcm() -> SystemConfig {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.sms_per_module = 2; // 8 SMs total: fast tests
        cfg
    }

    #[test]
    fn module_mapping() {
        let sys = McmSystem::new(&tiny_mcm());
        assert_eq!(sys.total_sms(), 8);
        assert_eq!(sys.module_of(0), 0);
        assert_eq!(sys.module_of(1), 0);
        assert_eq!(sys.module_of(2), 1);
        assert_eq!(sys.module_of(7), 3);
    }

    #[test]
    fn l1_miss_then_fill_then_hit() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        let line = LineAddr::new(123);
        match sys.l1_access(Cycle::ZERO, 0, line, AccessKind::Read, hooks) {
            (issued, CacheOutcome::Miss { allocate: true, .. }) => {
                assert!(issued >= Cycle::ZERO);
            }
            (_, other) => panic!("expected cold miss, got {other:?}"),
        }
        sys.l1_fill(0, line, Cycle::new(300));
        match sys.l1_access(Cycle::new(400), 0, line, AccessKind::Read, hooks) {
            (_, CacheOutcome::Hit { ready_at }) => {
                assert!(ready_at - Cycle::new(400) <= Cycle::new(L1_LATENCY + 2));
            }
            (_, other) => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(sys.reads(), 2);
    }

    #[test]
    fn interleaved_home_is_line_modulo() {
        let mut sys = McmSystem::new(&tiny_mcm());
        assert_eq!(sys.home_of(LineAddr::new(0), 0), (0, Locality::Local));
        assert_eq!(sys.home_of(LineAddr::new(1), 0), (1, Locality::Remote));
        assert_eq!(sys.home_of(LineAddr::new(6), 2), (2, Locality::Local));
        assert_eq!(sys.local_accesses(), 2);
        assert_eq!(sys.remote_accesses(), 1);
    }

    #[test]
    fn first_touch_homes_on_requester() {
        let mut cfg = tiny_mcm();
        cfg.placement = PlacementPolicy::FirstTouch;
        let mut sys = McmSystem::new(&cfg);
        assert_eq!(sys.home_of(LineAddr::new(5), 3), (3, Locality::Local));
        // Another module touching the same page still goes to 3.
        assert_eq!(sys.home_of(LineAddr::new(6), 1), (3, Locality::Remote));
    }

    #[test]
    fn fabric_out_is_xbar_only() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        let t = sys.fabric_out(Cycle::ZERO, 2, hooks);
        assert_eq!(t, Cycle::new(XBAR_LATENCY + 1));
        assert_eq!(sys.inter_module_bytes(), 0);
    }

    #[test]
    fn ring_hops_route_and_charge() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        // 0 -> 1: one clockwise hop.
        let (dir, hops) = sys.ring_route(0, 1);
        assert_eq!(hops, 1);
        let (next, t) = sys.ring_hop(Cycle::ZERO, 0, 1, dir, REQUEST_BYTES, hooks);
        assert_eq!(next, 1);
        assert!(t >= Cycle::new(32));
        assert_eq!(sys.inter_module_bytes(), REQUEST_BYTES);
        // Response hop 1 -> 0 carries the full line.
        let (dir_back, hops_back) = sys.ring_route(1, 0);
        assert_eq!(hops_back, 1);
        let (back, t2) = sys.ring_hop(t, 1, 0, dir_back, LINE_BYTES, hooks);
        assert_eq!(back, 0);
        assert!(t2 >= t + Cycle::new(32));
        assert_eq!(sys.inter_module_bytes(), REQUEST_BYTES + LINE_BYTES);
    }

    #[test]
    fn mem_read_pays_dram_on_miss_and_l2_on_hit() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        let line = LineAddr::new(40);
        let miss = sys.mem_read(Cycle::ZERO, 0, line, Locality::Local, hooks);
        assert!(miss >= Cycle::from_ns(100) + Cycle::new(L2_LATENCY));
        let hit = sys.mem_read(Cycle::new(1000), 0, line, Locality::Local, hooks);
        assert!(hit - Cycle::new(1000) <= Cycle::new(L2_LATENCY + 2));
        assert_eq!(sys.l2_ratio().hits(), 1);
    }

    #[test]
    fn mem_write_spills_through_tiny_l2() {
        let mut cfg = tiny_mcm();
        cfg.caches.l2_bytes_total = 4 * 32 * 1024;
        let mut sys = McmSystem::new(&cfg);
        let hooks = &mut Hooks::null();
        for i in 0..4096 {
            sys.mem_write(
                Cycle::new(i),
                0,
                LineAddr::new(i * 4),
                Locality::Local,
                hooks,
            );
        }
        assert!(sys.dram_bytes() > 0, "dirty evictions must reach DRAM");
    }

    #[test]
    fn l15_remote_only_filters_local() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let hooks = &mut Hooks::null();
        let line = LineAddr::new(77);
        assert_eq!(
            sys.l15_access(
                Cycle::ZERO,
                0,
                line,
                AccessKind::Read,
                Locality::Local,
                hooks
            ),
            L15Outcome::NotPresent
        );
        match sys.l15_access(
            Cycle::ZERO,
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            hooks,
        ) {
            L15Outcome::Miss { fill: true, .. } => {}
            other => panic!("expected filling miss, got {other:?}"),
        }
        sys.l15_fill(0, line, Cycle::new(500));
        match sys.l15_access(
            Cycle::new(600),
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            hooks,
        ) {
            L15Outcome::Hit { .. } => {}
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(sys.l15_ratio().hits(), 1);
    }

    #[test]
    fn l15_disabled_is_not_present() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        assert_eq!(
            sys.l15_access(
                Cycle::ZERO,
                0,
                LineAddr::new(1),
                AccessKind::Read,
                Locality::Remote,
                hooks,
            ),
            L15Outcome::NotPresent
        );
        assert_eq!(sys.l15_ratio().total(), 0);
    }

    #[test]
    fn l15_write_never_fills() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let hooks = &mut Hooks::null();
        match sys.l15_access(
            Cycle::ZERO,
            0,
            LineAddr::new(9),
            AccessKind::Write,
            Locality::Remote,
            hooks,
        ) {
            L15Outcome::Miss { fill, .. } => assert!(!fill),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn flush_invalidates_l1_and_l15() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let hooks = &mut Hooks::null();
        let line = LineAddr::new(3);
        sys.l1_fill(0, line, Cycle::ZERO);
        sys.l15_fill(0, line, Cycle::ZERO);
        sys.flush_private_caches();
        match sys.l1_access(Cycle::new(10), 0, line, AccessKind::Read, hooks) {
            (_, CacheOutcome::Miss { .. }) => {}
            (_, other) => panic!("L1 must miss after flush, got {other:?}"),
        }
        match sys.l15_access(
            Cycle::new(10),
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            hooks,
        ) {
            L15Outcome::Miss { .. } => {}
            other => panic!("L1.5 must miss after flush, got {other:?}"),
        }
    }

    #[test]
    fn energy_ledger_reflects_traffic() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let hooks = &mut Hooks::null();
        sys.fabric_out(Cycle::ZERO, 0, hooks);
        let (dir, _) = sys.ring_route(0, 1);
        sys.ring_hop(Cycle::ZERO, 0, 1, dir, REQUEST_BYTES, hooks);
        sys.mem_read(Cycle::ZERO, 1, LineAddr::new(1), Locality::Remote, hooks);
        let ledger = sys.energy_ledger();
        assert!(ledger.bytes(mcm_interconnect::energy::Tier::Package) > 0);
        assert!(ledger.bytes(mcm_interconnect::energy::Tier::Chip) > 0);
        assert!(ledger.dram_joules() > 0.0);
    }
}

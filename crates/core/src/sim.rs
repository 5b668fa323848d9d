//! The whole-system run loop: kernels, CTA placement, warp events, and
//! split-transaction memory requests.
//!
//! [`Simulator::run`] executes one workload on one configuration and
//! returns a [`RunReport`]. Execution is event-driven with **two event
//! kinds**: a *warp* event advances one warp (compute bursts issue
//! inline; loads block the warp), and a *request* event advances one
//! in-flight memory request through the next hierarchy stage (L1.5 →
//! fabric/ring → home L2/DRAM → ring response → delivery). Staging each
//! traversal as its own event keeps every bandwidth resource's arrivals
//! globally time-ordered, which the next-free-time queuing model
//! requires.
//!
//! Every event carries a **content key** (a warp's grid coordinates, a
//! request's issue id) and the queue breaks timestamp ties by `(wave,
//! key)` — see [`EventQueue`]. Because the key is derived from *what*
//! the event is rather than *when it was pushed*, the processing order
//! is a property of the workload alone, and it is the order the golden
//! cycle tables pin.
//!
//! Loads coalesce through the per-SM MSHR: concurrent misses to a line
//! with a fill already in flight attach to that request as waiters. A
//! full MSHR stalls the warp; it replays the load when an entry frees
//! (as real SMs replay on structural hazards).
//!
//! Kernel launches are globally synchronous, as under the paper's
//! software coherence scheme: when a launch fully drains, all L1/L1.5
//! caches are flushed (§5.1.1) and the next launch begins. First-touch
//! page mappings persist across launches — the cross-kernel locality of
//! §5.3.

use mcm_engine::{Cycle, EventQueue};
use mcm_fault::{FaultPlan, Hooks, NullFaultPlan};
use mcm_mem::addr::{AccessKind, LineAddr, Locality};
use mcm_mem::cache::CacheOutcome;
use mcm_mem::mshr::MshrLookup;
use mcm_probe::{FaultEvent, NullProbe, Probe, ReqStage, RequestMeta, WarpPhase};
use mcm_sm::CtaPool;
use mcm_workloads::stream::{StreamPlan, WarpCursor, WarpOp};
use mcm_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::report::RunReport;

/// `fault.gpm.resteal_kernels`: kernel launches that restole CTAs away
/// from newly disabled modules. Fires once per launch, so it is
/// deterministic (and out-of-band).
fn gpm_resteal_counter() -> &'static mcm_telemetry::Counter {
    static TELE: std::sync::OnceLock<mcm_telemetry::Counter> = std::sync::OnceLock::new();
    TELE.get_or_init(|| {
        mcm_telemetry::global().counter(
            "fault.gpm.resteal_kernels",
            mcm_telemetry::Class::Deterministic,
        )
    })
}
use crate::system::{L15Outcome, McmSystem, REQUEST_BYTES};
use mcm_interconnect::ring::RingDir;

/// Event-key tag for warp events. Warp keys are the warp's grid
/// coordinates (`cta * warps_per_cta + warp`), unique within a kernel.
const TAG_WARP: u64 = 0;
/// Event-key tag for request events (the high bit, so warp and request
/// key spaces never collide). Request keys are the run-unique issue id.
const TAG_REQ: u64 = 1 << 63;

/// Runs workloads on configurations.
///
/// The simulator is stateless between runs; each [`Simulator::run`]
/// builds a fresh machine, so runs are independent and bit-reproducible.
///
/// # Example
///
/// ```
/// use mcm_gpu::{Simulator, SystemConfig};
/// use mcm_workloads::WorkloadSpec;
///
/// let mut spec = WorkloadSpec::template("demo");
/// spec.ctas = 32;
/// spec.insts_per_warp = 64;
/// let report = Simulator::run(&SystemConfig::baseline_mcm(), &spec);
/// assert!(report.cycles.as_u64() > 0);
/// assert_eq!(report.instructions, spec.approx_instructions());
/// ```
#[derive(Debug)]
pub struct Simulator;

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Advance the warp in this slot.
    Warp(u32),
    /// Advance the in-flight memory request in this slot.
    Req(u32),
}

struct WarpRt {
    /// The warp's position in its stream; the launch's
    /// [`RunState::stream`] plan draws its ops.
    cursor: WarpCursor,
    sm: u32,
    cta_slot: u32,
    /// Content key for this warp's events: `TAG_WARP | (cta *
    /// warps_per_cta + warp)`. Slot indices depend on retirement order,
    /// so they must never reach the event queue.
    key: u64,
    /// A load stalled on a full MSHR, awaiting replay.
    pending_load: Option<LineAddr>,
    /// Misses currently in flight for this warp.
    outstanding: u32,
    /// Latest data-ready time among resolved loads (the warp cannot
    /// retire or pass a use-sync point before it).
    resume_at: Cycle,
    /// Blocked at the MLP limit, waiting for any one load to land.
    blocked: bool,
    /// Out of instructions, waiting for in-flight loads to drain.
    draining: bool,
    /// Home locality of the warp's most recent outstanding miss — pure
    /// probe bookkeeping (attributes memory-wait phases to local vs
    /// remote); never consulted by the timing model, and not maintained
    /// when the probe is inactive.
    wait_loc: Locality,
}

struct CtaRt {
    warps_remaining: u32,
    sm: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Probe the L1.5 and cross the module's crossbar.
    Access,
    /// Ride the ring toward the home module, one hop per event.
    ToHome {
        /// Node the message currently sits at.
        at: u8,
        /// Direction of travel.
        dir: RingDir,
        /// Hops still to take.
        left: u8,
    },
    /// Access the home L2/DRAM.
    AtMem,
    /// Ride the ring back to the requester, one hop per event.
    ToRequester {
        /// Node the response currently sits at.
        at: u8,
        /// Direction of travel.
        dir: RingDir,
        /// Hops still to take.
        left: u8,
    },
    /// The response arrived at the requesting module; fill the caches
    /// and wake the waiters. A separate stage rather than completing
    /// inline at the last ring hop: the fill and the MSHR release must
    /// take effect at the arrival time, after every event due before
    /// it. Completed inline, they would already be visible to the
    /// events between the hop and the arrival (which moves the golden
    /// cycle counts).
    Deliver,
}

#[derive(Clone, Copy, Debug)]
struct Req {
    /// Run-unique content id: `(sm << 40) | per-SM issue counter`.
    /// The id keys the event queue, the probe's request lifecycle and
    /// the fault plan's poison draws.
    id: u64,
    line: LineAddr,
    sm: u32,
    module: u8,
    home: u8,
    locality: Locality,
    is_read: bool,
    l15_fill: bool,
    stage: Stage,
    /// Whether a poisoned fill already forced one replay — bounds the
    /// fault layer's MSHR-poison penalty to a single round trip.
    replayed: bool,
}

impl Req {
    /// Ring payload for the request leg: a control packet for reads,
    /// the full store data for writes.
    fn request_bytes(&self) -> u64 {
        if self.is_read {
            REQUEST_BYTES
        } else {
            mcm_mem::addr::LINE_BYTES
        }
    }
}

struct RunState<'a, P: Probe, F: FaultPlan> {
    spec: &'a WorkloadSpec,
    hooks: Hooks<P, F>,
    sys: McmSystem,
    queue: EventQueue<Ev>,
    warps: Vec<Option<WarpRt>>,
    free_warps: Vec<u32>,
    ctas: Vec<Option<CtaRt>>,
    free_ctas: Vec<u32>,
    reqs: Vec<Option<Req>>,
    free_reqs: Vec<u32>,
    /// Warps blocked on each request slot's fill (reads only; includes
    /// the initiator). Parallel to `reqs` and pooled with it: a slot's
    /// waiter list is drained with `clear()` at completion, so its
    /// buffer is reused by the slot's next occupant instead of being
    /// reallocated per request.
    waiters: Vec<Vec<u32>>,
    /// Per-SM warps stalled on a full MSHR.
    stalled: Vec<Vec<u32>>,
    /// Per-module hard-degradation mask, refreshed at each kernel
    /// launch from the fault plan; only consulted when `F::ACTIVE`.
    disabled: Vec<bool>,
    /// The current launch's stream plan, shared by every warp it
    /// admits (see [`RunState::start_kernel`]).
    stream: StreamPlan,
    /// `mlp_per_warp` (at least 1), uniform across SMs.
    mlp: u32,
    /// Latest timestamp any event reached.
    horizon: Cycle,
    /// Per-SM issue counters feeding [`Req::id`].
    req_seq: Vec<u64>,
}

impl Simulator {
    /// Runs `spec` to completion on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if either the configuration or the workload fails
    /// validation.
    pub fn run(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunReport {
        Simulator::run_faulted(cfg, spec, &mut NullProbe, &mut NullFaultPlan)
    }

    /// Runs `spec` to completion on `cfg`, streaming fine-grained
    /// events to `probe`: [`Simulator::run_faulted`] with
    /// [`NullFaultPlan`].
    ///
    /// Only perfbench calls this (`layers.rs` and `tests/bench.rs`);
    /// nothing in the workspace does. ROADMAP item 1 moves those calls
    /// to `run_faulted`, and item 4 then deletes this entry point.
    ///
    /// # Panics
    ///
    /// Panics if either the configuration or the workload fails
    /// validation.
    pub fn run_probed<P: Probe>(
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        probe: &mut P,
    ) -> RunReport {
        Simulator::run_faulted(cfg, spec, probe, &mut NullFaultPlan)
    }

    /// Runs `spec` to completion on `cfg` under a fault plan, streaming
    /// fine-grained events (including [`FaultEvent`]s) to `probe`.
    ///
    /// Probes are passive observers: the timing model never consults
    /// them, so attaching one never changes the run's cycles. With
    /// [`NullProbe`] (whose [`Probe::ACTIVE`] is `false`) every hook
    /// call and every argument-preparation branch monomorphizes away,
    /// so [`Simulator::run`] pays nothing for the instrumentation
    /// points.
    ///
    /// The plan is consulted at every link traversal (transient CRC
    /// errors → retransmit with backoff), every DRAM access (thermal
    /// throttle windows), every read completion (poisoned MSHR fill →
    /// one bounded replay), and every kernel launch (hard GPM loss →
    /// the CTA scheduler resteals the dead modules' work onto
    /// survivors). With [`NullFaultPlan`] (whose
    /// [`FaultPlan::ACTIVE`] is `false`) every consultation
    /// monomorphizes away and the run is cycle-identical to
    /// [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration or workload fails validation, or if
    /// the plan disables every module of the machine.
    pub fn run_faulted<P: Probe, F: FaultPlan>(
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        probe: &mut P,
        plan: &mut F,
    ) -> RunReport {
        cfg.validate().expect("invalid system configuration");
        spec.validate().expect("invalid workload spec");
        // The blanket `&mut` forwarding impls let the state own its
        // hooks by value while callers keep their borrows.
        let mut state = RunState::new(cfg, spec, Hooks::new(probe, plan));
        let sm_order = module_interleaved_order(state.sys.modules(), state.sys.total_sms());

        // One pool for the whole run: later kernels rewind it in place
        // (`reset` keeps queue capacity), so steady-state launches
        // allocate nothing.
        let mut pool = CtaPool::new(cfg.scheduler, spec.ctas, state.sys.modules() as u32);
        let mut now = Cycle::ZERO;
        for kernel in 0..spec.kernel_iters {
            state.start_kernel(kernel, now);
            state.hooks.probe.kernel_begin(kernel, now);
            if kernel > 0 {
                pool.reset();
            }

            if F::ACTIVE && state.refresh_disabled(kernel, now) {
                gpm_resteal_counter().inc();
                pool.resteal_disabled(&state.disabled);
            }

            // Initial placement: one CTA per SM per round until no SM
            // can take more (or the pool runs dry).
            loop {
                let mut admitted = false;
                for &sm in &sm_order {
                    if state.admit_cta(&mut pool, sm, now) {
                        admitted = true;
                    }
                }
                if !admitted {
                    break;
                }
            }

            // Drain the launch: warps, then their trailing stores.
            while let Some((t, ev)) = state.queue.pop() {
                state.horizon = state.horizon.max(t);
                if P::ACTIVE {
                    state.hooks.probe.queue_depth(t, state.queue.len());
                }
                match ev {
                    Ev::Warp(widx) => state.advance_warp(&mut pool, widx, t),
                    Ev::Req(ridx) => state.advance_req(ridx, t),
                }
            }

            debug_assert!(pool.is_exhausted(), "kernel drained with unscheduled CTAs");
            now = state.horizon;
            state.hooks.probe.kernel_end(kernel, now);
            state.sys.flush_private_caches();
        }

        finish_report(cfg, spec, now, state.sys)
    }
}

/// SMs in module-interleaved order: the centralized scheduler's
/// round-robin then sends consecutive CTAs to different modules, the
/// steady state of Fig. 8(a).
fn module_interleaved_order(modules: usize, total_sms: usize) -> Vec<usize> {
    let per_module = total_sms / modules;
    let mut sm_order = Vec::with_capacity(total_sms);
    for slot in 0..per_module {
        for m in 0..modules {
            sm_order.push(m * per_module + slot);
        }
    }
    sm_order
}

/// Assembles the final [`RunReport`] from a drained machine.
fn finish_report(cfg: &SystemConfig, spec: &WorkloadSpec, now: Cycle, sys: McmSystem) -> RunReport {
    RunReport {
        workload: spec.name.to_string(),
        config: cfg.name.clone(),
        cycles: now,
        instructions: sys.instructions(),
        mem_ops: sys.reads() + sys.writes(),
        reads: sys.reads(),
        writes: sys.writes(),
        local_accesses: sys.local_accesses(),
        remote_accesses: sys.remote_accesses(),
        l1: sys.l1_ratio(),
        l15: sys.l15_ratio(),
        l2: sys.l2_ratio(),
        inter_module_bytes: sys.inter_module_bytes(),
        dram_bytes: sys.dram_bytes(),
        energy: sys.energy_ledger(),
        modules: sys.module_stats(),
    }
}

impl<'a, P: Probe, F: FaultPlan> RunState<'a, P, F> {
    /// Builds the per-run state: a fresh machine and pre-sized slot
    /// arenas.
    ///
    /// The arenas are sized to their occupancy ceilings so the hot loop
    /// never regrows them: warps and CTAs are bounded by SM occupancy,
    /// read requests by total MSHR capacity. Fire-and-forget stores can
    /// exceed the MSHR bound, so `reqs` keeps a store-burst slack
    /// proportional to resident warps and may still grow once on a
    /// pathological store storm — after which the arena is at peak and
    /// stays allocation-free.
    fn new(cfg: &SystemConfig, spec: &'a WorkloadSpec, hooks: Hooks<P, F>) -> Self {
        let sys = McmSystem::new(cfg);
        let total_sms = sys.total_sms();
        let module_count = sys.modules();
        let warp_cap = (total_sms * cfg.sm.max_warps as usize).min(1 << 20);
        let cta_cap = if spec.warps_per_cta == 0 {
            spec.ctas as usize
        } else {
            (warp_cap / spec.warps_per_cta as usize + 1).min(spec.ctas as usize)
        };
        let req_cap = (total_sms * cfg.sm.mshr_entries + warp_cap).min(1 << 20);
        RunState {
            spec,
            hooks,
            sys,
            queue: EventQueue::with_capacity(4096),
            warps: Vec::with_capacity(warp_cap),
            free_warps: Vec::with_capacity(warp_cap),
            ctas: Vec::with_capacity(cta_cap),
            free_ctas: Vec::with_capacity(cta_cap),
            reqs: Vec::with_capacity(req_cap),
            free_reqs: Vec::with_capacity(req_cap),
            waiters: Vec::with_capacity(req_cap),
            stalled: vec![Vec::new(); total_sms],
            disabled: vec![false; module_count],
            stream: StreamPlan::new(spec, 0),
            mlp: cfg.sm.mlp_per_warp.max(1),
            horizon: Cycle::ZERO,
            req_seq: vec![0; total_sms],
        }
    }

    /// Begins kernel launch `kernel` at `now`: the launch's stream plan
    /// replaces the last one, and the queue restarts same-cycle wave
    /// numbering, so the initial placement's event coordinates do not
    /// depend on how the previous kernel's tail happened to drain.
    fn start_kernel(&mut self, kernel: u32, now: Cycle) {
        self.stream = StreamPlan::new(self.spec, kernel);
        self.horizon = now;
        self.queue.sync_to(now);
    }

    /// Stores a freshly issued `req` in a free slot (the slot's
    /// previous waiter buffer is retained, drained).
    fn alloc_req(&mut self, req: Req) -> u32 {
        match self.free_reqs.pop() {
            Some(slot) => {
                debug_assert!(self.waiters[slot as usize].is_empty());
                self.reqs[slot as usize] = Some(req);
                slot
            }
            None => {
                self.reqs.push(Some(req));
                self.waiters.push(Vec::new());
                (self.reqs.len() - 1) as u32
            }
        }
    }

    /// Refreshes the hard-degradation mask from the fault plan at a
    /// launch boundary (a GPM cannot die mid-kernel under the paper's
    /// software-coherence model); returns whether any module is dead.
    fn refresh_disabled(&mut self, kernel: u32, now: Cycle) -> bool {
        let mut any_dead = false;
        for m in 0..self.sys.modules() {
            let dead = self.hooks.plan.module_disabled(m, kernel);
            self.disabled[m] = dead;
            if dead {
                any_dead = true;
                if P::ACTIVE {
                    self.hooks.probe.fault(
                        now,
                        FaultEvent::ModuleDisabled {
                            module: m as u32,
                            kernel,
                        },
                    );
                }
            }
        }
        any_dead
    }

    /// Tries to pull one CTA from the pool onto `sm`; returns whether a
    /// CTA was admitted.
    fn admit_cta(&mut self, pool: &mut CtaPool, sm: usize, now: Cycle) -> bool {
        let warps = self.spec.warps_per_cta;
        // Check occupancy *before* drawing from the pool: a drawn CTA
        // cannot be returned.
        if self.sys.sm(sm).resident_warps() + warps > self.sys.sm(sm).config().max_warps {
            return false;
        }
        let module = self.sys.module_of(sm);
        // A hard-degraded GPM admits nothing; its share of the pool was
        // restolen to survivors at the launch boundary.
        if F::ACTIVE && self.disabled[module] {
            return false;
        }
        let Some(cta) = pool.next_cta(module) else {
            return false;
        };
        assert!(self.sys.sm_mut(sm).try_admit(warps));

        let cta_slot = match self.free_ctas.pop() {
            Some(slot) => slot,
            None => {
                self.ctas.push(None);
                (self.ctas.len() - 1) as u32
            }
        };
        self.ctas[cta_slot as usize] = Some(CtaRt {
            warps_remaining: warps,
            sm: sm as u32,
        });

        for w in 0..warps {
            let key = TAG_WARP | (u64::from(cta) * u64::from(warps) + u64::from(w));
            let rt = WarpRt {
                cursor: self.stream.cursor(cta, w),
                sm: sm as u32,
                cta_slot,
                key,
                pending_load: None,
                outstanding: 0,
                resume_at: now,
                blocked: false,
                draining: false,
                wait_loc: Locality::Local,
            };
            let widx = match self.free_warps.pop() {
                Some(slot) => {
                    self.warps[slot as usize] = Some(rt);
                    slot
                }
                None => {
                    self.warps.push(Some(rt));
                    (self.warps.len() - 1) as u32
                }
            };
            if P::ACTIVE {
                self.hooks.probe.warp_spawn(widx, sm as u32, now);
            }
            self.queue.push(now, key, Ev::Warp(widx));
        }
        true
    }

    /// Advances warp `widx` from time `t` until it hits its MLP limit,
    /// stalls on a full MSHR, runs out of instructions with loads still
    /// in flight, or retires.
    ///
    /// Loads are non-blocking up to `mlp_per_warp` in flight (register
    /// level memory parallelism): L1 hits only raise the warp's
    /// `resume_at` use-sync point, and every `mlp_per_warp` loads the
    /// warp synchronizes with it — modelling the consume of the oldest
    /// load without an extra event.
    fn advance_warp(&mut self, pool: &mut CtaPool, widx: u32, t: Cycle) {
        // Step the warp in its slot. Detaching the arena (an empty `Vec`
        // does not allocate) lets the warp and `self` be borrowed at
        // once; it is back in place before retirement admits new warps.
        let mut warps = std::mem::take(&mut self.warps);
        let warp = warps[widx as usize].as_mut().expect("event for dead warp");
        let retired = self.step_warp(warp, widx, t);
        let (sm, cta_slot) = (warp.sm, warp.cta_slot);
        self.warps = warps;
        if let Some(end) = retired {
            self.warps[widx as usize] = None;
            self.retire_warp(pool, sm, cta_slot, widx, end);
        }
    }

    /// The body of [`RunState::advance_warp`]: runs `warp` from `t`
    /// until it parks, returning its retirement time if it finished.
    fn step_warp(&mut self, warp: &mut WarpRt, widx: u32, t: Cycle) -> Option<Cycle> {
        let mlp = self.mlp;
        let sm = warp.sm;
        let mut t = t;

        // The wake at `t` closes whatever wait phase the warp parked in
        // (memory, MSHR-full, drain — or the initial issue slice).
        if P::ACTIVE {
            self.hooks.probe.warp_phase(widx, sm, t, WarpPhase::Issue);
        }
        // Phase the warp is in *locally*, to emit transitions only on
        // change (the probe charges intervals to the phase being left).
        let mut cur = WarpPhase::Issue;

        // A load stalled on a full MSHR replays first.
        if let Some(line) = warp.pending_load.take() {
            let keep_going = self.issue_load(warp, widx, t, line);
            if !keep_going || warp.outstanding >= mlp {
                warp.blocked = warp.outstanding >= mlp && warp.pending_load.is_none();
                if P::ACTIVE {
                    let phase = if warp.pending_load.is_some() {
                        WarpPhase::MshrFull
                    } else {
                        WarpPhase::mem(warp.wait_loc.is_remote())
                    };
                    self.hooks.probe.warp_phase(widx, sm, t, phase);
                }
                return None;
            }
        }

        let mut reads_since_sync = 0u32;
        loop {
            match warp.cursor.next_op(&self.stream) {
                Some(WarpOp::Compute(n)) => {
                    if P::ACTIVE && cur != WarpPhase::Compute {
                        self.hooks.probe.warp_phase(widx, sm, t, WarpPhase::Compute);
                        cur = WarpPhase::Compute;
                    }
                    t = self.sys.compute(t, warp.sm as usize, n);
                }
                Some(WarpOp::Access { addr, kind }) => {
                    if P::ACTIVE && cur != WarpPhase::Issue {
                        self.hooks.probe.warp_phase(widx, sm, t, WarpPhase::Issue);
                        cur = WarpPhase::Issue;
                    }
                    if kind.is_write() {
                        t = self.issue_store(warp, t, addr.line());
                    } else {
                        let keep_going = self.issue_load(warp, widx, t, addr.line());
                        if !keep_going {
                            // MSHR full: warp parked on the stall list.
                            if P::ACTIVE {
                                self.hooks
                                    .probe
                                    .warp_phase(widx, sm, t, WarpPhase::MshrFull);
                            }
                            return None;
                        }
                        if warp.outstanding >= mlp {
                            warp.blocked = true;
                            if P::ACTIVE {
                                let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                                self.hooks.probe.warp_phase(widx, sm, t, phase);
                            }
                            return None;
                        }
                        reads_since_sync += 1;
                        if reads_since_sync >= mlp {
                            // Use-sync: consume the oldest batch of
                            // resolved loads.
                            if P::ACTIVE && warp.resume_at > t {
                                let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                                self.hooks.probe.warp_phase(widx, sm, t, phase);
                                self.hooks.probe.warp_phase(
                                    widx,
                                    sm,
                                    warp.resume_at,
                                    WarpPhase::Issue,
                                );
                            }
                            t = t.max(warp.resume_at);
                            reads_since_sync = 0;
                        }
                    }
                }
                None => {
                    if warp.outstanding > 0 {
                        warp.draining = true;
                        if P::ACTIVE {
                            self.hooks.probe.warp_phase(widx, sm, t, WarpPhase::Drain);
                        }
                        return None;
                    }
                    let end = t.max(warp.resume_at);
                    if P::ACTIVE {
                        if end > t {
                            // The tail wait for already-resolved loads.
                            let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                            self.hooks.probe.warp_phase(widx, sm, t, phase);
                        }
                        self.hooks.probe.warp_retire(widx, sm, end);
                    }
                    self.horizon = self.horizon.max(end);
                    return Some(end);
                }
            }
        }
    }

    /// Retires a finished warp of CTA slot `cta_slot` on `sm`, releasing
    /// the CTA when it is the last.
    fn retire_warp(&mut self, pool: &mut CtaPool, sm: u32, cta_slot: u32, widx: u32, t: Cycle) {
        self.free_warps.push(widx);
        let cta = self.ctas[cta_slot as usize]
            .as_mut()
            .expect("warp retired into missing CTA");
        cta.warps_remaining -= 1;
        if cta.warps_remaining == 0 {
            debug_assert_eq!(cta.sm, sm);
            self.ctas[cta_slot as usize] = None;
            self.free_ctas.push(cta_slot);
            self.sys
                .sm_mut(sm as usize)
                .retire_warps(self.spec.warps_per_cta);
            // The freed SM immediately pulls its next CTA.
            self.admit_cta(pool, sm as usize, t);
        }
    }

    /// Issues one load: L1 probe, MSHR coalescing/reservation, request
    /// creation. Returns `false` when the warp stalled on a full MSHR
    /// (it was parked on the stall list); `true` otherwise. L1 hits
    /// only advance the warp's `resume_at`; misses raise `outstanding`.
    fn issue_load(&mut self, warp: &mut WarpRt, widx: u32, t: Cycle, line: LineAddr) -> bool {
        let sm = warp.sm as usize;
        let (_, outcome) = self
            .sys
            .l1_access(t, sm, line, AccessKind::Read, &mut self.hooks);
        match outcome {
            CacheOutcome::Hit { ready_at } => {
                warp.resume_at = warp.resume_at.max(ready_at);
                true
            }
            CacheOutcome::Miss { ready_at, .. } => match self.sys.mshr_mut(sm).lookup(line) {
                MshrLookup::InFlight(req) => {
                    let shared = self.reqs[req as usize]
                        .as_ref()
                        .expect("MSHR points at freed request");
                    self.waiters[req as usize].push(widx);
                    if P::ACTIVE {
                        warp.wait_loc = shared.locality;
                    }
                    warp.outstanding += 1;
                    true
                }
                MshrLookup::CanIssue => {
                    let module = self.sys.module_of(sm);
                    let (home, locality) = self.sys.home_of(line, module);
                    let id = self.next_req_id(sm);
                    let ridx = self.alloc_req(Req {
                        id,
                        line,
                        sm: warp.sm,
                        module: module as u8,
                        home: home as u8,
                        locality,
                        is_read: true,
                        l15_fill: false,
                        stage: Stage::Access,
                        replayed: false,
                    });
                    self.waiters[ridx as usize].push(widx);
                    self.sys.mshr_mut(sm).reserve_hooked(
                        line,
                        u64::from(ridx),
                        warp.sm,
                        t,
                        &mut self.hooks,
                    );
                    if P::ACTIVE {
                        warp.wait_loc = locality;
                        // Stamped at the departure event, so the trace
                        // span opens no later than its first stage.
                        self.hooks.probe.request_issued(
                            id,
                            ready_at,
                            RequestMeta {
                                sm: warp.sm,
                                module: module as u8,
                                home: home as u8,
                                remote: locality.is_remote(),
                                is_read: true,
                            },
                        );
                    }
                    self.queue.push(ready_at, TAG_REQ | id, Ev::Req(ridx));
                    warp.outstanding += 1;
                    true
                }
                MshrLookup::Full => {
                    warp.pending_load = Some(line);
                    self.stalled[sm].push(widx);
                    false
                }
            },
            CacheOutcome::Bypass => unreachable!("L1 has no allocation filter"),
        }
    }

    /// Issues a store: write-through L1, then a fire-and-forget request
    /// event chain. Returns the time at which the warp may continue.
    fn issue_store(&mut self, warp: &WarpRt, t: Cycle, line: LineAddr) -> Cycle {
        let sm = warp.sm as usize;
        let (issued, outcome) = self
            .sys
            .l1_access(t, sm, line, AccessKind::Write, &mut self.hooks);
        let depart = match outcome {
            CacheOutcome::Hit { ready_at } | CacheOutcome::Miss { ready_at, .. } => ready_at,
            CacheOutcome::Bypass => issued,
        };
        let module = self.sys.module_of(sm);
        let (home, locality) = self.sys.home_of(line, module);
        let id = self.next_req_id(sm);
        let ridx = self.alloc_req(Req {
            id,
            line,
            sm: warp.sm,
            module: module as u8,
            home: home as u8,
            locality,
            is_read: false,
            l15_fill: false,
            stage: Stage::Access,
            replayed: false,
        });
        if P::ACTIVE {
            self.hooks.probe.request_issued(
                id,
                depart,
                RequestMeta {
                    sm: warp.sm,
                    module: module as u8,
                    home: home as u8,
                    remote: locality.is_remote(),
                    is_read: false,
                },
            );
        }
        self.queue.push(depart, TAG_REQ | id, Ev::Req(ridx));
        issued
    }

    /// Hands out the next request id for `sm` (see [`Req::id`]).
    fn next_req_id(&mut self, sm: usize) -> u64 {
        let seq = self.req_seq[sm];
        self.req_seq[sm] = seq + 1;
        debug_assert!(seq < 1 << 40, "per-SM request sequence overflow");
        ((sm as u64) << 40) | seq
    }

    /// Advances request `ridx` from event time `now` through one or
    /// more stages.
    ///
    /// Each stage computes the request's next event time `t_next`. When
    /// probes are inactive, the common `Stage::Access` → ring-hop →
    /// memory chains are advanced **inline** whenever no other pending
    /// event is due at or before `t_next` — i.e. exactly when the
    /// request would be the queue's sole earliest event. Skipping the
    /// push/pop round trip is then observationally identical: the
    /// global processing order (and with it every resource-model and
    /// fault-plan consultation order) is unchanged, so runs stay
    /// bit-exact. With an active probe the request is always re-queued,
    /// because `Probe::queue_depth` observes every pop.
    fn advance_req(&mut self, ridx: u32, now: Cycle) {
        let mut req = self.reqs[ridx as usize]
            .take()
            .expect("event for freed request");
        let mut now = now;
        loop {
            if P::ACTIVE {
                let stage = match req.stage {
                    Stage::Access => Some(ReqStage::Access),
                    Stage::ToHome { at, .. } => Some(ReqStage::ToHome { at }),
                    Stage::AtMem => Some(ReqStage::Mem),
                    Stage::ToRequester { at, .. } => Some(ReqStage::ToRequester { at }),
                    // Delivery is a scheduling artifact (the completion
                    // itself is observed via `request_retired`).
                    Stage::Deliver => None,
                };
                if let Some(stage) = stage {
                    self.hooks.probe.request_stage(req.id, now, stage);
                }
            }
            let t_next = match req.stage {
                Stage::Access => {
                    let module = usize::from(req.module);
                    let kind = if req.is_read {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let mut t = now;
                    match self.sys.l15_access(
                        now,
                        module,
                        req.line,
                        kind,
                        req.locality,
                        &mut self.hooks,
                    ) {
                        L15Outcome::Hit { ready_at } => {
                            if req.is_read {
                                self.complete_read(req, ridx, ready_at);
                                return;
                            }
                            // Write-through: the store continues
                            // downstream.
                            t = ready_at;
                        }
                        L15Outcome::Miss { ready_at, fill } => {
                            req.l15_fill = fill;
                            t = ready_at;
                        }
                        L15Outcome::NotPresent => {}
                    }
                    let out = self.sys.fabric_out(t, module, &mut self.hooks);
                    if module == usize::from(req.home) {
                        req.stage = Stage::AtMem;
                    } else {
                        let (dir, hops) = self.sys.ring_route(module, usize::from(req.home));
                        debug_assert!(hops > 0);
                        req.stage = Stage::ToHome {
                            at: req.module,
                            dir,
                            left: hops as u8,
                        };
                    }
                    out
                }
                Stage::ToHome { at, dir, left } => {
                    let bytes = req.request_bytes();
                    let (next, arrival) = self.sys.ring_hop(
                        now,
                        usize::from(at),
                        usize::from(req.home),
                        dir,
                        bytes,
                        &mut self.hooks,
                    );
                    req.stage = if left == 1 {
                        debug_assert_eq!(next, usize::from(req.home));
                        Stage::AtMem
                    } else {
                        Stage::ToHome {
                            at: next as u8,
                            dir,
                            left: left - 1,
                        }
                    };
                    arrival
                }
                Stage::AtMem => {
                    let home = usize::from(req.home);
                    if req.is_read {
                        let ready =
                            self.sys
                                .mem_read(now, home, req.line, req.locality, &mut self.hooks);
                        if req.locality.is_remote() {
                            let (dir, hops) = self.sys.ring_route(home, usize::from(req.module));
                            debug_assert!(hops > 0);
                            req.stage = Stage::ToRequester {
                                at: req.home,
                                dir,
                                left: hops as u8,
                            };
                            ready
                        } else {
                            self.complete_read(req, ridx, ready);
                            return;
                        }
                    } else {
                        self.sys
                            .mem_write(now, home, req.line, req.locality, &mut self.hooks);
                        if P::ACTIVE {
                            self.hooks.probe.request_retired(req.id, now);
                        }
                        self.horizon = self.horizon.max(now);
                        self.free_reqs.push(ridx);
                        return;
                    }
                }
                Stage::ToRequester { at, dir, left } => {
                    let (next, arrival) = self.sys.ring_hop(
                        now,
                        usize::from(at),
                        usize::from(req.module),
                        dir,
                        mcm_mem::addr::LINE_BYTES,
                        &mut self.hooks,
                    );
                    if left == 1 {
                        debug_assert_eq!(next, usize::from(req.module));
                        req.stage = Stage::Deliver;
                    } else {
                        req.stage = Stage::ToRequester {
                            at: next as u8,
                            dir,
                            left: left - 1,
                        };
                    }
                    arrival
                }
                Stage::Deliver => {
                    self.complete_read(req, ridx, now);
                    return;
                }
            };
            // Inline the next stage if this event would be the queue's
            // sole earliest pop anyway (strictly earlier than every
            // pending event; equal-time ties must go through the queue
            // for the keyed order to arbitrate them).
            if !P::ACTIVE
                && self
                    .queue
                    .peek_time()
                    .is_none_or(|pending| pending > t_next)
            {
                now = t_next;
                continue;
            }
            self.reqs[ridx as usize] = Some(req);
            self.queue.push(t_next, TAG_REQ | req.id, Ev::Req(ridx));
            return;
        }
    }

    /// Finishes a read: fills caches, releases the MSHR entry, resolves
    /// the load for every waiting warp (waking those blocked at the MLP
    /// limit or draining to retirement), and lets one MSHR-stalled warp
    /// replay.
    fn complete_read(&mut self, mut req: Req, ridx: u32, ready: Cycle) {
        // A poisoned fill: the line arrived corrupt past the link CRC,
        // so the MSHR discards it and replays the whole request once.
        // The entry stays reserved and the waiters stay attached, so no
        // warp instruction is re-issued — the penalty is exactly one
        // extra memory round trip.
        if F::ACTIVE && !req.replayed && self.hooks.plan.poison_fill(req.id) {
            req.replayed = true;
            if P::ACTIVE {
                self.hooks
                    .probe
                    .fault(ready, FaultEvent::MshrPoison { request: req.id });
            }
            req.stage = Stage::Access;
            self.reqs[ridx as usize] = Some(req);
            self.queue.push(ready, TAG_REQ | req.id, Ev::Req(ridx));
            return;
        }
        let sm = req.sm as usize;
        if req.l15_fill {
            self.sys.l15_fill(usize::from(req.module), req.line, ready);
        }
        self.sys.l1_fill(sm, req.line, ready);
        let released =
            self.sys
                .mshr_mut(sm)
                .release_hooked(req.line, req.sm, ready, &mut self.hooks);
        debug_assert_eq!(released, Some(u64::from(ridx)));
        if P::ACTIVE {
            self.hooks.probe.request_retired(req.id, ready);
        }
        // Detach the slot's waiter buffer while waking warps (the loop
        // needs `&mut self`), then hand it back drained-but-capacious
        // for the slot's next occupant. `mem::take` leaves an empty
        // `Vec`, which does not allocate.
        let mut waiters = std::mem::take(&mut self.waiters[ridx as usize]);
        for &w in &waiters {
            let warp = self.warps[w as usize]
                .as_mut()
                .expect("waiter warp missing");
            debug_assert!(warp.outstanding > 0);
            warp.outstanding -= 1;
            warp.resume_at = warp.resume_at.max(ready);
            if warp.blocked {
                // A slot freed: the warp resumes now.
                warp.blocked = false;
                self.queue.push(ready, warp.key, Ev::Warp(w));
            } else if warp.draining && warp.outstanding == 0 {
                warp.draining = false;
                self.queue.push(warp.resume_at, warp.key, Ev::Warp(w));
            }
        }
        waiters.clear();
        self.waiters[ridx as usize] = waiters;
        self.horizon = self.horizon.max(ready);
        self.free_reqs.push(ridx);
        // One MSHR entry freed: wake one stalled warp to replay.
        if let Some(w) = self.stalled[sm].pop() {
            let key = self.warps[w as usize]
                .as_ref()
                .expect("stalled warp missing")
                .key;
            self.queue.push(ready, key, Ev::Warp(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_mem::page::PlacementPolicy;
    use mcm_sm::SchedulerPolicy;

    fn quick_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::template("quick");
        spec.ctas = 64;
        spec.warps_per_cta = 2;
        spec.insts_per_warp = 128;
        spec.kernel_iters = 2;
        spec.footprint_bytes = 8 << 20;
        spec
    }

    fn small_mcm() -> SystemConfig {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.sms_per_module = 4; // 16 SMs
        cfg
    }

    #[test]
    fn warp_slots_stay_small() {
        // The per-launch stream plan lives in `RunState`; a warp slot
        // holds only its cursor and issue state.
        let size = std::mem::size_of::<WarpRt>();
        assert!(size <= 104, "WarpRt grew to {size} bytes");
        assert_eq!(std::mem::size_of::<Option<WarpRt>>(), size);
    }

    #[test]
    fn run_completes_and_counts_every_instruction() {
        let spec = quick_spec();
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
        assert!(report.cycles > Cycle::ZERO);
        assert!(report.mem_ops > 0);
        assert_eq!(report.mem_ops, report.reads + report.writes);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = quick_spec();
        let cfg = small_mcm();
        let a = Simulator::run(&cfg, &spec);
        let b = Simulator::run(&cfg, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn warp_parallelism_actually_overlaps() {
        // The whole point of a GPU: N warps doing independent loads
        // finish in far less than N * load-latency. Guards against
        // event-ordering bugs that serialize the machine.
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        spec.mem_ratio = 1.0; // pure memory
        let report = Simulator::run(&small_mcm(), &spec);
        let serial_floor = report.reads * 150; // ~150 cycles per L2/DRAM trip
        assert!(
            report.cycles.as_u64() * 10 < serial_floor,
            "warps are not overlapping: {} cycles for {} reads",
            report.cycles,
            report.reads
        );
    }

    #[test]
    fn interleaved_placement_is_75_percent_remote() {
        let spec = quick_spec();
        let report = Simulator::run(&small_mcm(), &spec);
        let remote_frac =
            report.remote_accesses as f64 / (report.remote_accesses + report.local_accesses) as f64;
        assert!(
            (remote_frac - 0.75).abs() < 0.05,
            "4-module interleave should be ~75% remote, got {remote_frac}"
        );
    }

    #[test]
    fn ds_ft_localizes_traffic() {
        let spec = quick_spec();
        let mut cfg = small_mcm();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg.name = "dsft".into();
        let report = Simulator::run(&cfg, &spec);
        assert!(
            report.locality_rate() > 0.5,
            "DS+FT should localize most accesses, got {}",
            report.locality_rate()
        );
        let baseline = Simulator::run(&small_mcm(), &spec);
        assert!(
            report.inter_module_bytes < baseline.inter_module_bytes,
            "DS+FT must cut ring traffic ({} vs {})",
            report.inter_module_bytes,
            baseline.inter_module_bytes
        );
    }

    #[test]
    fn monolithic_beats_mcm_at_equal_sms() {
        let spec = quick_spec();
        let mcm = Simulator::run(&small_mcm(), &spec);
        let mut mono = SystemConfig::monolithic(16);
        mono.dram_total_gbps = 3072.0;
        mono.caches.l2_bytes_total = 16 << 20;
        let mono_r = Simulator::run(&mono, &spec);
        assert!(
            mono_r.cycles <= mcm.cycles,
            "a monolithic GPU with equal resources never loses to the NUMA MCM \
             (mono {} vs mcm {})",
            mono_r.cycles,
            mcm.cycles
        );
        assert_eq!(mono_r.inter_module_bytes, 0);
    }

    #[test]
    fn more_link_bandwidth_never_hurts() {
        let spec = quick_spec();
        let mut slow = small_mcm();
        slow.topology.link_gbps = 64.0;
        let mut fast = small_mcm();
        fast.topology.link_gbps = 6144.0;
        let slow_r = Simulator::run(&slow, &spec);
        let fast_r = Simulator::run(&fast, &spec);
        assert!(
            fast_r.cycles <= slow_r.cycles,
            "6 TB/s links can't be slower than 64 GB/s links"
        );
    }

    #[test]
    fn limited_parallelism_underfills_the_machine() {
        let mut spec = quick_spec();
        spec.ctas = 4; // far fewer CTAs than SMs
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
    }

    #[test]
    fn single_cta_single_warp_edge_case() {
        let mut spec = quick_spec();
        spec.ctas = 1;
        spec.warps_per_cta = 1;
        spec.kernel_iters = 1;
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, u64::from(spec.insts_per_warp));
    }

    #[test]
    fn imbalanced_workload_completes() {
        let mut spec = quick_spec();
        spec.imbalance = 0.8;
        let report = Simulator::run(&small_mcm(), &spec);
        assert!(report.instructions >= spec.approx_instructions());
    }

    #[test]
    fn memory_level_parallelism_hides_latency() {
        // A warp allowed 8 outstanding loads must beat one that blocks
        // on every load, on a latency-dominated (underfilled) machine.
        let mut spec = quick_spec();
        spec.ctas = 8;
        spec.kernel_iters = 1;
        let mut serial = small_mcm();
        serial.sm.mlp_per_warp = 1;
        let mut parallel = small_mcm();
        parallel.sm.mlp_per_warp = 8;
        let serial_r = Simulator::run(&serial, &spec);
        let parallel_r = Simulator::run(&parallel, &spec);
        assert!(
            parallel_r.cycles.as_u64() as f64 <= serial_r.cycles.as_u64() as f64 * 0.8,
            "MLP 8 should be much faster than MLP 1 ({} vs {})",
            parallel_r.cycles,
            serial_r.cycles
        );
    }

    #[test]
    fn draining_warps_retire_after_their_last_load() {
        // A stream that ends on loads exercises the draining path; all
        // instructions must still be accounted for.
        let mut spec = quick_spec();
        spec.mem_ratio = 1.0; // every op is memory: ends in-flight
        spec.write_frac = 0.0;
        spec.kernel_iters = 1;
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
        assert_eq!(report.reads, spec.approx_instructions());
    }

    #[test]
    fn null_fault_plan_is_cycle_identical() {
        let spec = quick_spec();
        let cfg = small_mcm();
        let plain = Simulator::run(&cfg, &spec);
        let faulted = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut NullFaultPlan);
        assert_eq!(plain, faulted);
    }

    #[test]
    fn zero_rate_seeded_plan_matches_plain_run() {
        // An *active* plan whose every rate is zero takes the faulted
        // code paths but must reproduce the plain run bit-exactly
        // (unit DRAM stretch, no link errors, no poison, no dead GPMs).
        let spec = quick_spec();
        let cfg = small_mcm();
        let plain = Simulator::run(&cfg, &spec);
        let mut plan =
            mcm_fault::SeededFaultPlan::new(mcm_fault::FaultConfig::with_rate(0x5EED, 0.0));
        let faulted = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut plan);
        assert_eq!(plain, faulted);
    }

    #[test]
    fn dead_module_survives_with_higher_cycles() {
        // Compute-bound so the lost SMs are the bottleneck: a
        // memory-bound spec on the interleaved baseline can even speed
        // up (the dead module's DRAM stays reachable while contention
        // drops).
        let mut spec = quick_spec();
        spec.mem_ratio = 0.05;
        let cfg = small_mcm();
        let healthy = Simulator::run(&cfg, &spec);
        let fc = mcm_fault::FaultConfig {
            dead_module: Some(mcm_fault::DeadModule {
                module: 1,
                from_kernel: 0,
            }),
            ..mcm_fault::FaultConfig::default()
        };
        let mut plan = mcm_fault::SeededFaultPlan::new(fc);
        let degraded = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut plan);
        assert_eq!(degraded.instructions, spec.approx_instructions());
        assert!(
            degraded.cycles > healthy.cycles,
            "losing a GPM must cost cycles ({} vs {})",
            degraded.cycles,
            healthy.cycles
        );
    }

    #[test]
    fn restealing_drains_distributed_queues_under_gpm_loss() {
        // The distributed scheduler owns per-module queues; a dead
        // module's queue must be restolen or the kernel never drains.
        let spec = quick_spec();
        let mut cfg = small_mcm();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg.name = "dsft-degraded".into();
        let healthy = Simulator::run(&cfg, &spec);
        let fc = mcm_fault::FaultConfig {
            dead_module: Some(mcm_fault::DeadModule {
                module: 2,
                from_kernel: 0,
            }),
            ..mcm_fault::FaultConfig::default()
        };
        let mut plan = mcm_fault::SeededFaultPlan::new(fc);
        let degraded = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut plan);
        assert_eq!(degraded.instructions, spec.approx_instructions());
        assert!(degraded.cycles > healthy.cycles);
    }

    #[test]
    fn poisoned_fills_replay_without_reissuing_instructions() {
        /// Poisons every fill's first arrival.
        struct PoisonAll;
        impl FaultPlan for PoisonAll {
            fn poison_fill(&mut self, _id: u64) -> bool {
                true
            }
        }
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        let cfg = small_mcm();
        let healthy = Simulator::run(&cfg, &spec);
        let poisoned = Simulator::run_faulted(&cfg, &spec, &mut NullProbe, &mut PoisonAll);
        // The MSHR entry survives the replay, so no warp re-issues: the
        // instruction count is exact, only the cycles grow.
        assert_eq!(poisoned.instructions, spec.approx_instructions());
        assert!(poisoned.cycles > healthy.cycles);
    }

    #[test]
    fn tiny_mshr_still_completes_by_replaying() {
        let mut cfg = small_mcm();
        cfg.sm.mshr_entries = 2; // force Full stalls
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        let report = Simulator::run(&cfg, &spec);
        // Replays re-issue instructions, so the count may exceed the
        // static budget, but never be below it — and the run finishes.
        assert!(report.instructions >= spec.approx_instructions());
        // A starved memory system must be slower than an unconstrained
        // one.
        let free = Simulator::run(&small_mcm(), &spec);
        assert!(report.cycles >= free.cycles);
    }
}

//! The run loop's zero-allocation steady-state contract.
//!
//! The first few kernels warm every pool: slot arenas grow to their
//! peak, the calendar queue builds its node pool and ready batch, and
//! first-touch page mappings reach capacity. Every later kernel of the
//! same grid must then execute **without a single allocator call** —
//! the event loop reuses pooled waiter buffers, recycled queue nodes
//! and the rewound CTA pool. The simulator is deterministic, so the counter delta is
//! exact: a regression that reintroduces per-event allocation fails
//! this test reproducibly, not statistically.

use mcm_engine::{Cycle, EventQueue};
use mcm_fault::NullFaultPlan;
use mcm_gpu::{Simulator, SystemConfig};
use mcm_mem::page::PlacementPolicy;
use mcm_probe::Probe;
use mcm_sm::SchedulerPolicy;
use mcm_testkit::alloc::CountingAllocator;
use mcm_workloads::WorkloadSpec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const KERNELS: usize = 6;

/// Snapshots the allocator at each kernel boundary into fixed arrays —
/// the probe itself must not allocate, or it would poison the count.
struct KernelWindows {
    begin: [u64; KERNELS],
    end: [u64; KERNELS],
    seen: usize,
}

impl Probe for KernelWindows {
    fn kernel_begin(&mut self, kernel: u32, _now: Cycle) {
        self.begin[kernel as usize] = ALLOC.alloc_events();
    }

    fn kernel_end(&mut self, kernel: u32, _now: Cycle) {
        self.end[kernel as usize] = ALLOC.alloc_events();
        self.seen = self.seen.max(kernel as usize + 1);
    }
}

fn alloc_probe_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::template("alloc-probe");
    spec.ctas = 64;
    spec.warps_per_cta = 2;
    spec.insts_per_warp = 128;
    spec.kernel_iters = KERNELS as u32;
    // A small footprint with many more accesses than pages, so kernel 0
    // touches (and maps) every first-touch page and later kernels hit a
    // fully-built page table.
    spec.footprint_bytes = 1 << 20;
    spec
}

/// The probe spec with per-CTA imbalance and divergent gathers: CTAs
/// of different lengths retire (and admit successors) at scattered
/// times, and gathers put several same-warp misses in flight at once.
fn imbalanced_divergent_spec() -> WorkloadSpec {
    let mut spec = alloc_probe_spec();
    spec.name = "alloc-probe-skewed";
    spec.imbalance = 0.6;
    spec.locality = spec.locality.with_divergence(0.3, 4);
    spec
}

fn small_machine() -> SystemConfig {
    let mut cfg = SystemConfig::baseline_mcm();
    cfg.topology.sms_per_module = 4; // 16 SMs
    cfg
}

/// Each kernel draws a fresh address stream, so first-touch page
/// mappings (and the hash-map capacity behind them) keep warming for a
/// few launches; the machine pools themselves are warm after kernel 0.
/// Steady state must then be exactly allocation-free.
fn assert_steady_state_alloc_free(probe: &KernelWindows, case: &str) {
    assert_eq!(
        probe.seen, KERNELS,
        "{case}: every kernel must report its window"
    );
    const WARMUP_KERNELS: usize = 3;
    for k in WARMUP_KERNELS..KERNELS {
        assert_eq!(
            probe.end[k] - probe.begin[k],
            0,
            "{case}: kernel {k} allocated in steady state (per-kernel \
             allocator calls: {:?})",
            (0..KERNELS)
                .map(|k| probe.end[k] - probe.begin[k])
                .collect::<Vec<_>>()
        );
    }
}

fn empty_windows() -> KernelWindows {
    KernelWindows {
        begin: [0; KERNELS],
        end: [0; KERNELS],
        seen: 0,
    }
}

/// The same windows behind `ACTIVE = false`: the run compiles exactly
/// as [`Simulator::run`] does (probe hooks gone, request stages chained
/// inline), and only the kernel-boundary callbacks, which the run loop
/// makes regardless, still fire.
struct PassiveWindows(KernelWindows);

impl Probe for PassiveWindows {
    const ACTIVE: bool = false;
    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_begin(kernel, now);
    }
    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_end(kernel, now);
    }
}

/// Serial runs under both probe builds: the active one walks every
/// probe branch and queues every request stage; the passive one is the
/// path [`Simulator::run`] takes.
fn serial_steady_state_does_not_allocate(cfg: &SystemConfig, spec: &WorkloadSpec) {
    let case = format!("serial {}, {:?}, {}", cfg.name, cfg.scheduler, spec.name);
    let mut probe = empty_windows();
    let report = Simulator::run_faulted(cfg, spec, &mut probe, &mut NullFaultPlan);
    assert!(report.cycles > Cycle::ZERO);
    assert_steady_state_alloc_free(&probe, &format!("{case}, active probe"));

    let mut passive = PassiveWindows(empty_windows());
    Simulator::run_faulted(cfg, spec, &mut passive, &mut NullFaultPlan);
    assert_steady_state_alloc_free(&passive.0, &format!("{case}, passive probe"));
}

/// The queue's share of the contract, in isolation: a pool pre-sized
/// for a pending count never grows while that many are pending, and
/// once a pool has reached a peak of pending events, loading a
/// timestamp's batch never allocates, even when the pool's peak was
/// reached with every event at its own timestamp and a later burst
/// puts them all at one.
/// The run loop meets that shape whenever a kernel's largest same-cycle
/// batch exceeds every batch before it; the launch cases above cannot
/// show it, because their largest batch recurs identically in each
/// kernel and so is reached during warm-up.
fn queue_batches_do_not_allocate() {
    const PENDING: u64 = 1000;
    // A queue pre-sized for the pending count holds it however it
    // spreads: here one event per timestamp, one block per bucket.
    let mut q = EventQueue::with_capacity(PENDING as usize);
    let before = ALLOC.alloc_events();
    for i in 0..PENDING {
        q.push(Cycle::new(1 + i), i, i);
    }
    while q.pop().is_some() {}
    let allocs = ALLOC.alloc_events() - before;
    assert_eq!(allocs, 0, "queue: a pre-sized pool grew {allocs} times");

    let mut q = EventQueue::new();
    // Warm-up: the pool reaches its peak one timestamp per event.
    for i in 0..PENDING {
        q.push(Cycle::new(1 + i), i, i);
    }
    while q.pop().is_some() {}
    let before = ALLOC.alloc_events();
    let at = q.now() + Cycle::new(1);
    for i in 0..PENDING {
        q.push(at, (i * 7919) % PENDING, i);
    }
    let mut drained = 0;
    while q.pop().is_some() {
        drained += 1;
    }
    let allocs = ALLOC.alloc_events() - before;
    assert_eq!(drained, PENDING);
    assert_eq!(
        allocs, 0,
        "queue: a same-cycle burst allocated {allocs} times"
    );
}

/// Every case runs inside this one test, one after another: the
/// counting allocator is process-wide and the test harness runs
/// separate tests on parallel threads, so a concurrent case's
/// allocations would land in another's steady-state window.
///
/// The distributed scheduler admits each launch's warps at one
/// timestamp in module-interleaved key order, so its cases hold the
/// event queue's large unsorted batches to the same contract. The
/// `l15-ds` shape adds a remote-only L1.5, so first fills materialising
/// cache sets are held to it too. The first-touch case runs the
/// imbalanced, divergent spec, whose event times scatter over many
/// more queue buckets than the uniform spec's.
#[test]
fn steady_state_kernels_do_not_allocate() {
    let centralized = small_machine();
    let mut distributed = small_machine();
    distributed.scheduler = SchedulerPolicy::Distributed;
    let mut l15_ds = SystemConfig::mcm_l15_ds();
    l15_ds.topology.sms_per_module = small_machine().topology.sms_per_module;
    let uniform = alloc_probe_spec();
    for cfg in [&centralized, &distributed, &l15_ds] {
        serial_steady_state_does_not_allocate(cfg, &uniform);
    }
    let mut first_touch = distributed.clone();
    first_touch.placement = PlacementPolicy::FirstTouch;
    first_touch.name = "ds-ft".into();
    let skewed = imbalanced_divergent_spec();
    serial_steady_state_does_not_allocate(&first_touch, &skewed);
    queue_batches_do_not_allocate();
}

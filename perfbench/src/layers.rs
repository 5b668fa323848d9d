//! The traced pass: per-layer counts and costs, named after the
//! workspace crates.
//!
//! Counts come from where the work happens: a counting probe on
//! `Simulator::run_probed` for the engine layers, and telemetry deltas
//! and public stats for exec, store, memo and serve. Each `ns_per_op`
//! comes from replaying that count's call pattern into the component
//! alone, built with the traced pair's geometry and fed the traced
//! pair's own address streams. `core.coverage` is the share of the
//! pair's untraced wall time those replays account for.
//!
//! The pass traces one workload of the run's own inputs on `baseline`
//! and on `l15-ds` (the pair whose host time is out of proportion to
//! its event count) and reports the `l15-ds` pair; both attributions
//! are printed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mcm_bench::harness::{pair_fingerprint, Memo};
use mcm_bench::serve_backend::MemoBackend;
use mcm_engine::{Cycle, EventQueue};
use mcm_gpu::{Simulator, SystemConfig};
use mcm_interconnect::mesh::{FullMesh, NetworkKind};
use mcm_interconnect::ring::{NodeId, RingNetwork};
use mcm_interconnect::xbar::Crossbar;
use mcm_mem::addr::{AccessKind, LineAddr, Locality, PartitionId, LINE_BYTES};
use mcm_mem::cache::{AllocFilter, CacheConfig, CacheOutcome, SetAssocCache, WritePolicy};
use mcm_mem::dram::{DramConfig, DramPartition};
use mcm_mem::mshr::{Mshr, MshrLookup};
use mcm_mem::page::PageMap;
use mcm_serve::protocol::{render_report, Request};
use mcm_serve::service::{ServeOptions, SweepService};
use mcm_sm::CtaPool;
use mcm_store::Store;
use mcm_workloads::{WarpOp, WarpStream, WorkloadSpec};

use crate::env::{dir_bytes, TempDir};
use crate::inputs::{self, Pair, PRESETS};
use crate::metrics::{instruction_budget, median, tail, Metric};
use crate::serve_mixed::Client;
use crate::sim_serial::build_only_spec;
use crate::sweep::{counter, refs, render, JOBS};
use crate::trace::{CountingProbe, Counts};
use crate::{ms_since, Ctx, Outcome};

/// Every per-layer metric the traced pass prints, with its unit, in
/// print order.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("engine.queue.pops", "count"),
    ("engine.queue.depth_p50", "count"),
    ("engine.queue.ns_per_op", "ns"),
    ("workloads.stream.ops", "count"),
    ("workloads.stream.ns_per_op", "ns"),
    ("sm.warps_spawned", "count"),
    ("sm.warp_phase_changes", "count"),
    ("sm.cta_pool.ns_per_draw", "ns"),
    ("mem.l1.accesses", "count"),
    ("mem.l15.accesses", "count"),
    ("mem.l2.accesses", "count"),
    ("mem.l1.hit_rate", "ratio"),
    ("mem.l15.hit_rate", "ratio"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.mshr.updates", "count"),
    ("mem.dram.accesses", "count"),
    ("mem.dram.bytes", "bytes"),
    ("mem.cache.l1.ns_per_access", "ns"),
    ("mem.cache.l15.ns_per_access", "ns"),
    ("mem.cache.l2.ns_per_access", "ns"),
    ("mem.cache.l1.flush_us", "us"),
    ("mem.cache.l15.flush_us", "us"),
    ("mem.mshr.ns_per_op", "ns"),
    ("mem.dram.ns_per_access", "ns"),
    ("mem.page.ns_per_lookup", "ns"),
    ("interconnect.link.transfers", "count"),
    ("interconnect.link.bytes", "bytes"),
    ("interconnect.xbar.transfers", "count"),
    ("interconnect.ring.ns_per_hop", "ns"),
    ("interconnect.mesh.ns_per_hop", "ns"),
    ("interconnect.xbar.ns_per_transfer", "ns"),
    ("core.req.issued", "count"),
    ("core.req.stage.access", "count"),
    ("core.req.stage.to_home", "count"),
    ("core.req.stage.mem", "count"),
    ("core.req.stage.to_requester", "count"),
    ("core.build_ms.baseline", "ms"),
    ("core.build_ms.l15-ds", "ms"),
    ("core.build_ms.optimized", "ms"),
    ("core.build_ms.opt-fc", "ms"),
    ("core.pair_ms.baseline", "ms"),
    ("core.pair_ms.l15-ds", "ms"),
    ("core.coverage", "ratio"),
    ("core.glue_frac", "ratio"),
    ("exec.tasks", "count"),
    ("exec.utilization", "ratio"),
    ("exec.idle_ns", "ns"),
    ("exec.steals", "count"),
    ("exec.tail_s", "s"),
    ("store.open_ms", "ms"),
    ("store.get_us_p50", "us"),
    ("store.puts", "count"),
    ("store.bytes_on_disk", "bytes"),
    ("store.quarantined", "count"),
    ("memo.warm_ms", "ms"),
    ("memo.store_hits", "count"),
    ("memo.dedupe_ratio", "ratio"),
    ("figures.render_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.inflight_dedups", "count"),
    ("serve.rejections", "count"),
    ("serve.no_sim_ratio", "ratio"),
    ("serve.ack_us_p50", "us"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.render_report_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("bench.tail_percentile", "%"),
    ("bench.op_samples", "count"),
    ("bench.digest_pairs", "count"),
];

/// Timed repetitions per measured call; the median is reported.
const REPS: usize = 3;
/// Replays feed at most this many operations into one component.
const MAX_OPS: usize = 1 << 20;

/// Median wall time of `REPS` calls of `f`, ms, and the last result.
fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut walls = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        last = Some(f());
        walls.push(ms_since(t));
    }
    (median(&walls), last.expect("REPS > 0"))
}

/// ns per op of `ops` operations run by `f` (timed once; `f` returns
/// the operation count).
fn ns_per_op(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    let ops = f();
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// One traced pair: untraced and traced wall, and what the probe saw.
struct TracedPair {
    wall_ms: f64,
    traced_ms: f64,
    counts: Counts,
}

fn trace_pair(ctx: &Ctx<'_>, pair: Pair, group: u64, out: &mut Outcome) -> TracedPair {
    let cfg = pair.config();
    let spec = pair.spec().scaled(ctx.size.scale);
    let (wall_ms, report) = timed(|| {
        ctx.tracer.span("core.simulator.run", None, group, |_| {
            Simulator::run(&cfg, &spec)
        })
    });
    let (traced_ms, (traced, counts)) = timed(|| {
        ctx.tracer
            .span("core.simulator.run_probed", None, group, |_| {
                let mut probe = CountingProbe::default();
                let r = Simulator::run_probed(&cfg, &spec, &mut probe);
                (r, probe.counts)
            })
    });
    out.attempted += 2 * REPS as u64;
    if traced != report {
        out.fail(format!(
            "({}, {}): the probed report differs from the untraced one",
            pair.preset, pair.workload
        ));
    }
    // Every instruction beyond the budget is a load replayed after a
    // full MSHR: the excess must equal the replays the probe saw.
    let budget = instruction_budget(&spec);
    if report.instructions != budget + counts.mshr_full {
        out.fail(format!(
            "({}, {}): {} instructions, expected budget {budget} + {} replays",
            pair.preset, pair.workload, report.instructions, counts.mshr_full
        ));
    }
    let recorded = out.digest.add(&report);
    out.check(recorded);
    TracedPair {
        wall_ms,
        traced_ms,
        counts,
    }
}

/// The cache geometries the machine builds (see `McmSystem::new`).
fn l1_config(cfg: &SystemConfig) -> CacheConfig {
    CacheConfig {
        name: "L1",
        size_bytes: cfg.caches.l1_bytes_per_sm,
        line_bytes: LINE_BYTES,
        ways: 4,
        latency: Cycle::new(24),
        tag_latency: Cycle::new(24),
        bandwidth: 128.0,
        write_policy: WritePolicy::WriteThrough,
        alloc_filter: AllocFilter::All,
    }
}

fn l15_config(cfg: &SystemConfig) -> CacheConfig {
    CacheConfig {
        name: "L1.5",
        size_bytes: cfg.caches.l15_bytes_total / u64::from(cfg.topology.modules),
        line_bytes: LINE_BYTES,
        ways: 16,
        latency: Cycle::new(40),
        tag_latency: Cycle::new(12),
        bandwidth: 2048.0,
        write_policy: WritePolicy::WriteThrough,
        alloc_filter: cfg.caches.l15_filter,
    }
}

fn l2_config(cfg: &SystemConfig) -> CacheConfig {
    CacheConfig {
        name: "L2",
        size_bytes: cfg.caches.l2_bytes_total / u64::from(cfg.topology.modules),
        line_bytes: LINE_BYTES,
        ways: 16,
        latency: Cycle::new(48),
        tag_latency: Cycle::new(48),
        bandwidth: (cfg.dram_gbps_per_module() * 2.67).max(1024.0),
        write_policy: WritePolicy::WriteBack,
        alloc_filter: AllocFilter::All,
    }
}

fn dram_config(cfg: &SystemConfig) -> DramConfig {
    let bw = cfg.dram_gbps_per_module();
    DramConfig {
        bandwidth_gbps: bw,
        channels: ((bw / 96.0).round() as u32).max(4),
        latency: cfg.dram_latency(),
    }
}

/// One access, as the next level sees it.
#[derive(Clone, Copy)]
struct Access {
    unit: usize,
    line: LineAddr,
    kind: AccessKind,
    locality: Locality,
}

/// The pair's address streams, split per level by a timing-free walk
/// through the hierarchy.
#[derive(Default)]
struct Streams {
    l1: Vec<Access>,
    l15: Vec<Access>,
    l2: Vec<Access>,
    dram: Vec<Access>,
    /// (requester module, line) per L1 miss: page-map lookups.
    page: Vec<(usize, LineAddr)>,
    /// (from, to) module per remote request.
    remote: Vec<(usize, usize)>,
}

/// Feeds one access into a cache, filling on an allocating miss;
/// returns whether it continues downstream.
fn access(cache: &mut SetAssocCache, now: Cycle, a: &Access) -> bool {
    match cache.access(now, a.line, a.kind, a.locality) {
        CacheOutcome::Hit { .. } => a.kind.is_write(),
        CacheOutcome::Miss { allocate, ready_at } => {
            if allocate {
                cache.fill(
                    a.line,
                    ready_at,
                    a.kind.is_write() && !cache.is_write_through(),
                );
            }
            true
        }
        CacheOutcome::Bypass => true,
    }
}

fn caches(n: usize, cfg: &CacheConfig) -> Vec<SetAssocCache> {
    (0..n).map(|_| SetAssocCache::new(cfg.clone())).collect()
}

/// Generates every warp's stream (timed: `workloads.stream`), then walks
/// the accesses through untimed caches to split them per level.
fn streams(cfg: &SystemConfig, spec: &WorkloadSpec) -> (u64, f64, Streams) {
    let mut ops = 0u64;
    let gen_ns = ns_per_op(|| {
        for k in 0..spec.kernel_iters {
            for c in 0..spec.ctas {
                for w in 0..spec.warps_per_cta {
                    for op in WarpStream::new(spec, k, c, w) {
                        black_box(op);
                        ops += 1;
                    }
                }
            }
        }
        ops
    });

    let sms = cfg.topology.total_sms() as usize;
    let modules = usize::from(cfg.topology.modules);
    let per_module = cfg.topology.sms_per_module as usize;
    let mut s = Streams::default();
    'gen: for k in 0..spec.kernel_iters {
        for c in 0..spec.ctas {
            for w in 0..spec.warps_per_cta {
                for op in WarpStream::new(spec, k, c, w) {
                    if let WarpOp::Access { addr, kind } = op {
                        s.l1.push(Access {
                            unit: c as usize % sms,
                            line: addr.line(),
                            kind,
                            locality: Locality::Local,
                        });
                        if s.l1.len() >= MAX_OPS {
                            break 'gen;
                        }
                    }
                }
            }
        }
    }
    let mut l1 = caches(sms, &l1_config(cfg));
    let mut l15 = caches(modules, &l15_config(cfg));
    let mut l2 = caches(modules, &l2_config(cfg));
    let mut pages = PageMap::with_page_lines(
        cfg.placement,
        cfg.topology.modules,
        (cfg.ft_page_bytes / LINE_BYTES).max(1),
    );
    for i in 0..s.l1.len() {
        let a = s.l1[i];
        let now = Cycle::new(i as u64);
        if !access(&mut l1[a.unit], now, &a) {
            continue;
        }
        let module = a.unit / per_module;
        s.page.push((module, a.line));
        let home = usize::from(pages.partition_for(a.line, PartitionId(module as u8)).0);
        let locality = if home == module {
            Locality::Local
        } else {
            Locality::Remote
        };
        let down = Access {
            unit: module,
            locality,
            ..a
        };
        s.l15.push(down);
        if !access(&mut l15[module], now, &down) {
            continue;
        }
        if home != module {
            s.remote.push((module, home));
        }
        let at_home = Access { unit: home, ..down };
        s.l2.push(at_home);
        if access(&mut l2[home], now, &at_home) {
            s.dram.push(at_home);
        }
    }
    (ops, gen_ns, s)
}

/// Replayed costs of one pair's components, ns per operation (flushes
/// in µs per kernel boundary, all units).
#[derive(Debug, Default)]
struct Costs {
    stream_ops: u64,
    stream: f64,
    queue: f64,
    cta_draw: f64,
    l1: f64,
    l15: f64,
    l2: f64,
    l1_flush_us: f64,
    l15_flush_us: f64,
    mshr: f64,
    dram: f64,
    page: f64,
    ring: f64,
    mesh: f64,
    xbar: f64,
}

fn replay_cache(cfg: &CacheConfig, units: usize, stream: &[Access]) -> (f64, f64) {
    let mut cs = caches(units, cfg);
    let ns = ns_per_op(|| {
        for (i, a) in stream.iter().enumerate() {
            black_box(access(&mut cs[a.unit], Cycle::new(i as u64), a));
        }
        stream.len() as u64
    });
    let t = Instant::now();
    for c in &mut cs {
        black_box(c.flush());
    }
    (ns, t.elapsed().as_secs_f64() * 1e6)
}

fn replay(cfg: &SystemConfig, spec: &WorkloadSpec, counts: &Counts) -> Costs {
    let (stream_ops, stream, s) = streams(cfg, spec);
    let modules = usize::from(cfg.topology.modules);
    let sms = cfg.topology.total_sms() as usize;
    let mut c = Costs {
        stream_ops,
        stream,
        ..Costs::default()
    };

    // Event queue: the hold pattern at the pair's median depth.
    let depth = counts.depth_p50().max(1);
    let pops = counts.pops.clamp(1, MAX_OPS as u64);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth as usize + 1);
    for i in 0..depth {
        q.push(Cycle::new(i % 97), i, i);
    }
    c.queue = ns_per_op(|| {
        for i in 0..pops {
            let (t, ev) = q.pop().expect("the queue is held at its depth");
            q.push(t + Cycle::new(1 + (i * 7919) % 211), depth + i, ev);
        }
        pops
    });

    // CTA pool: every draw of every launch.
    let mut pool = CtaPool::new(cfg.scheduler, spec.ctas, u32::from(cfg.topology.modules));
    c.cta_draw = ns_per_op(|| {
        let mut draws = 0u64;
        for k in 0..spec.kernel_iters {
            if k > 0 {
                pool.reset();
            }
            let mut live = true;
            while live {
                live = false;
                for gpm in 0..modules {
                    if black_box(pool.next_cta(gpm)).is_some() {
                        draws += 1;
                        live = true;
                    }
                }
            }
        }
        draws
    });

    (c.l1, c.l1_flush_us) = replay_cache(&l1_config(cfg), sms, &s.l1);
    (c.l15, c.l15_flush_us) = replay_cache(&l15_config(cfg), modules, &s.l15);
    (c.l2, _) = replay_cache(&l2_config(cfg), modules, &s.l2);

    // MSHR: reserve on each read miss, release the oldest when full.
    let entries = cfg.sm.mshr_entries;
    let mut mshrs: Vec<(Mshr, std::collections::VecDeque<LineAddr>)> = (0..sms)
        .map(|_| (Mshr::new(entries), std::collections::VecDeque::new()))
        .collect();
    c.mshr = ns_per_op(|| {
        let mut updates = 0u64;
        for (i, a) in s.l15.iter().enumerate().filter(|(_, a)| !a.kind.is_write()) {
            let sm = i % sms;
            let (m, fifo) = &mut mshrs[sm];
            match m.lookup(a.line) {
                MshrLookup::InFlight(id) => {
                    black_box(id);
                }
                MshrLookup::Full | MshrLookup::CanIssue => {
                    if !m.has_free_entry() {
                        let old = fifo.pop_front().expect("a full MSHR has entries");
                        m.release(old);
                        updates += 1;
                    }
                    m.reserve(a.line, i as u64);
                    fifo.push_back(a.line);
                    updates += 1;
                }
            }
        }
        updates
    });

    let mut drams: Vec<DramPartition> = (0..modules)
        .map(|_| DramPartition::new(dram_config(cfg)))
        .collect();
    c.dram = ns_per_op(|| {
        for (i, a) in s.dram.iter().enumerate() {
            black_box(drams[a.unit].access(Cycle::new(i as u64), a.line, a.kind));
        }
        s.dram.len() as u64
    });

    let mut pages = PageMap::with_page_lines(
        cfg.placement,
        cfg.topology.modules,
        (cfg.ft_page_bytes / LINE_BYTES).max(1),
    );
    c.page = ns_per_op(|| {
        for &(module, line) in &s.page {
            black_box(pages.partition_for(line, PartitionId(module as u8)));
        }
        s.page.len() as u64
    });

    // Fabrics: every remote request's hops, request and response legs.
    let (nodes, gbps, hop) = (
        cfg.topology.modules,
        cfg.topology.link_gbps,
        Cycle::new(cfg.topology.hop_cycles),
    );
    if nodes > 1 {
        let mut ring = RingNetwork::new(nodes, gbps / 2.0, hop);
        c.ring = ns_per_op(|| {
            let mut hops = 0u64;
            for (i, &(from, to)) in s.remote.iter().enumerate() {
                for (a, b, bytes) in [(from, to, 32), (to, from, LINE_BYTES)] {
                    let (dir, n) = ring.route(NodeId(a as u8), NodeId(b as u8));
                    let mut at = NodeId(a as u8);
                    for _ in 0..n {
                        at = ring.hop(Cycle::new(i as u64), at, dir, bytes).0;
                        hops += 1;
                    }
                }
            }
            hops
        });
        let mut mesh = FullMesh::new(nodes, gbps / f64::from(nodes - 1), hop);
        c.mesh = ns_per_op(|| {
            for (i, &(from, to)) in s.remote.iter().enumerate() {
                let now = Cycle::new(i as u64);
                black_box(mesh.hop(now, NodeId(from as u8), NodeId(to as u8), 32));
                black_box(mesh.hop(now, NodeId(to as u8), NodeId(from as u8), LINE_BYTES));
            }
            2 * s.remote.len() as u64
        });
    }
    let mut xbar = Crossbar::new(
        "gpm-xbar",
        64.0 * f64::from(cfg.topology.sms_per_module),
        Cycle::new(4),
    );
    let transfers = counts.xbar_transfers.clamp(1, MAX_OPS as u64);
    c.xbar = ns_per_op(|| {
        for i in 0..transfers {
            black_box(xbar.transfer(Cycle::new(i), LINE_BYTES));
        }
        transfers
    });
    c
}

/// The pair's host time attributed layer by layer, ns, from counts ×
/// replayed costs.
fn attribution(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    n: &Counts,
    c: &Costs,
    build_ms: f64,
) -> Vec<(&'static str, f64)> {
    let fabric = if cfg.topology.network == NetworkKind::FullyConnected {
        c.mesh
    } else {
        c.ring
    };
    let draws = u64::from(spec.ctas) * u64::from(spec.kernel_iters);
    vec![
        ("core.build", build_ms * 1e6),
        ("engine.queue", n.pops as f64 * c.queue),
        ("workloads.stream", c.stream_ops as f64 * c.stream),
        ("sm.cta_pool", draws as f64 * c.cta_draw),
        ("mem.l1", n.cache[0].0 as f64 * c.l1),
        ("mem.l15", n.cache[1].0 as f64 * c.l15),
        ("mem.l2", n.cache[2].0 as f64 * c.l2),
        (
            "mem.flush",
            n.kernels as f64 * (c.l1_flush_us + c.l15_flush_us) * 1e3,
        ),
        ("mem.mshr", n.mshr_updates as f64 * c.mshr),
        ("mem.dram", n.dram_accesses as f64 * c.dram),
        ("mem.page", n.req_issued as f64 * c.page),
        ("interconnect.link", n.link_transfers as f64 * fabric),
        ("interconnect.xbar", n.xbar_transfers as f64 * c.xbar),
    ]
}

fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Exec, store, memo, figures and serve replays over a small slice of
/// the run's pairs, for the layers the workload itself did not
/// exercise.
fn service_replays(
    ctx: &Ctx<'_>,
    slice: &[Pair],
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let scale = ctx.size.scale;
    let mut m = BTreeMap::new();
    let grid: Vec<(SystemConfig, WorkloadSpec)> =
        slice.iter().map(|p| (p.config(), p.spec())).collect();
    let refs = refs(&grid);
    let dir = TempDir::new(ctx.tmp, "layers");

    // Cold grid at two jobs: exec and store writes.
    let before = mcm_telemetry::global().snapshot();
    let t = Instant::now();
    let mut memo = Memo::with_store(scale, Store::open(dir.path()).expect("open replay store"));
    ctx.tracer.span("bench.memo.warm_with_jobs", None, 0, |_| {
        memo.warm_with_jobs(JOBS, &refs);
    });
    let stats = memo.stats();
    drop(memo);
    let wall_s = t.elapsed().as_secs_f64();
    let d = mcm_telemetry::global().snapshot().delta_since(&before);
    let (busy, idle) = (counter(&d, "exec.busy_ns"), counter(&d, "exec.idle_ns"));
    m.insert("exec.tasks", counter(&d, "exec.tasks") as f64);
    m.insert("exec.utilization", ratio(busy, busy + idle));
    m.insert("exec.idle_ns", idle as f64);
    m.insert("exec.steals", counter(&d, "exec.steals") as f64);
    m.insert("exec.tail_s", wall_s - busy as f64 / 1e9 / JOBS as f64);
    m.insert("store.puts", counter(&d, "store.puts") as f64);
    m.insert("store.quarantined", counter(&d, "store.quarantined") as f64);
    m.insert("store.bytes_on_disk", dir_bytes(dir.path()) as f64);
    m.insert(
        "memo.dedupe_ratio",
        ratio(stats.warm_deduped, stats.warm_requested),
    );

    // Store open and reads.
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let s = ctx.tracer.span("store.open", None, 0, |_| {
                Store::open(dir.path()).expect("reopen")
            });
            let ms = ms_since(t);
            drop(s);
            ms
        })
        .collect();
    m.insert("store.open_ms", median(&opens));
    let store = Store::open(dir.path()).expect("reopen replay store");
    let mut gets = Vec::new();
    for (cfg, spec) in &grid {
        let fp = pair_fingerprint(scale, cfg, spec);
        for _ in 0..20 {
            let t = Instant::now();
            let hit = black_box(store.get(fp, spec.name));
            gets.push(t.elapsed().as_secs_f64() * 1e6);
            if hit.is_none() {
                out.fail(format!(
                    "({}, {}): stored pair missing",
                    cfg.name, spec.name
                ));
            }
        }
    }
    m.insert("store.get_us_p50", median(&gets));

    // A fully warm memo, and rendering.
    let mut memo = Memo::with_store(scale, store);
    let t = Instant::now();
    memo.warm_with_jobs(JOBS, &refs);
    m.insert("memo.warm_ms", ms_since(t));
    m.insert("memo.store_hits", memo.stats().store_hits as f64);
    let t = Instant::now();
    black_box(render(&mut memo, &grid));
    m.insert("figures.render_ms", ms_since(t));
    let report = memo.run(&grid[0].0, &grid[0].1);
    drop(memo);

    // The daemon over the same store: one client, every pair once.
    let backend = Arc::new(MemoBackend::new(
        scale,
        Some(Store::open(dir.path()).expect("reopen replay store")),
    ));
    let opts = ServeOptions {
        workers: JOBS,
        queue_capacity: 64,
    };
    let service = SweepService::start("127.0.0.1:0", backend, opts).expect("bind replay daemon");
    let mut client = Client::connect(service.local_addr());
    let mut acks = Vec::new();
    for (i, p) in slice.iter().enumerate() {
        let req = inputs::SweepRequest {
            preset: p.preset,
            workloads: vec![p.workload],
        };
        let served = client.request(i as u64, &req);
        if let Some(e) = served.error {
            out.fail(format!("replay request {req:?}: {e}"));
        }
        acks.extend(served.ack_us);
    }
    drop(client);
    let s = service.stats();
    drop(service);
    m.insert("serve.requests", s.requests as f64);
    m.insert("serve.hits", s.hits as f64);
    m.insert("serve.misses", s.misses as f64);
    m.insert("serve.inflight_dedups", s.inflight_dedups as f64);
    m.insert("serve.rejections", s.rejections as f64);
    let pairs = s.hits + s.misses + s.inflight_dedups;
    m.insert(
        "serve.no_sim_ratio",
        ratio(s.hits + s.inflight_dedups, pairs),
    );
    m.insert("serve.ack_us_p50", median(&acks));

    // Protocol: request parsing and report rendering alone.
    let line = Request::Sweep {
        id: 7,
        configs: vec!["baseline".into(), "l15-ds".into()],
        workloads: slice.iter().map(|p| p.workload.to_string()).collect(),
    }
    .render();
    m.insert(
        "serve.protocol.parse_ns",
        ns_per_op(|| {
            for _ in 0..10_000 {
                black_box(Request::parse(black_box(&line)).is_ok());
            }
            10_000
        }),
    );
    m.insert(
        "serve.protocol.render_report_us",
        ns_per_op(|| {
            for _ in 0..1_000 {
                black_box(render_report(black_box(&report)));
            }
            1_000
        }) / 1e3,
    );
    m
}

/// Runs the traced pass and returns every [`PER_LAYER`] metric.
pub fn layer_pass(ctx: &Ctx<'_>, out: &mut Outcome) -> Vec<Metric> {
    let scale = ctx.size.scale;
    let workload = inputs::traced_workload(&out.inputs);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let builds: Vec<f64> = PRESETS
        .iter()
        .map(|p| {
            let cfg = inputs::config(p);
            let spec = build_only_spec();
            timed(|| Simulator::run(&cfg, &spec)).0
        })
        .collect();
    for (name, ms) in [
        "core.build_ms.baseline",
        "core.build_ms.l15-ds",
        "core.build_ms.optimized",
        "core.build_ms.opt-fc",
    ]
    .into_iter()
    .zip(&builds)
    {
        m.insert(name, *ms);
    }

    let mut reported = None;
    for (i, preset) in ["baseline", "l15-ds"].into_iter().enumerate() {
        let pair = Pair { preset, workload };
        let traced = trace_pair(ctx, pair, 1_000_000 + i as u64, out);
        let (cfg, spec) = (pair.config(), pair.spec().scaled(scale));
        let costs = replay(&cfg, &spec, &traced.counts);
        let parts = attribution(&cfg, &spec, &traced.counts, &costs, builds[i]);
        let covered: f64 = parts.iter().map(|(_, ns)| ns).sum();
        let wall_ns = traced.wall_ms * 1e6;
        println!(
            "perfbench: where the time goes, ({preset}, {workload}): {:.2} ms untraced, {:.2} ms traced",
            traced.wall_ms, traced.traced_ms
        );
        for (layer, ns) in &parts {
            println!(
                "  {layer:<20} {:>10.3} ms  {:>6.1}%",
                ns / 1e6,
                100.0 * ns / wall_ns
            );
        }
        println!(
            "  {:<20} {:>10.3} ms  {:>6.1}%",
            "glue (unattributed)",
            (wall_ns - covered) / 1e6,
            100.0 * (1.0 - covered / wall_ns)
        );
        m.insert(
            if preset == "baseline" {
                "core.pair_ms.baseline"
            } else {
                "core.pair_ms.l15-ds"
            },
            traced.wall_ms,
        );
        reported = Some((traced, costs, covered / wall_ns));
    }
    let (t, c, coverage) = reported.expect("the l15-ds pair is traced last");
    let n = &t.counts;
    for (name, v) in [
        ("engine.queue.pops", n.pops as f64),
        ("engine.queue.depth_p50", n.depth_p50() as f64),
        ("engine.queue.ns_per_op", c.queue),
        ("workloads.stream.ops", c.stream_ops as f64),
        ("workloads.stream.ns_per_op", c.stream),
        ("sm.warps_spawned", n.warps_spawned as f64),
        ("sm.warp_phase_changes", n.phase_changes as f64),
        ("sm.cta_pool.ns_per_draw", c.cta_draw),
        ("mem.l1.accesses", n.cache[0].0 as f64),
        ("mem.l15.accesses", n.cache[1].0 as f64),
        ("mem.l2.accesses", n.cache[2].0 as f64),
        ("mem.l1.hit_rate", ratio(n.cache[0].1, n.cache[0].0)),
        ("mem.l15.hit_rate", ratio(n.cache[1].1, n.cache[1].0)),
        ("mem.l2.hit_rate", ratio(n.cache[2].1, n.cache[2].0)),
        ("mem.mshr.updates", n.mshr_updates as f64),
        ("mem.dram.accesses", n.dram_accesses as f64),
        ("mem.dram.bytes", n.dram_bytes as f64),
        ("mem.cache.l1.ns_per_access", c.l1),
        ("mem.cache.l15.ns_per_access", c.l15),
        ("mem.cache.l2.ns_per_access", c.l2),
        ("mem.cache.l1.flush_us", c.l1_flush_us),
        ("mem.cache.l15.flush_us", c.l15_flush_us),
        ("mem.mshr.ns_per_op", c.mshr),
        ("mem.dram.ns_per_access", c.dram),
        ("mem.page.ns_per_lookup", c.page),
        ("interconnect.link.transfers", n.link_transfers as f64),
        ("interconnect.link.bytes", n.link_bytes as f64),
        ("interconnect.xbar.transfers", n.xbar_transfers as f64),
        ("interconnect.ring.ns_per_hop", c.ring),
        ("interconnect.mesh.ns_per_hop", c.mesh),
        ("interconnect.xbar.ns_per_transfer", c.xbar),
        ("core.req.issued", n.req_issued as f64),
        ("core.req.stage.access", n.stage_access as f64),
        ("core.req.stage.to_home", n.stage_to_home as f64),
        ("core.req.stage.mem", n.stage_mem as f64),
        ("core.req.stage.to_requester", n.stage_to_requester as f64),
        ("core.coverage", coverage),
        ("core.glue_frac", 1.0 - coverage),
        ("trace.overhead_frac", t.traced_ms / t.wall_ms - 1.0),
    ] {
        m.insert(name, v);
    }

    // A slice of the run's own pairs: the traced workload on two
    // presets, two more inputs, and one duplicate.
    let mut slice = vec![
        Pair {
            preset: "baseline",
            workload,
        },
        Pair {
            preset: "l15-ds",
            workload,
        },
    ];
    for p in &out.inputs {
        if slice.len() >= 4 {
            break;
        }
        if !slice.contains(p) {
            slice.push(*p);
        }
    }
    slice.push(slice[0]);
    m.extend(service_replays(ctx, &slice, out));

    let t = tail(&out.latencies());
    m.insert("bench.tail_percentile", t.percentile * 100.0);
    m.insert("bench.op_samples", t.samples as f64);
    m.insert("bench.digest_pairs", out.digest.len() as f64);

    // What the workload measured where the work happened wins over a
    // replay of it.
    for metric in &out.layers {
        if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric.name) {
            m.insert(name, metric.value);
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            Metric::new(
                name,
                unit,
                *m.get(name)
                    .unwrap_or_else(|| panic!("layer metric {name} not measured")),
            )
        })
        .collect()
}

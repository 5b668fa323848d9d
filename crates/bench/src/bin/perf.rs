//! The pinned performance-trajectory suite: a micro + macro benchmark
//! set emitting a schema-versioned, machine-readable `BENCH_*.json`
//! snapshot, plus a comparator mode that diffs two snapshots and fails
//! on regressions.
//!
//! ```text
//! perf [--smoke] [--label L] [--out PATH]      run the suite
//! perf --compare OLD NEW [--threshold FRAC]    diff two snapshots
//! ```
//!
//! The suite is deliberately pinned: workload scale, op counts, and
//! repetition counts are hard-coded per mode (`--smoke` shrinks them
//! for CI), and the simulator is driven directly — `MCM_SCALE`,
//! `MCM_TRACE`, and `MCM_METRICS` are ignored so two snapshots from the
//! same binary always measured the same work.
//!
//! Every entry records wall times as integer nanoseconds (never NaN,
//! never negative); macro entries also record simulated cycle counts,
//! which the comparator checks for *equality* — a cycle drift between
//! two snapshots of the same mode is a determinism bug, not a
//! performance change. Wall-clock numbers live in the volatile part of
//! the document by construction; the run also embeds a delta of the
//! process's telemetry registry, whose sections are already classed.
//!
//! Exit codes: 0 success, 1 regression/determinism mismatch found by
//! `--compare`, 2 usage error.

use std::path::PathBuf;
use std::time::Instant;

use mcm_bench::harness;
use mcm_engine::rng::Xoshiro256;
use mcm_engine::{Cycle, EventQueue};
use mcm_gpu::{McmSystem, Simulator, SystemConfig};
use mcm_mem::addr::{LineAddr, Locality};
use mcm_mem::mshr::{Mshr, MshrLookup};
use mcm_store::Store;
use mcm_telemetry::json::{push_escaped, push_f64, Json};
use mcm_workloads::{suite, StreamPlan, WarpOp, WarpStream, WorkloadSpec};

/// Schema tag stamped into every snapshot this binary writes.
const SCHEMA: &str = "mcm-bench-v1";

/// One benchmark entry: repeated wall timings plus optional
/// work-descriptor fields.
struct Entry {
    name: &'static str,
    wall_ns_median: u64,
    wall_ns_min: u64,
    reps: u32,
    /// Operations per rep (micro entries).
    ops: Option<u64>,
    /// Simulated cycles (macro entries; must be identical across hosts
    /// and snapshots of the same mode).
    cycles: Option<u64>,
}

/// The pinned suite parameters for one mode.
struct Mode {
    smoke: bool,
    scale: f64,
    queue_ops: u64,
    reps: u32,
}

impl Mode {
    fn new(smoke: bool) -> Self {
        if smoke {
            Mode {
                smoke,
                scale: 0.01,
                queue_ops: 20_000,
                reps: 3,
            }
        } else {
            Mode {
                smoke,
                scale: 0.05,
                queue_ops: 200_000,
                reps: 5,
            }
        }
    }
}

/// Times `mode.reps` calls of `f` as entry `name`, doing `ops`
/// operations per rep. Median and min wall nanoseconds are both clamped
/// to >= 1, so ratios never divide by zero.
fn timed<F: FnMut()>(name: &'static str, mode: &Mode, ops: Option<u64>, mut f: F) -> Entry {
    let mut ns: Vec<u64> = (0..mode.reps)
        .map(|_| {
            let t = Instant::now();
            f();
            (t.elapsed().as_nanos() as u64).max(1)
        })
        .collect();
    ns.sort_unstable();
    Entry {
        name,
        wall_ns_median: ns[ns.len() / 2],
        wall_ns_min: ns[0],
        reps: mode.reps,
        ops,
        cycles: None,
    }
}

/// Micro: the steady-state event-queue hold pattern for a fixed op
/// count — the simulator's hottest loop. 256 events stay in flight; each
/// pop pushes its event back `latency` cycles later. The initial fill
/// lands one cycle before a drawn latency.
fn micro_queue_hold(
    name: &'static str,
    seed: u64,
    mut latency: impl FnMut(&mut Xoshiro256) -> u64,
    mode: &Mode,
) -> Entry {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(512);
    let mut rng = Xoshiro256::new(seed);
    let now = q.now();
    for i in 0..256u64 {
        q.push(now + Cycle::new(latency(&mut rng) - 1), i, i);
    }
    let mut hold = |ops: u64| {
        let mut acc = 0u64;
        for _ in 0..ops {
            let (t, v) = q.pop().expect("queue is held non-empty");
            q.push(t + Cycle::new(latency(&mut rng)), v, v);
            acc = acc.wrapping_add(t.as_u64());
        }
        std::hint::black_box(acc)
    };
    hold(mode.queue_ops / 10); // warm
    timed(name, mode, Some(mode.queue_ops), || {
        hold(mode.queue_ops);
    })
}

/// Warps in one launch of the burst micros: 1024 CTAs of 8.
const LAUNCH_WARPS: u64 = 8192;

/// The keys of one distributed-scheduler launch in the order DS
/// admission visits them: SMs module-interleaved, each module drawing
/// CTAs from its own contiguous chunk, so consecutive keys jump between
/// chunks.
fn ds_launch_keys() -> Vec<u64> {
    const MODULES: u64 = 4;
    const WARPS_PER_CTA: u64 = 8;
    let chunk = LAUNCH_WARPS / WARPS_PER_CTA / MODULES;
    (0..chunk)
        .flat_map(|round| (0..MODULES).map(move |m| m * chunk + round))
        .flat_map(|cta| (0..WARPS_PER_CTA).map(move |w| cta * WARPS_PER_CTA + w))
        .collect()
}

/// Micro: one launch's placement burst — `keys` pushed at one timestamp
/// in the given order, then drained. The hold micros keep buckets
/// sparse, so their pushes stay on the O(1) list paths; a burst in DS
/// admission order drives the queue's out-of-order path at launch
/// scale, and one in ascending key order is a centralized-scheduler
/// launch (admission pushes each CTA's warps in CTA order).
fn micro_queue_same_cycle_burst(name: &'static str, keys: &[u64], mode: &Mode) -> Entry {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(keys.len());
    let mut burst = || {
        let at = q.now() + Cycle::new(1);
        for &key in keys {
            q.push(at, key, key);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        std::hint::black_box(acc)
    };
    burst(); // warm
    timed(name, mode, Some(keys.len() as u64), || {
        burst();
    })
}

/// Micro: the stream side of one distributed-scheduler launch — 8192
/// warps (1024 CTAs of 8) in the order DS admission visits them, each
/// building its cursor from the launch's plan and drawing its first
/// op, as the run loop does when it admits a warp and first steps it.
/// At the scales perfbench runs, an M/C warp executes only one or two
/// instructions, so this setup is a large share of a launch.
fn micro_warp_launch(mode: &Mode) -> Entry {
    const LAUNCHES: u64 = 10;
    const MODULES: u32 = 4;
    let mut spec = WorkloadSpec::template("warp-launch");
    spec.ctas = 1024;
    spec.warps_per_cta = 8;
    spec.insts_per_warp = 2;
    let chunk = spec.ctas / MODULES;
    let order: Vec<u32> = (0..chunk)
        .flat_map(|round| (0..MODULES).map(move |m| m * chunk + round))
        .collect();
    let launches = || {
        let mut acc = 0u64;
        for kernel in 0..LAUNCHES as u32 {
            let plan = StreamPlan::new(&spec, kernel);
            for &cta in &order {
                for warp in 0..spec.warps_per_cta {
                    let mut cursor = plan.cursor(cta, warp);
                    acc = acc.wrapping_add(match cursor.next_op(&plan) {
                        Some(WarpOp::Compute(n)) => u64::from(n),
                        Some(WarpOp::Access { addr, .. }) => addr.line().index(),
                        None => 0,
                    });
                    std::hint::black_box(&cursor);
                }
            }
        }
        std::hint::black_box(acc)
    };
    launches(); // warm
    let ops = LAUNCHES * u64::from(spec.ctas * spec.warps_per_cta);
    timed("micro.warp_launch", mode, Some(ops), || {
        launches();
    })
}

/// Micro: one SM's 64-entry MSHR table through full cycles of its
/// lifecycle. Each round fills it with misses on 64 distinct lines
/// (`lookup` then `reserve`), coalesces one more miss onto every entry,
/// stalls one miss on the full table, and releases the entries in a
/// scrambled order. `ops` counts entries, so ns/op is one entry's whole
/// life: two lookups, a reserve and a release. A full table is the
/// linear scan's worst case; the run loop's tables hold far fewer live
/// entries on most workloads (EXPERIMENTS.md, "Where the time goes:
/// per-event cost").
fn micro_mshr_churn(mode: &Mode) -> Entry {
    const ENTRIES: u64 = 64;
    let mut mshr = Mshr::new(ENTRIES as usize);
    let mut rng = Xoshiro256::new(0x3542);
    let rounds = mode.queue_ops / ENTRIES;
    let mut churn = |rounds: u64| {
        let mut acc = 0u64;
        for _ in 0..rounds {
            let base = rng.next_range(1 << 30);
            let line = |i: u64| LineAddr::new(base + 7 * i);
            for i in 0..ENTRIES {
                assert_eq!(mshr.lookup(line(i)), MshrLookup::CanIssue);
                mshr.reserve(line(i), i);
            }
            for i in 0..ENTRIES {
                if let MshrLookup::InFlight(id) = mshr.lookup(line(i)) {
                    acc = acc.wrapping_add(id);
                }
            }
            assert_eq!(mshr.lookup(line(ENTRIES)), MshrLookup::Full);
            // 37 is odd, so `37 i mod 64` visits every entry once.
            for i in 0..ENTRIES {
                let id = mshr.release(line(i * 37 % ENTRIES));
                acc = acc.wrapping_add(id.expect("reserved this round"));
            }
        }
        std::hint::black_box(acc)
    };
    churn(rounds / 10); // warm
    timed("micro.mshr_churn", mode, Some(rounds * ENTRIES), || {
        churn(rounds);
    })
}

/// Micro: persistent-store hit latency — a warm index lookup plus a
/// bit-exact report clone, the per-pair cost a warm-started sweep pays
/// instead of a simulation. Uses a throwaway temp-dir store seeded
/// with a pinned record set.
fn micro_store_hit(mode: &Mode) -> Entry {
    let dir = std::env::temp_dir().join(format!("mcm-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open perf store in temp dir");
    let spec = suite::by_name("Stream")
        .expect("Stream workload in suite")
        .scaled(0.01);
    let report = Simulator::run(&SystemConfig::baseline_mcm(), &spec);
    const RECORDS: u64 = 64;
    for fp in 0..RECORDS {
        store.put(fp, "Stream", &report);
    }
    let ops = mode.queue_ops / 10;
    let mut rng = Xoshiro256::new(0x5709E);
    let entry = timed("micro.store_hit", mode, Some(ops), || {
        let mut acc = 0u64;
        for _ in 0..ops {
            let r = store
                .get(rng.next_range(RECORDS), "Stream")
                .expect("seeded store hit");
            acc = acc.wrapping_add(r.cycles.as_u64());
        }
        std::hint::black_box(acc);
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    entry
}

/// Micro: one analytical fast-path prediction — the per-point price the
/// design-space planner pays instead of a full simulation. The macro
/// entries below time that simulation on the *same* pinned pair at the
/// *same* scale, so `analytic.speedup_vs_sim` is an apples-to-apples
/// per-point ratio.
fn micro_analytic_point(mode: &Mode) -> Entry {
    let cfg = SystemConfig::baseline_mcm();
    let descriptor = suite::by_name("Stream")
        .expect("Stream workload in suite")
        .scaled(mode.scale)
        .descriptor();
    let model = mcm_gpu::AnalyticModel::uncalibrated();
    let ops = mode.queue_ops / 10;
    let score = |ops: u64| {
        let mut acc = 0.0f64;
        for _ in 0..ops {
            acc += model.predict_descriptor(&cfg, &descriptor).ipc;
        }
        std::hint::black_box(acc)
    };
    score(ops / 10); // warm
    timed("micro.analytic_point", mode, Some(ops), || {
        score(ops);
    })
}

/// Micro: building and dropping one whole machine — the fixed cost
/// every simulation pays before its first event, dominated by cache tag
/// state.
fn micro_machine_build(name: &'static str, cfg: &SystemConfig, mode: &Mode) -> Entry {
    const BUILDS: u64 = 20;
    let build = || {
        for _ in 0..BUILDS {
            drop(std::hint::black_box(McmSystem::new(cfg)));
        }
    };
    build(); // warm
    timed(name, mode, Some(BUILDS), build)
}

/// Fills `sys`'s L1s and remote-only L1.5s with the lines kernel 0 of
/// `spec` touches, as a run leaves them at its first kernel boundary
/// (CTAs dealt round-robin over the SMs).
fn warm_private_caches(sys: &mut McmSystem, spec: &WorkloadSpec) {
    for cta in 0..spec.ctas {
        let sm = cta as usize % sys.total_sms();
        let module = sys.module_of(sm);
        for warp in 0..spec.warps_per_cta {
            for op in WarpStream::new(spec, 0, cta, warp) {
                if let WarpOp::Access { addr, .. } = op {
                    sys.l1_fill(sm, addr.line(), Cycle::ZERO);
                    if sys.home_of(addr.line(), module).1 == Locality::Remote {
                        sys.l15_fill(module, addr.line(), Cycle::ZERO);
                    }
                }
            }
        }
    }
}

/// Micro: one kernel-boundary flush (`flush_private_caches`) of the
/// `l15-ds` machine — 256 L1s, four 4 MB L1.5s and the MSHRs — each
/// rep on a machine re-warmed, untimed, with one kernel of the pinned
/// workload.
fn micro_kernel_flush(mode: &Mode) -> Entry {
    let spec = suite::by_name("Stream")
        .expect("Stream workload in suite")
        .scaled(mode.scale);
    let mut sys = McmSystem::new(&SystemConfig::mcm_l15_ds());
    let mut ns: Vec<u64> = (0..=mode.reps)
        .map(|_| {
            warm_private_caches(&mut sys, &spec);
            let t = Instant::now();
            sys.flush_private_caches();
            (t.elapsed().as_nanos() as u64).max(1)
        })
        .skip(1) // the first flush warms the flush path itself
        .collect();
    ns.sort_unstable();
    Entry {
        name: "micro.kernel_flush",
        wall_ns_median: ns[ns.len() / 2],
        wall_ns_min: ns[0],
        reps: mode.reps,
        ops: None,
        cycles: None,
    }
}

/// A `SystemConfig` preset constructor.
type Preset = fn() -> SystemConfig;

/// The macro entries, `(name, preset, workload)`: the Fig. 9 pair on
/// the pinned workload, then one pair per further preset and workload
/// class, so each category (memory-intensive Stream and CFD,
/// compute-intensive Hotspot, limited-parallelism DWT) and each machine
/// shape (an MCM-GPU, a monolithic die, a two-GPU board) is timed
/// whole.
const MACROS: [(&str, Preset, &str); 7] = [
    (
        "macro.fig09_pair_base",
        SystemConfig::baseline_mcm,
        "Stream",
    ),
    ("macro.fig09_pair_ds", SystemConfig::mcm_l15_ds, "Stream"),
    (
        "macro.optimized_stream",
        SystemConfig::optimized_mcm,
        "Stream",
    ),
    (
        "macro.baseline_hotspot",
        SystemConfig::baseline_mcm,
        "Hotspot",
    ),
    ("macro.baseline_dwt", SystemConfig::baseline_mcm, "DWT"),
    (
        "macro.monolithic256_cfd",
        SystemConfig::hypothetical_monolithic_256,
        "CFD",
    ),
    (
        "macro.multi_gpu_cfd",
        SystemConfig::multi_gpu_baseline,
        "CFD",
    ),
];

/// Macro: one full serial simulation of `cfg` on `workload`.
fn macro_run(name: &'static str, cfg: &SystemConfig, workload: &str, mode: &Mode) -> Entry {
    let spec = suite::by_name(workload)
        .expect("macro workload in suite")
        .scaled(mode.scale);
    let cycles = Simulator::run(cfg, &spec).cycles.as_u64(); // warm
    let entry = timed(name, mode, None, || {
        let r = Simulator::run(cfg, &spec);
        assert_eq!(r.cycles.as_u64(), cycles, "{name}: nondeterministic rerun");
    });
    Entry {
        cycles: Some(cycles),
        ..entry
    }
}

fn push_u64(out: &mut String, v: u64) {
    push_f64(out, v as f64);
}

/// Renders the whole snapshot document.
fn render_json(
    label: &str,
    mode: &Mode,
    entries: &[Entry],
    ratios: &[(&str, f64)],
    telemetry_json: &str,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::with_capacity(2048);
    out.push('{');
    push_escaped(&mut out, "schema");
    out.push(':');
    push_escaped(&mut out, SCHEMA);
    out.push(',');
    push_escaped(&mut out, "label");
    out.push(':');
    push_escaped(&mut out, label);
    out.push(',');
    push_escaped(&mut out, "smoke");
    out.push_str(if mode.smoke { ":true," } else { ":false," });
    push_escaped(&mut out, "scale");
    out.push(':');
    push_f64(&mut out, mode.scale);
    out.push(',');
    push_escaped(&mut out, "host");
    out.push_str(":{");
    push_escaped(&mut out, "os");
    out.push(':');
    push_escaped(&mut out, std::env::consts::OS);
    out.push(',');
    push_escaped(&mut out, "arch");
    out.push(':');
    push_escaped(&mut out, std::env::consts::ARCH);
    out.push(',');
    push_escaped(&mut out, "cores");
    out.push(':');
    push_u64(&mut out, cores as u64);
    out.push_str("},");
    push_escaped(&mut out, "caveats");
    out.push_str(":[");
    let mut caveats: Vec<String> = Vec::new();
    if mode.smoke {
        caveats.push("smoke mode: tiny pinned scale, numbers are shape checks only".to_string());
    }
    for (i, c) in caveats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, c);
    }
    out.push_str("],");
    push_escaped(&mut out, "entries");
    out.push_str(":{");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, e.name);
        out.push_str(":{");
        push_escaped(&mut out, "wall_ns_median");
        out.push(':');
        push_u64(&mut out, e.wall_ns_median);
        out.push(',');
        push_escaped(&mut out, "wall_ns_min");
        out.push(':');
        push_u64(&mut out, e.wall_ns_min);
        out.push(',');
        push_escaped(&mut out, "reps");
        out.push(':');
        push_u64(&mut out, u64::from(e.reps));
        if let Some(ops) = e.ops {
            out.push(',');
            push_escaped(&mut out, "ops");
            out.push(':');
            push_u64(&mut out, ops);
        }
        if let Some(cycles) = e.cycles {
            out.push(',');
            push_escaped(&mut out, "cycles");
            out.push(':');
            push_u64(&mut out, cycles);
        }
        out.push('}');
    }
    out.push_str("},");
    push_escaped(&mut out, "ratios");
    out.push_str(":{");
    for (i, (name, v)) in ratios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, name);
        out.push(':');
        push_f64(&mut out, *v);
    }
    out.push_str("},");
    push_escaped(&mut out, "telemetry");
    out.push(':');
    out.push_str(telemetry_json);
    out.push('}');
    out
}

fn run_suite(label: &str, mode: &Mode, out_path: &PathBuf) {
    println!(
        "perf: running pinned suite (label {label:?}, smoke: {})",
        mode.smoke
    );
    let before = mcm_telemetry::global().snapshot();
    // Entries run in the order they joined the suite, so a new one goes
    // last, in the macro table too: `micro.machine_build.*` reads the
    // heap state the entries before it leave behind, and an entry
    // inserted earlier would move its numbers between snapshots.
    let mut entries = vec![
        micro_queue_hold(
            "micro.queue_hold256",
            0xBE7C,
            |rng| 1 + rng.next_range(900),
            mode,
        ),
        micro_queue_same_cycle_burst("micro.queue_same_cycle_burst", &ds_launch_keys(), mode),
        micro_warp_launch(mode),
        micro_mshr_churn(mode),
        micro_store_hit(mode),
        micro_analytic_point(mode),
        micro_machine_build(
            "micro.machine_build.baseline",
            &SystemConfig::baseline_mcm(),
            mode,
        ),
        micro_machine_build(
            "micro.machine_build.l15-ds",
            &SystemConfig::mcm_l15_ds(),
            mode,
        ),
        micro_kernel_flush(mode),
    ];
    entries.extend(
        MACROS
            .iter()
            .map(|&(name, preset, workload)| macro_run(name, &preset(), workload, mode)),
    );
    entries.extend([
        micro_queue_hold(
            "micro.queue_hold256_far",
            0xFA2F,
            |rng| 2000 + rng.next_range(50_000),
            mode,
        ),
        micro_queue_hold(
            "micro.queue_hold256_mixed",
            0x517E,
            |rng| {
                if rng.chance(0.05) {
                    1500 + rng.next_range(3000)
                } else {
                    1 + rng.next_range(64)
                }
            },
            mode,
        ),
        micro_queue_same_cycle_burst(
            "micro.queue_burst_key_order",
            &(0..LAUNCH_WARPS).collect::<Vec<_>>(),
            mode,
        ),
    ]);
    let telemetry = mcm_telemetry::global()
        .snapshot()
        .delta_since(&before)
        .to_json(label);

    let wall = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.wall_ns_median as f64)
            .expect("suite entry present")
    };
    let cyc = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.cycles)
            .expect("suite entry has cycles") as f64
    };
    let ops = |name: &str| {
        entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.ops)
            .expect("suite entry has ops") as f64
    };
    let ratios = [
        (
            // Per-point analytic-vs-simulated speedup on the same
            // (config, workload, scale): how much cheaper the planner's
            // scoring pass is than the simulation it avoids.
            "analytic.speedup_vs_sim",
            wall("macro.fig09_pair_base")
                / (wall("micro.analytic_point") / ops("micro.analytic_point")),
        ),
        (
            "macro.ds_over_base_cycles",
            cyc("macro.fig09_pair_ds") / cyc("macro.fig09_pair_base"),
        ),
        (
            // Host cost of the distributed-scheduler pair per unit of
            // the baseline's; next to the cycle ratio it shows whether
            // the DS pair pays for more than its extra simulated work.
            "macro.ds_over_base_wall",
            wall("macro.fig09_pair_ds") / wall("macro.fig09_pair_base"),
        ),
    ];

    for e in &entries {
        println!(
            "  {:<28} median {:>12} ns  min {:>12} ns{}",
            e.name,
            e.wall_ns_median,
            e.wall_ns_min,
            e.cycles.map_or(String::new(), |c| format!("  cycles {c}")),
        );
    }
    for (name, v) in &ratios {
        println!("  {name:<28} {v:.3}");
    }

    let doc = render_json(label, mode, &entries, &ratios, &telemetry);
    // Round-trip through the in-repo reader before writing: a snapshot
    // the comparator cannot parse is worse than no snapshot.
    Json::parse(&doc).expect("perf snapshot must be valid JSON");
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create snapshot directory");
        }
    }
    std::fs::write(out_path, &doc).expect("write BENCH snapshot");
    println!("perf: wrote {}", out_path.display());
}

/// Loads and structurally validates one snapshot.
fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| fail_usage(&format!("{path} is not valid JSON: {e}")));
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => doc,
        Some(s) => fail_usage(&format!("{path} has schema {s:?}, expected {SCHEMA:?}")),
        None => fail_usage(&format!("{path} has no schema tag")),
    }
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--smoke] [--label L] [--out PATH]\n       perf --compare OLD NEW [--threshold FRAC]"
    );
    std::process::exit(2);
}

fn compare(old_path: &str, new_path: &str, threshold: f64) -> i32 {
    let old = load(old_path);
    let new = load(new_path);
    if old.get("smoke") != new.get("smoke") || old.get("scale") != new.get("scale") {
        fail_usage(&format!(
            "{old_path} and {new_path} were produced at different modes/scales; \
             their numbers are not comparable"
        ));
    }
    let old_entries = old
        .get("entries")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| fail_usage(&format!("{old_path} has no entries object")));
    let new_entries = new
        .get("entries")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| fail_usage(&format!("{new_path} has no entries object")));

    let mut failures = 0u32;
    println!(
        "{:<28} {:>14} {:>14} {:>8}  verdict (threshold {:.0}%)",
        "entry",
        "old median ns",
        "new median ns",
        "ratio",
        threshold * 100.0
    );
    for (name, old_e) in old_entries {
        let Some(new_e) = new_entries.get(name) else {
            println!(
                "{name:<28} {:>14} {:>14} {:>8}  MISSING in new snapshot",
                "-", "-", "-"
            );
            failures += 1;
            continue;
        };
        let (Some(a), Some(b)) = (
            old_e.get("wall_ns_median").and_then(Json::as_u64),
            new_e.get("wall_ns_median").and_then(Json::as_u64),
        ) else {
            println!("{name:<28} malformed wall_ns_median");
            failures += 1;
            continue;
        };
        let ratio = b as f64 / (a.max(1)) as f64;
        let verdict = if ratio > 1.0 + threshold {
            failures += 1;
            "REGRESSION"
        } else if ratio < 1.0 - threshold {
            "improved"
        } else {
            "ok"
        };
        println!("{name:<28} {a:>14} {b:>14} {ratio:>8.3}  {verdict}");
        // Simulated work must be *identical*, not merely close.
        let (oc, nc) = (
            old_e.get("cycles").and_then(Json::as_u64),
            new_e.get("cycles").and_then(Json::as_u64),
        );
        if let (Some(oc), Some(nc)) = (oc, nc) {
            if oc != nc {
                println!("{name:<28} cycle count changed: {oc} -> {nc}  DETERMINISM MISMATCH");
                failures += 1;
            }
        }
    }
    // Entries the old snapshot predates have no baseline: show them,
    // but they cannot regress.
    for (name, new_e) in new_entries {
        if !old_entries.contains_key(name) {
            let b = new_e.get("wall_ns_median").and_then(Json::as_u64);
            println!(
                "{name:<28} {:>14} {:>14} {:>8}  NEW",
                "-",
                b.map_or("-".to_string(), |b| b.to_string()),
                "-"
            );
        }
    }
    if failures > 0 {
        println!("\nperf: {failures} regression(s)/mismatch(es) beyond the threshold");
        1
    } else {
        println!("\nperf: no regressions beyond the threshold");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut label = "local".to_string();
    let mut out: Option<PathBuf> = None;
    let mut compare_paths: Option<(String, String)> = None;
    let mut threshold = 0.25f64;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--label" => {
                label = it
                    .next()
                    .unwrap_or_else(|| fail_usage("--label needs a value"));
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| fail_usage("--out needs a value")),
                ));
            }
            "--compare" => {
                let a = it
                    .next()
                    .unwrap_or_else(|| fail_usage("--compare needs OLD NEW"));
                let b = it
                    .next()
                    .unwrap_or_else(|| fail_usage("--compare needs OLD NEW"));
                compare_paths = Some((a, b));
            }
            "--threshold" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| fail_usage("--threshold needs a value"));
                threshold = raw
                    .parse()
                    .unwrap_or_else(|_| fail_usage(&format!("bad threshold {raw:?}")));
                if !threshold.is_finite() || threshold <= 0.0 {
                    fail_usage(&format!("threshold must be a positive fraction, got {raw}"));
                }
            }
            other => fail_usage(&format!("unknown argument {other:?}")),
        }
    }

    if let Some((a, b)) = compare_paths {
        std::process::exit(compare(&a, &b, threshold));
    }
    let _telemetry = harness::telemetry_guard();
    let out_path = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{label}.json")));
    run_suite(&label, &Mode::new(smoke), &out_path);
}

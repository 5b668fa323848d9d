//! `sweep`: a seeded configuration × workload grid with deliberate
//! duplicates, swept cold at two jobs into an empty store, then queried
//! warm from disk. The cold phase loads `mcm-exec` scheduling on two
//! cores, store writes and the per-pair cost spread that sets the tail;
//! the warm phase simulates nothing, so store open and reads, memo
//! planning and rendering are all its work. Each round answers its warm
//! queries several times over.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mcm_bench::harness::{Memo, TextTable};
use mcm_gpu::{RunReport, SystemConfig};
use mcm_serve::protocol::render_report;
use mcm_store::Store;
use mcm_telemetry::snapshot::{Snapshot, Value};
use mcm_workloads::WorkloadSpec;

use crate::env::{dir_bytes, TempDir};
use crate::inputs::{self, Pair};
use crate::metrics::{check_instructions, median, Metric};
use crate::{ms_since, sim_serial, timed_setup, Ctx, Outcome};

/// Sweep worker threads (the host has two cores).
pub const JOBS: usize = 2;

/// A counter's value in a telemetry snapshot (0 when unregistered).
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    [&snap.deterministic, &snap.per_config, &snap.volatile]
        .into_iter()
        .find_map(|section| match section.get(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// The result table of a list of reports: one row per entry,
/// duplicates included, with the speedup over the same workload's
/// baseline when the list has it.
pub fn table(reports: &[RunReport]) -> String {
    let baseline_name = inputs::config("baseline").name;
    let mut table = TextTable::new(vec![
        "config", "workload", "cycles", "IPC", "L1 hit", "remote", "link MB", "speedup",
    ]);
    for r in reports {
        let speedup = reports
            .iter()
            .find(|b| b.config == baseline_name && b.workload == r.workload)
            .map_or("-".to_string(), |b| format!("{:.3}", r.speedup_over(b)));
        table.row(vec![
            r.config.clone(),
            r.workload.clone(),
            r.cycles.as_u64().to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.3}", r.l1.rate()),
            format!("{:.3}", 1.0 - r.locality_rate()),
            format!("{:.3}", r.inter_module_bytes as f64 / 1e6),
            speedup,
        ]);
    }
    table.render()
}

/// Renders a grid through a memo: its reports (memo hits once the grid
/// is warm) and their table.
pub fn render(memo: &mut Memo, grid: &[(SystemConfig, WorkloadSpec)]) -> (String, Vec<RunReport>) {
    let reports: Vec<RunReport> = grid.iter().map(|(c, s)| memo.run(c, s)).collect();
    (table(&reports), reports)
}

/// `(config, spec)` references, as `Memo::warm_with_jobs` takes them.
pub fn refs(grid: &[(SystemConfig, WorkloadSpec)]) -> Vec<(&SystemConfig, &WorkloadSpec)> {
    grid.iter().map(|(c, s)| (c, s)).collect()
}

/// Wall times of one warm query's steps, ms.
struct WarmTimes {
    open: f64,
    memo: f64,
    render: f64,
}

/// The sweep's inputs.
struct Inputs {
    pairs: Vec<Pair>,
    grid: Vec<(SystemConfig, WorkloadSpec)>,
    /// Grid indices of each warm query.
    queries: Vec<Vec<usize>>,
}

/// One warm query: a fresh `Store::open`, a fresh `Memo`, the query's
/// sub-grid warmed at two jobs, and its rendering.
fn warm_query(
    ctx: &Ctx<'_>,
    dir: &std::path::Path,
    sub: &[(SystemConfig, WorkloadSpec)],
    group: u64,
) -> (
    (String, Vec<RunReport>),
    mcm_bench::harness::MemoStats,
    WarmTimes,
) {
    ctx.tracer.span("bench.sweep.warm", None, group, |id| {
        let t = Instant::now();
        let store = ctx.tracer.span("store.open", Some(id), group, |_| {
            Store::open(dir).expect("reopen sweep store")
        });
        let open = ms_since(t);
        let mut memo = Memo::with_store(ctx.size.scale, store);
        let t = Instant::now();
        ctx.tracer
            .span("bench.memo.warm_with_jobs", Some(id), group, |_| {
                memo.warm_with_jobs(JOBS, &refs(sub));
            });
        let memo_ms = ms_since(t);
        let t = Instant::now();
        let rendered = ctx
            .tracer
            .span("bench.figures.render", Some(id), group, |_| {
                render(&mut memo, sub)
            });
        let times = WarmTimes {
            open,
            memo: memo_ms,
            render: ms_since(t),
        };
        (rendered, memo.stats(), times)
    })
}

/// The workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let scale = ctx.size.scale;
    let inp: Inputs = timed_setup(ctx.size.setup_reps, &mut out.setup_s, |_| {
        let pairs = inputs::sweep_grid(ctx.seed, ctx.size);
        let grid = pairs.iter().map(|p| (p.config(), p.spec())).collect();
        let queries = inputs::warm_queries(ctx.seed, pairs.len(), ctx.size.warm_reps);
        sim_serial::warm_up();
        Inputs {
            pairs,
            grid,
            queries,
        }
    });
    out.inputs = inp.pairs.clone();
    let grid = &inp.grid;
    let n = grid.len() as u64;
    let subs: Vec<Vec<(SystemConfig, WorkloadSpec)>> = inp
        .queries
        .iter()
        .map(|q| q.iter().map(|&i| grid[i].clone()).collect())
        .collect();

    let before = mcm_telemetry::global().snapshot();
    let mut cold_exec = (0u64, 0u64, 0u64, 0u64); // tasks, busy ns, idle ns, steals
    let mut cold_wall_s = 0.0;
    let (mut warm, mut bytes_on_disk, mut dedupe, mut store_hits) = (Vec::new(), 0, 0.0, 0);
    let start = Instant::now();
    let mut round = 0u64;
    while !ctx.expired(start, round > 0) {
        let dir = TempDir::new(ctx.tmp, &format!("sweep-{round}"));
        let t0 = mcm_telemetry::global().snapshot();
        let t = Instant::now();
        let cold = catch_unwind(AssertUnwindSafe(|| {
            ctx.tracer.span("bench.sweep.cold", None, round, |id| {
                let store = ctx.tracer.span("store.open", Some(id), round, |_| {
                    Store::open(dir.path()).expect("open sweep store")
                });
                let mut memo = Memo::with_store(scale, store);
                ctx.tracer
                    .span("bench.memo.warm_with_jobs", Some(id), round, |_| {
                        memo.warm_with_jobs(JOBS, &refs(grid));
                    });
                let rendered = ctx
                    .tracer
                    .span("bench.figures.render", Some(id), round, |_| {
                        render(&mut memo, grid)
                    });
                (rendered, memo.stats())
            })
        }));
        let cold_s = ms_since(t) / 1e3;
        let delta = mcm_telemetry::global().snapshot().delta_since(&t0);
        out.attempted += n;
        let Ok(((_, reports), stats)) = cold else {
            out.fail(format!("cold sweep round {round} panicked"));
            out.failed += n - 1;
            round += 1;
            continue;
        };
        cold_wall_s += cold_s;
        cold_exec.0 += counter(&delta, "exec.tasks");
        cold_exec.1 += counter(&delta, "exec.busy_ns");
        cold_exec.2 += counter(&delta, "exec.idle_ns");
        cold_exec.3 += counter(&delta, "exec.steals");
        dedupe = stats.warm_deduped as f64 / stats.warm_requested as f64;
        let mut seen = HashSet::new();
        let mut instructions = 0;
        for (report, (_, spec)) in reports.iter().zip(grid) {
            if seen.insert((report.config.clone(), report.workload.clone())) {
                instructions += report.instructions;
                out.check(check_instructions(report, &spec.scaled(scale)));
                let recorded = out.digest.add(report);
                out.check(recorded);
            }
        }
        out.work.push((0, cold_s, instructions, n));
        if stats.warm_planned != seen.len() as u64 {
            out.fail(format!(
                "cold round {round}: {} pairs simulated for {} distinct pairs",
                stats.warm_planned,
                seen.len()
            ));
        }
        bytes_on_disk = dir_bytes(dir.path());

        // A warm query costs ~1.5 ms, a cold sweep ~1 s: repeating the
        // queries gives each its fastest repeat from many samples.
        let passes = ctx.size.warm_passes as u64;
        let queries = (0..passes).flat_map(|pass| {
            inp.queries
                .iter()
                .zip(&subs)
                .enumerate()
                .map(move |(q, qs)| (pass, q, qs))
        });
        for (pass, q, (query, sub)) in queries {
            let group = ((round * passes + pass) << 16) | (q as u64 + 1);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| warm_query(ctx, dir.path(), sub, group)));
            let total = ms_since(t);
            let k = sub.len() as u64;
            out.attempted += k;
            let Ok(((warm_table, warm_reports), stats, times)) = result else {
                out.fail(format!("warm query {round}.{q} panicked"));
                out.failed += k - 1;
                continue;
            };
            out.ops.push((q as u64, total));
            store_hits = stats.store_hits;
            warm.push(times);
            if stats.warm_planned != 0 {
                out.fail(format!(
                    "warm query {round}.{q} simulated {} pairs",
                    stats.warm_planned
                ));
            }
            let cold_sub: Vec<RunReport> = query.iter().map(|&i| reports[i].clone()).collect();
            if warm_table != table(&cold_sub) {
                out.fail(format!("warm query {round}.{q}: table differs from cold"));
            }
            for (w, c) in warm_reports.iter().zip(&cold_sub) {
                if render_report(w) != render_report(c) {
                    out.fail(format!(
                        "warm query {round}.{q}: ({}, {}) differs from its cold report",
                        w.config, w.workload
                    ));
                }
            }
        }
        round += 1;
    }

    if ctx.tracer.enabled() {
        let delta = mcm_telemetry::global().snapshot().delta_since(&before);
        let (tasks, busy, idle, steals) = cold_exec;
        let pick = |f: fn(&WarmTimes) -> f64| median(&warm.iter().map(f).collect::<Vec<_>>());
        out.layers = vec![
            Metric::new("exec.tasks", "count", tasks as f64),
            Metric::new(
                "exec.utilization",
                "ratio",
                busy as f64 / (busy + idle) as f64,
            ),
            Metric::new("exec.idle_ns", "ns", idle as f64),
            Metric::new("exec.steals", "count", steals as f64),
            Metric::new(
                "exec.tail_s",
                "s",
                cold_wall_s - busy as f64 / 1e9 / JOBS as f64,
            ),
            Metric::new("store.open_ms", "ms", pick(|w| w.open)),
            Metric::new("store.puts", "count", counter(&delta, "store.puts") as f64),
            Metric::new("store.bytes_on_disk", "bytes", bytes_on_disk as f64),
            Metric::new(
                "store.quarantined",
                "count",
                counter(&delta, "store.quarantined") as f64,
            ),
            Metric::new("memo.warm_ms", "ms", pick(|w| w.memo)),
            Metric::new("memo.store_hits", "count", store_hits as f64),
            Metric::new("memo.dedupe_ratio", "ratio", dedupe),
            Metric::new("figures.render_ms", "ms", pick(|w| w.render)),
        ];
    }
    out
}

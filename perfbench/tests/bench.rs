//! The benchmark's own tests. Run them in release mode: the workload
//! test simulates.

use std::path::{Path, PathBuf};

use mcm_perfbench::env::TempDir;
use mcm_perfbench::inputs::{self, Size, PRESETS};
use mcm_perfbench::layers::{layer_pass, PER_LAYER};
use mcm_perfbench::metrics::{result_line, tail, Metric, END_TO_END};
use mcm_perfbench::trace::Tracer;
use mcm_perfbench::{run, Ctx, Workload};
use mcm_telemetry::json::Json;
use mcm_workloads::Category;

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    let t = tail(&ramp(100));
    assert_eq!((t.percentile, t.value, t.samples), (0.9, 90.0, 100));
    let t = tail(&ramp(999));
    assert_eq!((t.percentile, t.value), (0.9, 900.0));
    let t = tail(&ramp(9_999));
    assert_eq!((t.percentile, t.value), (0.9, 9_000.0));
    let t = tail(&ramp(20_000));
    assert_eq!((t.percentile, t.value), (0.999, 19_980.0));
    // Order does not matter.
    let mut shuffled = ramp(100);
    shuffled.reverse();
    assert_eq!(tail(&shuffled).value, 90.0);
    // Too few samples for any tail: the median, with the count.
    let t = tail(&ramp(15));
    assert_eq!((t.percentile, t.value, t.samples), (0.5, 8.0, 15));
    assert_eq!(tail(&[]).samples, 0);
}

#[test]
fn generated_inputs_are_a_pure_function_of_the_seed() {
    let size = Size::full();
    for seed in [0, 1, 42] {
        assert_eq!(
            inputs::sim_pairs(seed, &size),
            inputs::sim_pairs(seed, &size)
        );
        assert_eq!(
            inputs::sweep_grid(seed, &size),
            inputs::sweep_grid(seed, &size)
        );
        let pool = inputs::serve_pool(seed, &size);
        assert_eq!(pool, inputs::serve_pool(seed, &size));
        assert_eq!(
            inputs::serve_requests(seed, &pool, &size),
            inputs::serve_requests(seed, &pool, &size)
        );
        assert_eq!(
            inputs::pass_order(seed, 2, 72),
            inputs::pass_order(seed, 2, 72)
        );
    }
    assert_ne!(inputs::sim_pairs(1, &size), inputs::sim_pairs(2, &size));
    assert_ne!(inputs::sweep_grid(1, &size), inputs::sweep_grid(2, &size));
    assert_ne!(inputs::serve_pool(1, &size), inputs::serve_pool(2, &size));

    // Stratified: every preset gets the same number of pairs.
    let pairs = inputs::sim_pairs(5, &size);
    let per_preset = size.sim.iter().sum::<usize>();
    for preset in PRESETS {
        assert_eq!(
            pairs.iter().filter(|p| p.preset == preset).count(),
            per_preset
        );
    }
    // Every LP workload runs on every preset whatever the seed, so the
    // median falls on the same pairs; the M and C draws are dealt out,
    // no workload twice.
    let of = |pairs: &[inputs::Pair], category: Category| {
        let mut v: Vec<inputs::Pair> = pairs
            .iter()
            .filter(|p| p.spec().category == category)
            .copied()
            .collect();
        v.sort();
        v
    };
    let lp = Category::LimitedParallelism;
    assert_eq!(of(&pairs, lp).len(), 15 * PRESETS.len());
    assert_eq!(of(&pairs, lp), of(&inputs::sim_pairs(6, &size), lp));
    for (i, category) in [Category::MemoryIntensive, Category::ComputeIntensive]
        .into_iter()
        .enumerate()
    {
        let mut drawn: Vec<&str> = of(&pairs, category).iter().map(|p| p.workload).collect();
        drawn.sort_unstable();
        drawn.dedup();
        assert_eq!(drawn.len(), size.sim[i] * PRESETS.len());
    }
    // The sweep grid carries its duplicates; the serve pool's warm and
    // cold sets are disjoint.
    let grid = inputs::sweep_grid(5, &size);
    let mut distinct = grid.clone();
    distinct.sort();
    distinct.dedup();
    assert!(distinct.len() < grid.len());
    let pool = inputs::serve_pool(5, &size);
    assert!(pool.cold.iter().all(|p| !pool.warm.contains(p)));
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    // Through the result line, as a reader of stdout sees them.
    let line = result_line(true, 1, 0, metrics);
    let doc = Json::parse(&line).expect("the result line is JSON");
    let obj = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    metrics
        .iter()
        .map(|m| {
            let entry = &obj[&m.name];
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
            let unit = entry.get("unit").and_then(Json::as_str).expect("unit");
            (m.name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_named_metric_is_declared_and_printed_with_its_unit() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    // `sweep` runs from the command line only (README.md says why).
    let ours: Vec<String> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::Sweep)
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);

    let sample = END_TO_END
        .iter()
        .map(|(n, u)| Metric::new(*n, u, 1.5))
        .collect::<Vec<_>>();
    assert_eq!(printed(&sample), own(&END_TO_END));
}

fn scratch(tag: &str) -> TempDir {
    TempDir::new(&PathBuf::from(env!("CARGO_TARGET_TMPDIR")), tag)
}

#[test]
fn tiny_runs_pass_their_checks_twice_with_identical_digests() {
    let size = Size::tiny();
    for workload in Workload::ALL {
        let mut digests = Vec::new();
        for attempt in 0..2 {
            let tmp = scratch(&format!("{}-{attempt}", workload.name()));
            let tracer = Tracer::new(false);
            let ctx = Ctx {
                seed: 9,
                seconds: 0.0,
                size: &size,
                tracer: &tracer,
                tmp: tmp.path(),
            };
            let out = run(workload, &ctx);
            assert!(out.attempted > 0, "{}: nothing attempted", workload.name());
            assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.errors);
            assert!(!out.digest.is_empty());
            let e2e = out.end_to_end();
            assert_eq!(printed(&e2e).len(), END_TO_END.len());
            assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");
            digests.push(out.digest.value());
        }
        assert_eq!(
            digests[0],
            digests[1],
            "{}: digests differ",
            workload.name()
        );
    }
}

#[test]
fn tiny_traced_runs_print_every_layer_metric() {
    let size = Size::tiny();
    for workload in Workload::ALL {
        let tmp = scratch(&format!("{}-traced", workload.name()));
        let tracer = Tracer::new(true);
        let ctx = Ctx {
            seed: 4,
            seconds: 0.0,
            size: &size,
            tracer: &tracer,
            tmp: tmp.path(),
        };
        let mut out = run(workload, &ctx);
        let layers = layer_pass(&ctx, &mut out);
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.errors);
        let names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(layers.iter().all(|m| m.value.is_finite()));
        let spans = tracer.spans();
        assert!(!spans.is_empty(), "{}: no spans", workload.name());
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans
            .iter()
            .filter_map(|s| s.parent)
            .all(|p| spans.iter().any(|s| s.id == p)));
    }
}

#[test]
fn instructions_are_the_budget_plus_mshr_replays() {
    // Stream is MSHR-bound: its loads replay, so it issues more than its
    // budget, by exactly the replays the probe sees.
    let cfg = inputs::config("baseline");
    let spec = inputs::Pair {
        preset: "baseline",
        workload: "Stream",
    }
    .spec()
    .scaled(0.01);
    let mut probe = mcm_perfbench::trace::CountingProbe::default();
    let report = mcm_gpu::Simulator::run_probed(&cfg, &spec, &mut probe);
    let budget = mcm_perfbench::metrics::instruction_budget(&spec);
    assert!(probe.counts.mshr_full > 0);
    assert_eq!(report.instructions, budget + probe.counts.mshr_full);
    assert_eq!(report, mcm_gpu::Simulator::run(&cfg, &spec));
}

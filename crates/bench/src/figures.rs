//! One function per paper exhibit: each regenerates the corresponding
//! table or figure's data and returns it as a rendered text block.
//!
//! The functions take a [`Memo`] so exhibits sharing configurations
//! (nearly all share the baseline) reuse each other's runs within one
//! process — `reproduce` exploits this to regenerate everything in a
//! single pass.
//!
//! Most exhibits are one of two tables: a configuration's speedup over
//! a reference per workload (`speedup_table`), or its geomean speedup
//! per §4 category (`geomean_table`). Each builder warms `[reference]
//! ++ configurations` over the workloads it reads before it reads a
//! report, so an exhibit names its design points once.

use mcm_engine::stats::geomean;
use mcm_gpu::reference::{GPU_GENERATIONS, MAX_BUILDABLE_SMS};
use mcm_gpu::{RunReport, SystemConfig};
use mcm_interconnect::energy::Tier;
use mcm_mem::cache::AllocFilter;
use mcm_workloads::{suite, Category, WorkloadSpec};

use crate::harness::{f2, geomean_speedup, pct, Memo, TextTable};

fn m_intensive() -> Vec<WorkloadSpec> {
    suite::m_intensive_suite()
}

fn full_suite() -> Vec<WorkloadSpec> {
    suite::suite()
}

/// Warms the memo with the whole `configs x workloads` grid across
/// `MCM_JOBS` worker threads, so the serial reporting loops below run
/// entirely from cache. Every figure calls this first, directly or
/// through a table builder: the figure text itself is assembled in a
/// fixed order from memoized reports, which is what keeps the output
/// byte-identical at any job count.
fn warm_grid(memo: &mut Memo, configs: &[SystemConfig], workloads: &[WorkloadSpec]) {
    let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = configs
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| (c, w)))
        .collect();
    memo.warm(&pairs);
}

/// The geomean-speedup columns of the ablations: one per §4 category,
/// then all 48 workloads. Fig. 4 takes the first three.
const CATEGORY_COLUMNS: [(&str, Option<Category>); 4] = [
    ("M-Intensive", Some(Category::MemoryIntensive)),
    ("C-Intensive", Some(Category::ComputeIntensive)),
    ("Lim. Parallel", Some(Category::LimitedParallelism)),
    ("ALL", None),
];

/// One row per configuration in `rows` and one column per `(header,
/// category)` in `columns`: each cell is `fmt` of the row's geomean
/// speedup over `reference` across the category's workloads (`None`:
/// the full suite).
fn geomean_table<L: AsRef<str>>(
    memo: &mut Memo,
    first_header: &str,
    columns: &[(&str, Option<Category>)],
    rows: &[(L, SystemConfig)],
    reference: &SystemConfig,
    fmt: fn(f64) -> String,
) -> String {
    let all = full_suite();
    let grid: Vec<SystemConfig> = std::iter::once(reference)
        .chain(rows.iter().map(|(_, c)| c))
        .cloned()
        .collect();
    warm_grid(memo, &grid, &all);
    let mut header = vec![first_header];
    header.extend(columns.iter().map(|(h, _)| *h));
    let mut t = TextTable::new(header);
    for (label, cfg) in rows {
        let mut cells = vec![label.as_ref().to_string()];
        for &(_, category) in columns {
            cells.push(fmt(geomean_speedup(memo, &all, cfg, reference, category)));
        }
        t.row(cells);
    }
    t.render()
}

/// One row per workload in `workloads` and one column per configuration
/// in `configs`: each cell is the configuration's speedup over
/// `reference` on that workload. With `geomean_rows`, a `GeoMean
/// <category>` row per §4 category follows, over the full suite; the
/// workloads must then come from the suite.
fn speedup_table(
    memo: &mut Memo,
    configs: &[(&str, SystemConfig)],
    reference: &SystemConfig,
    workloads: &[WorkloadSpec],
    geomean_rows: bool,
) -> String {
    let all = full_suite();
    let grid: Vec<SystemConfig> = std::iter::once(reference)
        .chain(configs.iter().map(|(_, c)| c))
        .cloned()
        .collect();
    warm_grid(memo, &grid, if geomean_rows { &all } else { workloads });
    let mut header = vec!["workload"];
    header.extend(configs.iter().map(|(label, _)| *label));
    let mut t = TextTable::new(header);
    for w in workloads {
        let base = memo.run(reference, w);
        let mut cells = vec![w.name.to_string()];
        for (_, cfg) in configs {
            cells.push(f2(memo.run(cfg, w).speedup_over(&base)));
        }
        t.row(cells);
    }
    if geomean_rows {
        for cat in Category::ALL {
            let mut cells = vec![format!("GeoMean {}", cat.label())];
            for (_, cfg) in configs {
                cells.push(f2(geomean_speedup(memo, &all, cfg, reference, Some(cat))));
            }
            t.row(cells);
        }
    }
    t.render()
}

/// Table 1: key characteristics of recent NVIDIA GPUs.
pub fn table1() -> String {
    let mut t = TextTable::new(vec!["", "Fermi", "Kepler", "Maxwell", "Pascal"]);
    let g = GPU_GENERATIONS;
    for (label, cells) in [
        ("SMs", g.map(|g| g.sms.to_string())),
        ("BW (GB/s)", g.map(|g| g.bandwidth_gbps.to_string())),
        ("L2 (KB)", g.map(|g| g.l2_kb.to_string())),
        ("Transistors (B)", g.map(|g| g.transistors_b.to_string())),
        ("Tech. node (nm)", g.map(|g| g.tech_node_nm.to_string())),
        ("Chip size (mm2)", g.map(|g| g.chip_size_mm2.to_string())),
    ] {
        t.row([label.to_string()].into_iter().chain(cells).collect());
    }
    format!(
        "Table 1: key characteristics of recent NVIDIA GPUs\n\n{}",
        t.render()
    )
}

/// Table 2: bandwidth and energy parameters per integration domain.
pub fn table2() -> String {
    let mut t = TextTable::new(vec!["", "Chip", "Package", "Board", "System"]);
    let bw = |tier: Tier| -> String {
        let gbps = tier.bandwidth_gbps();
        if gbps >= 1000.0 {
            format!("{:.1} TB/s", gbps / 1000.0)
        } else {
            format!("{gbps} GB/s")
        }
    };
    for (label, cells) in [
        ("BW", Tier::ALL.map(bw)),
        (
            "Energy",
            Tier::ALL.map(|tier| format!("{} pJ/bit", tier.pj_per_bit())),
        ),
        (
            "Overhead",
            Tier::ALL.map(|tier| tier.overhead().to_string()),
        ),
    ] {
        t.row([label.to_string()].into_iter().chain(cells).collect());
    }
    format!(
        "Table 2: approximate bandwidth and energy parameters for \
         different integration domains\n\n{}",
        t.render()
    )
}

/// Table 3: the baseline MCM-GPU configuration.
pub fn table3() -> String {
    let cfg = SystemConfig::baseline_mcm();
    let mut t = TextTable::new(vec!["parameter", "value"]);
    t.row(vec![
        "Number of GPMs".to_string(),
        cfg.topology.modules.to_string(),
    ]);
    t.row(vec![
        "Total number of SMs".to_string(),
        cfg.topology.total_sms().to_string(),
    ]);
    t.row(vec!["GPU frequency".to_string(), "1 GHz".to_string()]);
    t.row(vec![
        "Max warps per SM".to_string(),
        cfg.sm.max_warps.to_string(),
    ]);
    t.row(vec![
        "L1 data cache".to_string(),
        format!("{} KB per SM, 128B lines", cfg.caches.l1_bytes_per_sm >> 10),
    ]);
    t.row(vec![
        "Total L2 cache".to_string(),
        format!(
            "{} MB, 128B lines, 16 ways",
            cfg.caches.l2_bytes_total >> 20
        ),
    ]);
    t.row(vec![
        "Inter-GPM interconnect".to_string(),
        format!(
            "{:.0} GB/s per link, ring, {} cycles/hop",
            cfg.topology.link_gbps, cfg.topology.hop_cycles
        ),
    ]);
    t.row(vec![
        "Total DRAM bandwidth".to_string(),
        format!("{:.0} GB/s", cfg.dram_total_gbps),
    ]);
    t.row(vec![
        "DRAM latency".to_string(),
        format!("{} ns", cfg.dram_latency_ns),
    ]);
    format!("Table 3: baseline MCM-GPU configuration\n\n{}", t.render())
}

/// Table 4: the memory-intensive workloads and their footprints.
pub fn table4() -> String {
    let mut t = TextTable::new(vec!["benchmark", "abbr.", "memory footprint (MB)"]);
    let long_names = [
        ("AMG", "Algebraic multigrid solver"),
        ("NN-Conv", "Neural network convolution"),
        ("BFS", "Breadth-first search"),
        ("CFD", "CFD Euler3D"),
        ("CoMD", "Classic molecular dynamics"),
        ("Kmeans", "K-means clustering"),
        ("Lulesh1", "Lulesh (size 150)"),
        ("Lulesh2", "Lulesh (size 190)"),
        ("Lulesh3", "Lulesh unstructured"),
        ("MiniAMR", "Adaptive mesh refinement"),
        ("MnCtct", "Mini contact solid mechanics"),
        ("MST", "Minimum spanning tree"),
        ("Nekbone1", "Nekbone solver (size 18)"),
        ("Nekbone2", "Nekbone solver (size 12)"),
        ("Srad-v2", "SRAD (v2)"),
        ("SSSP", "Shortest path"),
        ("Stream", "Stream triad"),
    ];
    for (abbr, long) in long_names {
        let w = suite::by_name(abbr).expect("Table 4 workload");
        t.row(vec![
            long.to_string(),
            abbr.to_string(),
            (w.footprint_bytes >> 20).to_string(),
        ]);
    }
    format!(
        "Table 4: the high-parallelism, memory-intensive workloads and \
         their memory footprints\n\n{}",
        t.render()
    )
}

/// Fig. 2: hypothetical monolithic-GPU performance scaling with SM
/// count (L2 and DRAM bandwidth scaled along), normalized to 32 SMs.
pub fn fig02(memo: &mut Memo) -> String {
    let sm_counts = [32u32, 64, 96, 128, 160, 192, 224, 256, 288];
    let all = full_suite();
    let base_cfg = SystemConfig::monolithic(32);
    let grid: Vec<SystemConfig> = sm_counts
        .iter()
        .map(|&s| SystemConfig::monolithic(s))
        .collect();
    warm_grid(memo, &grid, &all);
    let mut t = TextTable::new(vec![
        "SM count",
        "linear",
        "high-parallelism apps",
        "limited-parallelism apps",
    ]);
    for &sms in &sm_counts {
        let cfg = SystemConfig::monolithic(sms);
        let mut high = Vec::new();
        let mut limited = Vec::new();
        for w in &all {
            let s = memo.run(&cfg, w).speedup_over(&memo.run(&base_cfg, w));
            if w.category == Category::LimitedParallelism {
                limited.push(s);
            } else {
                high.push(s);
            }
        }
        t.row(vec![
            sms.to_string(),
            f2(f64::from(sms) / 32.0),
            f2(geomean(&high)),
            f2(geomean(&limited)),
        ]);
    }
    let high_at_256 = {
        let cfg = SystemConfig::monolithic(256);
        let speedups: Vec<f64> = all
            .iter()
            .filter(|w| w.category != Category::LimitedParallelism)
            .map(|w| memo.run(&cfg, w).speedup_over(&memo.run(&base_cfg, w)))
            .collect();
        geomean(&speedups)
    };
    format!(
        "Fig. 2: hypothetical GPU performance scaling with SM count \
         (speedup over 32 SMs; GPUs beyond {MAX_BUILDABLE_SMS} SMs are \
         unbuildable)\n\n{}\nhigh-parallelism apps at 256 SMs reach \
         {:.1}% of linear scaling (paper: 87.8%)\n",
        t.render(),
        high_at_256 / 8.0 * 100.0
    )
}

/// Fig. 4: performance sensitivity to inter-GPM link bandwidth,
/// relative to an abundant 6 TB/s, by category.
pub fn fig04(memo: &mut Memo) -> String {
    let rows: Vec<(String, SystemConfig)> = [6144.0, 3072.0, 1536.0, 768.0, 384.0]
        .into_iter()
        .map(|gbps| (format!("{gbps:.0} GB/s"), SystemConfig::mcm_with_link(gbps)))
        .collect();
    let table = geomean_table(
        memo,
        "link BW",
        &CATEGORY_COLUMNS[..3],
        &rows,
        &rows[0].1,
        f2,
    );
    format!(
        "Fig. 4: relative performance vs inter-GPM link bandwidth \
         (1.00 = 6 TB/s links; 4-GPM, 256-SM MCM-GPU)\n\n{table}"
    )
}

/// Fig. 6: L1.5 capacity and allocation-policy design space, speedup
/// over the baseline MCM-GPU. M-intensive workloads are listed in the
/// paper's bandwidth-sensitivity order.
pub fn fig06(memo: &mut Memo) -> String {
    use AllocFilter::{All, RemoteOnly};
    let configs = [
        ("8MB", SystemConfig::mcm_with_l15(8, All)),
        ("8MB RO", SystemConfig::mcm_with_l15(8, RemoteOnly)),
        ("16MB", SystemConfig::mcm_with_l15(16, All)),
        ("16MB RO", SystemConfig::mcm_with_l15(16, RemoteOnly)),
        ("32MB", SystemConfig::mcm_with_l15_32mb(All)),
        ("32MB RO", SystemConfig::mcm_with_l15_32mb(RemoteOnly)),
    ];
    let table = speedup_table(
        memo,
        &configs,
        &SystemConfig::baseline_mcm(),
        &m_intensive(),
        true,
    );
    format!(
        "Fig. 6: MCM-GPU performance with L1.5 caches (speedup over \
         baseline; iso-transistor except 32MB; RO = remote-only \
         allocation)\n\n{table}"
    )
}

/// Fig. 7: total inter-GPM bandwidth, baseline vs 16 MB remote-only
/// L1.5.
pub fn fig07(memo: &mut Memo) -> String {
    let baseline = SystemConfig::baseline_mcm();
    let l15 = SystemConfig::mcm_with_l15(16, AllocFilter::RemoteOnly);
    bandwidth_figure(
        memo,
        "Fig. 7: total inter-GPM bandwidth (TB/s), baseline vs 16 MB \
         remote-only L1.5",
        vec![("baseline", baseline), ("16MB RO L1.5", l15)],
    )
}

/// Fig. 9: performance with the distributed CTA scheduler on top of the
/// 16 MB remote-only L1.5.
pub fn fig09(memo: &mut Memo) -> String {
    let table = speedup_table(
        memo,
        &[("speedup", SystemConfig::mcm_l15_ds())],
        &SystemConfig::baseline_mcm(),
        &m_intensive(),
        true,
    );
    format!(
        "Fig. 9: performance with distributed CTA scheduling + 16 MB \
         remote-only L1.5 (speedup over baseline MCM-GPU)\n\n{table}"
    )
}

/// Fig. 10: inter-GPM bandwidth with the distributed scheduler.
pub fn fig10(memo: &mut Memo) -> String {
    bandwidth_figure(
        memo,
        "Fig. 10: total inter-GPM bandwidth (TB/s) with distributed \
         scheduling",
        vec![
            ("baseline", SystemConfig::baseline_mcm()),
            ("16MB RO L1.5 + DS", SystemConfig::mcm_l15_ds()),
        ],
    )
}

/// Fig. 13: performance with first-touch page placement on top of DS
/// and the L1.5 — the 16 MB vs 8 MB (rebalanced) variants.
pub fn fig13(memo: &mut Memo) -> String {
    let table = speedup_table(
        memo,
        &[
            ("16MB L1.5+DS+FT", SystemConfig::optimized_mcm_16mb_l15()),
            ("8MB L1.5+DS+FT", SystemConfig::optimized_mcm()),
        ],
        &SystemConfig::baseline_mcm(),
        &m_intensive(),
        true,
    );
    format!(
        "Fig. 13: performance with first-touch page placement (speedup \
         over baseline; 16 MB L1.5 leaves a vestigial L2, 8 MB keeps an \
         8 MB L2)\n\n{table}"
    )
}

/// Fig. 14: inter-GPM bandwidth with first-touch page placement.
pub fn fig14(memo: &mut Memo) -> String {
    bandwidth_figure(
        memo,
        "Fig. 14: total inter-GPM bandwidth (TB/s) with first-touch \
         page placement",
        vec![
            ("baseline", SystemConfig::baseline_mcm()),
            ("16MB L1.5+DS+FT", SystemConfig::optimized_mcm_16mb_l15()),
            ("8MB L1.5+DS+FT", SystemConfig::optimized_mcm()),
        ],
    )
}

/// Shared shape of Figs. 7/10/14: per-workload inter-GPM TB/s under a
/// set of configurations, with category averages.
fn bandwidth_figure(
    memo: &mut Memo,
    title: &str,
    configs: Vec<(&'static str, SystemConfig)>,
) -> String {
    let grid: Vec<SystemConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    warm_grid(memo, &grid, &full_suite());
    let mut header = vec!["workload".to_string()];
    header.extend(configs.iter().map(|(label, _)| label.to_string()));
    let mut t = TextTable::new(header);
    for w in m_intensive() {
        let mut cells = vec![w.name.to_string()];
        for (_, cfg) in &configs {
            cells.push(f2(memo.run(cfg, &w).inter_module_tbps()));
        }
        t.row(cells);
    }
    let all = full_suite();
    for cat in Category::ALL {
        let mut cells = vec![format!("Average {}", cat.label())];
        for (_, cfg) in &configs {
            let reports: Vec<RunReport> = all
                .iter()
                .filter(|w| w.category == cat)
                .map(|w| memo.run(cfg, w))
                .collect();
            let mean = reports
                .iter()
                .map(RunReport::inter_module_tbps)
                .sum::<f64>()
                / reports.len() as f64;
            cells.push(f2(mean));
        }
        t.row(cells);
    }
    // Overall byte-level reduction vs the first configuration.
    let base_bytes: u64 = all
        .iter()
        .map(|w| memo.run(&configs[0].1, w).inter_module_bytes)
        .sum();
    let mut extra = String::new();
    for (label, cfg) in configs.iter().skip(1) {
        let bytes: u64 = all
            .iter()
            .map(|w| memo.run(cfg, w).inter_module_bytes)
            .sum();
        extra.push_str(&format!(
            "{label}: {:.2}x total inter-GPM traffic reduction vs baseline\n",
            base_bytes as f64 / bytes.max(1) as f64
        ));
    }
    format!("{title}\n\n{}\n{extra}", t.render())
}

/// Fig. 15: s-curve of optimized-MCM speedups over the baseline for all
/// 48 workloads, sorted ascending.
pub fn fig15(memo: &mut Memo) -> String {
    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    warm_grid(memo, &[baseline.clone(), optimized.clone()], &full_suite());
    let mut curve: Vec<(String, f64)> = full_suite()
        .iter()
        .map(|w| {
            let s = memo
                .run(&optimized, w)
                .speedup_over(&memo.run(&baseline, w));
            (w.name.to_string(), s)
        })
        .collect();
    curve.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite speedups"));
    let max = curve.last().map(|(_, s)| *s).unwrap_or(1.0);
    let mut t = TextTable::new(vec!["rank", "workload", "speedup", ""]);
    for (i, (name, s)) in curve.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            name.clone(),
            f2(*s),
            crate::harness::bar(*s, max, 32),
        ]);
    }
    let gains = curve.iter().filter(|(_, s)| *s > 1.01).count();
    let losses = curve.iter().filter(|(_, s)| *s < 0.99).count();
    format!(
        "Fig. 15: s-curve of optimized MCM-GPU speedups over baseline, \
         all 48 workloads\n\n{}\n{gains} workloads gain, {losses} lose \
         (paper: 31 gain, 9 lose)\n",
        t.render()
    )
}

/// Fig. 16: each optimization applied alone vs all together, plus the
/// unbuildable references.
pub fn fig16(memo: &mut Memo) -> String {
    use mcm_mem::page::PlacementPolicy;
    use mcm_sm::SchedulerPolicy;

    let baseline = SystemConfig::baseline_mcm();
    let ds_alone = SystemConfig {
        name: "MCM-GPU + DS only".into(),
        scheduler: SchedulerPolicy::Distributed,
        ..baseline.clone()
    };
    let ft_alone = SystemConfig {
        name: "MCM-GPU + FT only".into(),
        placement: PlacementPolicy::FirstTouch,
        ..baseline.clone()
    };
    let combined = SystemConfig::optimized_mcm();
    let mono = SystemConfig::hypothetical_monolithic_256();
    let rows = [
        (
            "Remote-only L1.5 alone (16MB)",
            SystemConfig::mcm_with_l15(16, AllocFilter::RemoteOnly),
        ),
        ("Distributed scheduling alone", ds_alone),
        ("First-touch placement alone", ft_alone),
        ("Proposed MCM-GPU (all three)", combined.clone()),
        (
            "MCM-GPU with 6 TB/s links",
            SystemConfig::mcm_with_link(6144.0),
        ),
        ("Monolithic 256-SM (unbuildable)", mono.clone()),
    ];
    let table = geomean_table(
        memo,
        "configuration",
        &[("speedup over baseline", None)],
        &rows,
        &baseline,
        pct,
    );
    let all = full_suite();
    let opt = geomean_speedup(memo, &all, &combined, &baseline, None);
    let mono_s = geomean_speedup(memo, &all, &mono, &baseline, None);
    let mono128 = geomean_speedup(
        memo,
        &all,
        &SystemConfig::largest_buildable_monolithic(),
        &baseline,
        None,
    );
    format!(
        "Fig. 16: sources of improvement, applied alone and together \
         (geomean over all 48 workloads)\n\n{table}\n\
         optimized vs largest buildable (128-SM) monolithic: {}\n\
         optimized vs unbuildable 256-SM monolithic: within {:.1}%\n",
        pct(opt / mono128),
        (mono_s / opt - 1.0) * 100.0
    )
}

/// Fig. 17: the MCM-GPU vs multi-GPU comparison, normalized to the
/// baseline multi-GPU.
pub fn fig17(memo: &mut Memo) -> String {
    let mcm = SystemConfig::optimized_mcm();
    let mut mcm_6tb = mcm.clone();
    mcm_6tb.name = "MCM-GPU optimized (6 TB/s links)".into();
    mcm_6tb.topology.link_gbps = 6144.0;
    let rows = [
        ("Optimized multi-GPU", SystemConfig::multi_gpu_optimized()),
        ("MCM-GPU (768 GB/s)", mcm),
        ("MCM-GPU (6 TB/s)", mcm_6tb),
        (
            "Monolithic GPU (unbuildable)",
            SystemConfig::hypothetical_monolithic_256(),
        ),
    ];
    let table = geomean_table(
        memo,
        "configuration",
        &[("speedup over baseline multi-GPU", None)],
        &rows,
        &SystemConfig::multi_gpu_baseline(),
        f2,
    );
    format!(
        "Fig. 17: MCM-GPU vs multi-GPU (geomean speedup over the \
         baseline 2x128-SM multi-GPU; both buildable and unbuildable \
         machines shown)\n\n{table}"
    )
}

// ---------------------------------------------------------------------
// Extensions beyond the paper's exhibits: the ablations DESIGN.md calls
// out (the §5.4 future-work schedulers, the §3.2 topology question) and
// the §6.2 efficiency argument quantified.
// ---------------------------------------------------------------------

/// Ablation: CTA scheduling granularity on the optimized MCM-GPU —
/// equal chunks (§5.2) vs finer contiguous groups vs the dynamic
/// stealing scheduler the paper leaves to future work (§5.4), on both a
/// balanced and a deliberately imbalanced workload.
pub fn ablation_scheduler(memo: &mut Memo) -> String {
    let configs = [
        ("distributed (paper)", SystemConfig::optimized_mcm()),
        ("chunked, group 8", SystemConfig::optimized_mcm_chunked(8)),
        ("chunked, group 32", SystemConfig::optimized_mcm_chunked(32)),
        ("dynamic, group 8", SystemConfig::optimized_mcm_dynamic(8)),
        ("dynamic, group 32", SystemConfig::optimized_mcm_dynamic(32)),
    ];
    let mut workloads = vec![
        suite::by_name("Srad-v2").expect("suite workload"),
        suite::by_name("CoMD").expect("suite workload"),
    ];
    // The imbalance case §5.4 observes: "workloads ... where different
    // CTAs perform unequal amounts of work ... leads to workload
    // imbalance due to the coarse-grained distributed scheduling."
    let mut imbalanced = suite::by_name("Lulesh1").expect("suite workload");
    imbalanced.name = "Lulesh1-imbalanced";
    imbalanced.imbalance = 0.8;
    workloads.push(imbalanced);

    let table = speedup_table(
        memo,
        &configs,
        &SystemConfig::baseline_mcm(),
        &workloads,
        false,
    );
    format!(
        "Ablation: CTA scheduler granularity and dynamic stealing \
         (speedup over baseline MCM-GPU; extension of §5.4's future \
         work)\n\n{table}"
    )
}

/// Ablation: inter-GPM network topology at an equal wiring budget —
/// the paper's ring vs a fully connected fabric (§3.2 leaves this
/// exploration out of scope).
pub fn ablation_topology(memo: &mut Memo) -> String {
    let baseline = SystemConfig::baseline_mcm();
    let mut baseline_mesh = baseline.clone();
    baseline_mesh.name = "MCM-GPU baseline (fully connected)".into();
    baseline_mesh.topology.network = mcm_interconnect::mesh::NetworkKind::FullyConnected;
    let rows = [
        ("baseline ring", baseline.clone()),
        ("baseline fully connected", baseline_mesh),
        ("optimized ring", SystemConfig::optimized_mcm()),
        (
            "optimized fully connected",
            SystemConfig::optimized_mcm_fully_connected(),
        ),
    ];
    let table = geomean_table(
        memo,
        "configuration",
        &CATEGORY_COLUMNS,
        &rows,
        &baseline,
        f2,
    );
    format!(
        "Ablation: ring vs fully connected inter-GPM fabric at an equal \
         package wiring budget (speedup over the ring baseline; \
         extension of §3.2)\n\n{table}"
    )
}

/// The §6.2 efficiency argument quantified: data-movement energy per
/// machine organization for the same work.
pub fn efficiency(memo: &mut Memo) -> String {
    let configs = [
        ("MCM-GPU baseline", SystemConfig::baseline_mcm()),
        ("MCM-GPU optimized", SystemConfig::optimized_mcm()),
        ("Multi-GPU baseline", SystemConfig::multi_gpu_baseline()),
        ("Multi-GPU optimized", SystemConfig::multi_gpu_optimized()),
        (
            "Monolithic 256 (unbuildable)",
            SystemConfig::hypothetical_monolithic_256(),
        ),
    ];
    let all = full_suite();
    let grid: Vec<SystemConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    warm_grid(memo, &grid, &all);
    let mut t = TextTable::new(vec![
        "configuration",
        "interconnect mJ",
        "DRAM mJ",
        "total mJ",
        "vs MCM optimized",
    ]);
    let mut totals = Vec::new();
    for (_, cfg) in &configs {
        let mut interconnect = 0.0;
        let mut dram = 0.0;
        for w in &all {
            let r = memo.run(cfg, w);
            dram += r.energy.dram_joules();
            interconnect += r.energy.total_joules() - r.energy.dram_joules();
        }
        totals.push((interconnect, dram));
    }
    let reference = totals[1].0 + totals[1].1;
    for ((label, _), (interconnect, dram)) in configs.iter().zip(&totals) {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", interconnect * 1e3),
            format!("{:.1}", dram * 1e3),
            format!("{:.1}", (interconnect + dram) * 1e3),
            format!("{:.2}x", (interconnect + dram) / reference),
        ]);
    }
    format!(
        "Efficiency (§6.2 quantified): data-movement energy summed over \
         the 48-workload suite. On-package signaling at 0.5 pJ/bit vs \
         on-board at 10 pJ/bit is what separates the MCM-GPU from the \
         multi-GPU here.\n\n{}",
        t.render()
    )
}

/// Ablation: how many GPMs to split 256 SMs into — the design-space
/// question §3.2 opens ("moving forward beyond 128 SM counts will
/// almost certainly require at least two GPMs"), on both the baseline
/// and the optimized recipe, with ring and fully connected fabrics for
/// the 8-GPM point where topology starts to matter.
pub fn ablation_gpm_count(memo: &mut Memo) -> String {
    use mcm_interconnect::mesh::NetworkKind;

    let optimized_of = |gpms: u8, network: NetworkKind| -> SystemConfig {
        let mut cfg = SystemConfig::optimized_mcm();
        cfg.name = format!(
            "MCM-GPU optimized ({gpms} GPMs, {})",
            match network {
                NetworkKind::Ring => "ring",
                NetworkKind::FullyConnected => "fully connected",
            }
        );
        cfg.topology.modules = gpms;
        cfg.topology.sms_per_module = 256 / u32::from(gpms);
        cfg.topology.network = network;
        cfg
    };

    let mut rows: Vec<(String, SystemConfig)> = Vec::new();
    for gpms in [2u8, 4, 8] {
        rows.push((
            format!("baseline {gpms} GPMs"),
            SystemConfig::mcm_n_gpms(gpms),
        ));
    }
    for gpms in [2u8, 4, 8] {
        rows.push((
            format!("optimized {gpms} GPMs (ring)"),
            optimized_of(gpms, NetworkKind::Ring),
        ));
    }
    rows.push((
        "optimized 8 GPMs (fully connected)".to_string(),
        optimized_of(8, NetworkKind::FullyConnected),
    ));
    let table = geomean_table(
        memo,
        "configuration",
        &CATEGORY_COLUMNS,
        &rows,
        &SystemConfig::baseline_mcm(), // 4 GPMs
        f2,
    );
    format!(
        "Ablation: GPM count for a 256-SM budget (speedup over the \
         4-GPM baseline; extension of §3.2)\n\n{table}"
    )
}

/// Ablation: first-touch placement granularity. Small pages track
/// fragmented sharing better; big pages amortize driver work but pin
/// whole regions to one GPM. The paper's FT operates at the driver's
/// allocation granularity; this sweeps it.
pub fn ablation_page_size(memo: &mut Memo) -> String {
    let rows: Vec<(String, SystemConfig)> = [4u64, 16, 64, 256, 2048]
        .into_iter()
        .map(|kib| {
            let mut cfg = SystemConfig::optimized_mcm();
            cfg.name = format!("MCM-GPU optimized (FT {kib} KiB pages)");
            cfg.ft_page_bytes = kib * 1024;
            (format!("{kib} KiB"), cfg)
        })
        .collect();
    let table = geomean_table(
        memo,
        "FT page size",
        &CATEGORY_COLUMNS,
        &rows,
        &SystemConfig::baseline_mcm(),
        f2,
    );
    format!(
        "Ablation: first-touch page granularity on the optimized \
         MCM-GPU (speedup over baseline)\n\n{table}"
    )
}

/// Ablation: L1.5 allocation policies including the adaptive
/// (set-dueling) filter — extends §5.1.2's static exploration.
pub fn ablation_alloc_policy(memo: &mut Memo) -> String {
    let rows = [
        ("cache-all", AllocFilter::All),
        ("remote-only (paper)", AllocFilter::RemoteOnly),
        ("adaptive (set dueling)", AllocFilter::Adaptive),
    ]
    .map(|(label, filter)| (label, SystemConfig::mcm_with_l15(16, filter)));
    let table = geomean_table(
        memo,
        "L1.5 policy (16MB iso-transistor)",
        &CATEGORY_COLUMNS,
        &rows,
        &SystemConfig::baseline_mcm(),
        f2,
    );
    format!(
        "Ablation: L1.5 allocation policy, including a set-dueling \
         adaptive filter (speedup over baseline; extension of \
         §5.1.2)\n\n{table}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        for text in [table1(), table2(), table3(), table4()] {
            assert!(text.lines().count() > 5, "table too short:\n{text}");
        }
        assert!(table1().contains("Pascal"));
        assert!(table2().contains("pJ/bit"));
        assert!(table3().contains("768"));
        assert!(table4().contains("5430"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with --release"
    )]
    fn fig04_runs_at_tiny_scale() {
        let mut memo = Memo::new(0.01);
        let text = fig04(&mut memo);
        assert!(text.contains("384 GB/s"));
        assert!(text.lines().count() >= 7);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with --release"
    )]
    fn fig16_runs_at_tiny_scale() {
        let mut memo = Memo::new(0.01);
        let text = fig16(&mut memo);
        assert!(text.contains("Proposed MCM-GPU"));
        assert!(text.contains("Monolithic"));
    }
}

//! One function per paper exhibit. Tables 1–4 need no simulation and
//! return their text. Every other exhibit returns an [`Exhibit`]: its
//! name, the (configuration, workload) pairs it reads, and a render
//! over a [`Memo`] that already holds them.
//!
//! A harness warms the grids it will render in one [`Memo::warm`]
//! call, then renders each exhibit from `&Memo`. Rendering reads
//! through [`Memo::get`], so it cannot simulate, and exhibits that
//! share configurations (nearly all share the baseline) share runs.
//! `reproduce` warms the union of every exhibit's grid this way.
//!
//! Most exhibits are one of two tables: a configuration's speedup over
//! a reference per workload (`speedup_table`), or its geomean speedup
//! per §4 category (`geomean_table`). Each builder declares `[reference]
//! ++ configurations` over the workloads it reads as its grid, so an
//! exhibit names its design points once.

use std::iter::once;

use mcm_engine::stats::geomean;
use mcm_gpu::reference::{GPU_GENERATIONS, MAX_BUILDABLE_SMS};
use mcm_gpu::{RunReport, SystemConfig};
use mcm_interconnect::energy::Tier;
use mcm_mem::cache::AllocFilter;
use mcm_workloads::{suite, Category, WorkloadSpec};

use crate::env::RunEnv;
use crate::harness::{f2, geomean_speedup, pct, telemetry_guard, Memo, TextTable};

/// One simulation-backed table or figure: what it reads and how it
/// renders.
pub struct Exhibit {
    /// The exhibit's binary, and its file stem under `results/`.
    pub name: &'static str,
    /// Every (configuration, workload) pair the render reads,
    /// configuration-major.
    grid: Vec<(SystemConfig, WorkloadSpec)>,
    render: Box<dyn Fn(&Memo) -> String>,
}

impl Exhibit {
    fn new(
        name: &'static str,
        grid: Vec<(SystemConfig, WorkloadSpec)>,
        render: impl Fn(&Memo) -> String + 'static,
    ) -> Exhibit {
        Exhibit {
            name,
            grid,
            render: Box::new(render),
        }
    }

    /// Every (configuration, workload) pair the render reads, in the
    /// form [`Memo::warm`] takes.
    pub fn pairs(&self) -> Vec<(&SystemConfig, &WorkloadSpec)> {
        self.grid.iter().map(|(c, w)| (c, w)).collect()
    }

    /// Renders the exhibit from `memo`, which must hold its grid.
    ///
    /// # Panics
    ///
    /// Panics, naming the pair, when `memo` lacks a pair the render
    /// reads (see [`Memo::get`]).
    pub fn render(&self, memo: &Memo) -> String {
        (self.render)(memo)
    }

    /// The `main` of the exhibit's own binary: one warm of its grid in
    /// a memo for `env`, then the render on stdout, with the
    /// `MCM_TELEMETRY` snapshot written on the way out.
    pub fn print(&self, env: RunEnv) {
        let _telemetry = telemetry_guard(&env);
        let mut memo = Memo::new(env);
        memo.warm(&self.pairs());
        println!("{}", self.render(&memo));
    }
}

/// Every configuration of `configs` on every workload of `workloads`,
/// configuration-major.
fn grid<'c>(
    configs: impl IntoIterator<Item = &'c SystemConfig>,
    workloads: &[WorkloadSpec],
) -> Vec<(SystemConfig, WorkloadSpec)> {
    configs
        .into_iter()
        .flat_map(|c| workloads.iter().map(move |w| (c.clone(), w.clone())))
        .collect()
}

/// The geomean-speedup columns of the ablations: one per §4 category,
/// then all 48 workloads. Fig. 4 takes the first three.
static CATEGORY_COLUMNS: [(&str, Option<Category>); 4] = [
    ("M-Intensive", Some(Category::MemoryIntensive)),
    ("C-Intensive", Some(Category::ComputeIntensive)),
    ("Lim. Parallel", Some(Category::LimitedParallelism)),
    ("ALL", None),
];

/// `title`, then one row per configuration in `rows` and one column per
/// `(header, category)` in `columns`: each cell is `fmt` of the row's
/// geomean speedup over `reference` across the category's workloads
/// (`None`: the full suite).
fn geomean_table<L: AsRef<str> + 'static>(
    name: &'static str,
    title: &'static str,
    first_header: &'static str,
    columns: &'static [(&'static str, Option<Category>)],
    rows: Vec<(L, SystemConfig)>,
    reference: SystemConfig,
    fmt: fn(f64) -> String,
) -> Exhibit {
    let all = suite::suite();
    let grid = grid(once(&reference).chain(rows.iter().map(|(_, c)| c)), &all);
    Exhibit::new(name, grid, move |memo| {
        let mut header = vec![first_header];
        header.extend(columns.iter().map(|(h, _)| *h));
        let mut t = TextTable::new(header);
        for (label, cfg) in &rows {
            let mut cells = vec![label.as_ref().to_string()];
            for &(_, category) in columns {
                cells.push(fmt(geomean_speedup(memo, &all, cfg, &reference, category)));
            }
            t.row(cells);
        }
        format!("{title}\n\n{}", t.render())
    })
}

/// `title`, then one row per workload in `workloads` and one column per
/// configuration in `configs`: each cell is the configuration's speedup
/// over `reference` on that workload. With `geomean_rows`, a `GeoMean
/// <category>` row per §4 category follows, over the full suite; the
/// workloads must then come from the suite.
fn speedup_table(
    name: &'static str,
    title: &'static str,
    configs: Vec<(&'static str, SystemConfig)>,
    reference: SystemConfig,
    workloads: Vec<WorkloadSpec>,
    geomean_rows: bool,
) -> Exhibit {
    let all = suite::suite();
    let grid = grid(
        once(&reference).chain(configs.iter().map(|(_, c)| c)),
        if geomean_rows { &all } else { &workloads },
    );
    Exhibit::new(name, grid, move |memo| {
        let mut header = vec!["workload"];
        header.extend(configs.iter().map(|(label, _)| *label));
        let mut t = TextTable::new(header);
        for w in &workloads {
            let base = memo.get(&reference, w);
            let mut cells = vec![w.name.to_string()];
            for (_, cfg) in &configs {
                cells.push(f2(memo.get(cfg, w).speedup_over(base)));
            }
            t.row(cells);
        }
        if geomean_rows {
            for cat in Category::ALL {
                let mut cells = vec![format!("GeoMean {}", cat.label())];
                for (_, cfg) in &configs {
                    cells.push(f2(geomean_speedup(memo, &all, cfg, &reference, Some(cat))));
                }
                t.row(cells);
            }
        }
        format!("{title}\n\n{}", t.render())
    })
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
pub fn fig02() -> Exhibit {
    let machines: Vec<(u32, SystemConfig)> = [32u32, 64, 96, 128, 160, 192, 224, 256, 288]
        .into_iter()
        .map(|sms| (sms, SystemConfig::monolithic(sms)))
        .collect();
    let all = suite::suite();
    let grid = grid(machines.iter().map(|(_, c)| c), &all);
    Exhibit::new("fig02_scaling", grid, move |memo| {
        let base_cfg = &machines[0].1;
        let mut t = TextTable::new(vec![
            "SM count",
            "linear",
            "high-parallelism apps",
            "limited-parallelism apps",
        ]);
        let mut high_at_256 = 0.0;
        for (sms, cfg) in &machines {
            let mut high = Vec::new();
            let mut limited = Vec::new();
            for w in &all {
                let s = memo.get(cfg, w).speedup_over(memo.get(base_cfg, w));
                if w.category == Category::LimitedParallelism {
                    limited.push(s);
                } else {
                    high.push(s);
                }
            }
            if *sms == 256 {
                high_at_256 = geomean(&high);
            }
            t.row(vec![
                sms.to_string(),
                f2(f64::from(*sms) / 32.0),
                f2(geomean(&high)),
                f2(geomean(&limited)),
            ]);
        }
        format!(
            "Fig. 2: hypothetical GPU performance scaling with SM count \
             (speedup over 32 SMs; GPUs beyond {MAX_BUILDABLE_SMS} SMs are \
             unbuildable)\n\n{}\nhigh-parallelism apps at 256 SMs reach \
             {:.1}% of linear scaling (paper: 87.8%)\n",
            t.render(),
            high_at_256 / 8.0 * 100.0
        )
    })
}

/// Fig. 4: performance sensitivity to inter-GPM link bandwidth,
/// relative to an abundant 6 TB/s, by category.
pub fn fig04() -> Exhibit {
    let rows: Vec<(String, SystemConfig)> = [6144.0, 3072.0, 1536.0, 768.0, 384.0]
        .into_iter()
        .map(|gbps| (format!("{gbps:.0} GB/s"), SystemConfig::mcm_with_link(gbps)))
        .collect();
    let reference = rows[0].1.clone();
    geomean_table(
        "fig04_link_sensitivity",
        "Fig. 4: relative performance vs inter-GPM link bandwidth \
         (1.00 = 6 TB/s links; 4-GPM, 256-SM MCM-GPU)",
        "link BW",
        &CATEGORY_COLUMNS[..3],
        rows,
        reference,
        f2,
    )
}

/// Fig. 6: L1.5 capacity and allocation-policy design space, speedup
/// over the baseline MCM-GPU. M-intensive workloads are listed in the
/// paper's bandwidth-sensitivity order.
pub fn fig06() -> Exhibit {
    use AllocFilter::{All, RemoteOnly};
    speedup_table(
        "fig06_l15_cache",
        "Fig. 6: MCM-GPU performance with L1.5 caches (speedup over \
         baseline; iso-transistor except 32MB; RO = remote-only \
         allocation)",
        vec![
            ("8MB", SystemConfig::mcm_with_l15(8, All)),
            ("8MB RO", SystemConfig::mcm_with_l15(8, RemoteOnly)),
            ("16MB", SystemConfig::mcm_with_l15(16, All)),
            ("16MB RO", SystemConfig::mcm_with_l15(16, RemoteOnly)),
            ("32MB", SystemConfig::mcm_with_l15_32mb(All)),
            ("32MB RO", SystemConfig::mcm_with_l15_32mb(RemoteOnly)),
        ],
        SystemConfig::baseline_mcm(),
        suite::m_intensive_suite(),
        true,
    )
}

/// Fig. 7: total inter-GPM bandwidth, baseline vs 16 MB remote-only
/// L1.5.
pub fn fig07() -> Exhibit {
    let baseline = SystemConfig::baseline_mcm();
    let l15 = SystemConfig::mcm_with_l15(16, AllocFilter::RemoteOnly);
    bandwidth_figure(
        "fig07_l15_bandwidth",
        "Fig. 7: total inter-GPM bandwidth (TB/s), baseline vs 16 MB \
         remote-only L1.5",
        vec![("baseline", baseline), ("16MB RO L1.5", l15)],
    )
}

/// Fig. 9: performance with the distributed CTA scheduler on top of the
/// 16 MB remote-only L1.5.
pub fn fig09() -> Exhibit {
    speedup_table(
        "fig09_distributed_sched",
        "Fig. 9: performance with distributed CTA scheduling + 16 MB \
         remote-only L1.5 (speedup over baseline MCM-GPU)",
        vec![("speedup", SystemConfig::mcm_l15_ds())],
        SystemConfig::baseline_mcm(),
        suite::m_intensive_suite(),
        true,
    )
}

/// Fig. 10: inter-GPM bandwidth with the distributed scheduler.
pub fn fig10() -> Exhibit {
    bandwidth_figure(
        "fig10_ds_bandwidth",
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
pub fn fig13() -> Exhibit {
    speedup_table(
        "fig13_first_touch",
        "Fig. 13: performance with first-touch page placement (speedup \
         over baseline; 16 MB L1.5 leaves a vestigial L2, 8 MB keeps an \
         8 MB L2)",
        vec![
            ("16MB L1.5+DS+FT", SystemConfig::optimized_mcm_16mb_l15()),
            ("8MB L1.5+DS+FT", SystemConfig::optimized_mcm()),
        ],
        SystemConfig::baseline_mcm(),
        suite::m_intensive_suite(),
        true,
    )
}

/// Fig. 14: inter-GPM bandwidth with first-touch page placement.
pub fn fig14() -> Exhibit {
    bandwidth_figure(
        "fig14_ft_bandwidth",
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
    name: &'static str,
    title: &'static str,
    configs: Vec<(&'static str, SystemConfig)>,
) -> Exhibit {
    let all = suite::suite();
    let grid = grid(configs.iter().map(|(_, c)| c), &all);
    Exhibit::new(name, grid, move |memo| {
        let mut header = vec!["workload".to_string()];
        header.extend(configs.iter().map(|(label, _)| label.to_string()));
        let mut t = TextTable::new(header);
        for w in suite::m_intensive_suite() {
            let mut cells = vec![w.name.to_string()];
            for (_, cfg) in &configs {
                cells.push(f2(memo.get(cfg, &w).inter_module_tbps()));
            }
            t.row(cells);
        }
        for cat in Category::ALL {
            let mut cells = vec![format!("Average {}", cat.label())];
            for (_, cfg) in &configs {
                let reports: Vec<&RunReport> = all
                    .iter()
                    .filter(|w| w.category == cat)
                    .map(|w| memo.get(cfg, w))
                    .collect();
                let mean = reports.iter().map(|r| r.inter_module_tbps()).sum::<f64>()
                    / reports.len() as f64;
                cells.push(f2(mean));
            }
            t.row(cells);
        }
        // Overall byte-level reduction vs the first configuration.
        let base_bytes: u64 = all
            .iter()
            .map(|w| memo.get(&configs[0].1, w).inter_module_bytes)
            .sum();
        let mut extra = String::new();
        for (label, cfg) in configs.iter().skip(1) {
            let bytes: u64 = all
                .iter()
                .map(|w| memo.get(cfg, w).inter_module_bytes)
                .sum();
            extra.push_str(&format!(
                "{label}: {:.2}x total inter-GPM traffic reduction vs baseline\n",
                base_bytes as f64 / bytes.max(1) as f64
            ));
        }
        format!("{title}\n\n{}\n{extra}", t.render())
    })
}

/// Fig. 15: s-curve of optimized-MCM speedups over the baseline for all
/// 48 workloads, sorted ascending.
pub fn fig15() -> Exhibit {
    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    let all = suite::suite();
    let grid = grid([&baseline, &optimized], &all);
    Exhibit::new("fig15_scurve", grid, move |memo| {
        let mut curve: Vec<(String, f64)> = all
            .iter()
            .map(|w| {
                let s = memo.get(&optimized, w).speedup_over(memo.get(&baseline, w));
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
    })
}

/// Fig. 16: each optimization applied alone vs all together, plus the
/// unbuildable references.
pub fn fig16() -> Exhibit {
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
    let mono128 = SystemConfig::largest_buildable_monolithic();
    let rows = vec![
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
    let mut exhibit = geomean_table(
        "fig16_breakdown",
        "Fig. 16: sources of improvement, applied alone and together \
         (geomean over all 48 workloads)",
        "configuration",
        &[("speedup over baseline", None)],
        rows,
        baseline.clone(),
        pct,
    );
    // The footer also reads the largest buildable monolithic GPU.
    let all = suite::suite();
    exhibit.grid.extend(grid([&mono128], &all));
    let table = exhibit.render;
    exhibit.render = Box::new(move |memo| {
        let over_baseline = |cfg: &SystemConfig| geomean_speedup(memo, &all, cfg, &baseline, None);
        let opt = over_baseline(&combined);
        format!(
            "{}\noptimized vs largest buildable (128-SM) monolithic: {}\n\
             optimized vs unbuildable 256-SM monolithic: within {:.1}%\n",
            table(memo),
            pct(opt / over_baseline(&mono128)),
            (over_baseline(&mono) / opt - 1.0) * 100.0
        )
    });
    exhibit
}

/// Fig. 17: the MCM-GPU vs multi-GPU comparison, normalized to the
/// baseline multi-GPU.
pub fn fig17() -> Exhibit {
    let mcm = SystemConfig::optimized_mcm();
    let mut mcm_6tb = mcm.clone();
    mcm_6tb.name = "MCM-GPU optimized (6 TB/s links)".into();
    mcm_6tb.topology.link_gbps = 6144.0;
    geomean_table(
        "fig17_multi_gpu",
        "Fig. 17: MCM-GPU vs multi-GPU (geomean speedup over the \
         baseline 2x128-SM multi-GPU; both buildable and unbuildable \
         machines shown)",
        "configuration",
        &[("speedup over baseline multi-GPU", None)],
        vec![
            ("Optimized multi-GPU", SystemConfig::multi_gpu_optimized()),
            ("MCM-GPU (768 GB/s)", mcm),
            ("MCM-GPU (6 TB/s)", mcm_6tb),
            (
                "Monolithic GPU (unbuildable)",
                SystemConfig::hypothetical_monolithic_256(),
            ),
        ],
        SystemConfig::multi_gpu_baseline(),
        f2,
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
pub fn ablation_scheduler() -> Exhibit {
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

    speedup_table(
        "ablation_scheduler",
        "Ablation: CTA scheduler granularity and dynamic stealing \
         (speedup over baseline MCM-GPU; extension of §5.4's future \
         work)",
        vec![
            ("distributed (paper)", SystemConfig::optimized_mcm()),
            ("chunked, group 8", SystemConfig::optimized_mcm_chunked(8)),
            ("chunked, group 32", SystemConfig::optimized_mcm_chunked(32)),
            ("dynamic, group 8", SystemConfig::optimized_mcm_dynamic(8)),
            ("dynamic, group 32", SystemConfig::optimized_mcm_dynamic(32)),
        ],
        SystemConfig::baseline_mcm(),
        workloads,
        false,
    )
}

/// Ablation: inter-GPM network topology at an equal wiring budget —
/// the paper's ring vs a fully connected fabric (§3.2 leaves this
/// exploration out of scope).
pub fn ablation_topology() -> Exhibit {
    let baseline = SystemConfig::baseline_mcm();
    let mut baseline_mesh = baseline.clone();
    baseline_mesh.name = "MCM-GPU baseline (fully connected)".into();
    baseline_mesh.topology.network = mcm_interconnect::mesh::NetworkKind::FullyConnected;
    geomean_table(
        "ablation_topology",
        "Ablation: ring vs fully connected inter-GPM fabric at an equal \
         package wiring budget (speedup over the ring baseline; \
         extension of §3.2)",
        "configuration",
        &CATEGORY_COLUMNS,
        vec![
            ("baseline ring", baseline.clone()),
            ("baseline fully connected", baseline_mesh),
            ("optimized ring", SystemConfig::optimized_mcm()),
            (
                "optimized fully connected",
                SystemConfig::optimized_mcm_fully_connected(),
            ),
        ],
        baseline,
        f2,
    )
}

/// The §6.2 efficiency argument quantified: data-movement energy per
/// machine organization for the same work.
pub fn efficiency() -> Exhibit {
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
    let all = suite::suite();
    let grid = grid(configs.iter().map(|(_, c)| c), &all);
    Exhibit::new("efficiency", grid, move |memo| {
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
                let r = memo.get(cfg, w);
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
    })
}

/// Ablation: how many GPMs to split 256 SMs into — the design-space
/// question §3.2 opens ("moving forward beyond 128 SM counts will
/// almost certainly require at least two GPMs"), on both the baseline
/// and the optimized recipe, with ring and fully connected fabrics for
/// the 8-GPM point where topology starts to matter.
pub fn ablation_gpm_count() -> Exhibit {
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
    geomean_table(
        "ablation_gpm_count",
        "Ablation: GPM count for a 256-SM budget (speedup over the \
         4-GPM baseline; extension of §3.2)",
        "configuration",
        &CATEGORY_COLUMNS,
        rows,
        SystemConfig::baseline_mcm(), // 4 GPMs
        f2,
    )
}

/// Ablation: first-touch placement granularity. Small pages track
/// fragmented sharing better; big pages amortize driver work but pin
/// whole regions to one GPM. The paper's FT operates at the driver's
/// allocation granularity; this sweeps it.
pub fn ablation_page_size() -> Exhibit {
    let rows: Vec<(String, SystemConfig)> = [4u64, 16, 64, 256, 2048]
        .into_iter()
        .map(|kib| {
            let mut cfg = SystemConfig::optimized_mcm();
            cfg.name = format!("MCM-GPU optimized (FT {kib} KiB pages)");
            cfg.ft_page_bytes = kib * 1024;
            (format!("{kib} KiB"), cfg)
        })
        .collect();
    geomean_table(
        "ablation_page_size",
        "Ablation: first-touch page granularity on the optimized \
         MCM-GPU (speedup over baseline)",
        "FT page size",
        &CATEGORY_COLUMNS,
        rows,
        SystemConfig::baseline_mcm(),
        f2,
    )
}

/// Ablation: L1.5 allocation policies including the adaptive
/// (set-dueling) filter — extends §5.1.2's static exploration.
pub fn ablation_alloc_policy() -> Exhibit {
    let rows = [
        ("cache-all", AllocFilter::All),
        ("remote-only (paper)", AllocFilter::RemoteOnly),
        ("adaptive (set dueling)", AllocFilter::Adaptive),
    ]
    .map(|(label, filter)| (label, SystemConfig::mcm_with_l15(16, filter)));
    geomean_table(
        "ablation_alloc_policy",
        "Ablation: L1.5 allocation policy, including a set-dueling \
         adaptive filter (speedup over baseline; extension of \
         §5.1.2)",
        "L1.5 policy (16MB iso-transistor)",
        &CATEGORY_COLUMNS,
        Vec::from(rows),
        SystemConfig::baseline_mcm(),
        f2,
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
}

//! Analytical sweep planner: score a large configuration grid in
//! closed form, keep only the predicted Pareto frontier (plus a safety
//! band), and confirm those few points with full event simulation.
//!
//! The division of labour: `mcm_gpu::analytic` prices one point in
//! microseconds but carries model error; the event simulator is exact
//! but pays seconds per point. The planner composes them — the model
//! prunes the grid, the simulator (through [`Memo`], and therefore
//! through `MCM_STORE` warm starts) certifies the survivors, and every
//! confirmation is checked against the model's error envelope so a
//! drifting model fails loudly instead of silently pruning the true
//! optimum.
//!
//! Everything is deterministic: the grid, the calibration anchors, the
//! frontier selection, and the rendered report depend only on the
//! workload scale and the (memoized) simulation results — never on
//! whether the confirmations ran cold or were served from the store.

use std::sync::OnceLock;

use mcm_engine::stats::geomean;
use mcm_gpu::analytic::{AnalyticModel, Calibration, Observation};
use mcm_gpu::{SystemConfig, MIB};
use mcm_mem::cache::AllocFilter;
use mcm_mem::page::PlacementPolicy;
use mcm_sm::SchedulerPolicy;
use mcm_telemetry::{Class, Counter};
use mcm_workloads::{suite, Category, WorkloadSpec};

use crate::harness::{f2, pct, Memo, TextTable};

/// Pre-registered global `analytic.*` planner telemetry. The scoring
/// counter (`analytic.scored`) lives with the model itself in
/// `mcm_gpu::analytic`; these cover the planner's pruning and
/// confirmation decisions. All deterministic: the grid and frontier are
/// pure functions of the scale and the simulation results, independent
/// of `MCM_JOBS` and of store warmth.
struct PlannerTele {
    pruned: Counter,
    confirmed: Counter,
    violations: Counter,
}

fn tele() -> &'static PlannerTele {
    static TELE: OnceLock<PlannerTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = mcm_telemetry::global();
        PlannerTele {
            pruned: reg.counter("analytic.pruned", Class::Deterministic),
            confirmed: reg.counter("analytic.confirmed", Class::Deterministic),
            violations: reg.counter("analytic.envelope_violations", Class::Deterministic),
        }
    })
}

/// One exploration request: the configuration grid, the workloads to
/// score it against, and the pruning/verification knobs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Candidate configurations (the grid).
    pub configs: Vec<SystemConfig>,
    /// Workloads each configuration is scored and confirmed on.
    pub workloads: Vec<WorkloadSpec>,
    /// Safety band: a point survives pruning unless some cheaper-or-
    /// equal point beats its predicted throughput by more than this
    /// fraction. Insurance against model error near the frontier.
    pub band: f64,
    /// Per-point error envelope: a confirmed point whose geomean-IPC
    /// relative error (`|pred - sim| / sim` over the plan's workloads)
    /// exceeds this fraction counts as an envelope violation. The
    /// geomean is the quantity the planner ranks on; per-workload
    /// errors are reported but not gated (a first-order model's
    /// per-workload error is structurally larger than the error of the
    /// aggregate it prices the frontier with).
    pub envelope: f64,
    /// Seed for the calibration anchor selection.
    pub calibration_seed: u64,
}

impl Plan {
    /// The default exploration grid: link bandwidth × GPM count × L1.5
    /// design point × page placement × CTA scheduler — 120
    /// configurations, scored against one representative workload per
    /// category. Small enough for a tier-1 smoke, wide enough to cross
    /// every modeled design axis.
    pub fn default_grid() -> Plan {
        let links = [256.0, 512.0, 768.0, 1536.0, 3072.0];
        let gpms = [2u8, 4, 8];
        let l15_mb = [0u64, 16];
        let placements = [PlacementPolicy::Interleaved, PlacementPolicy::FirstTouch];
        let schedulers = [SchedulerPolicy::Centralized, SchedulerPolicy::Distributed];
        let mut configs = Vec::new();
        for &g in &gpms {
            for &link in &links {
                for &l15 in &l15_mb {
                    for &placement in &placements {
                        for &scheduler in &schedulers {
                            let mut cfg = SystemConfig::mcm_n_gpms(g);
                            cfg.topology.link_gbps = link;
                            cfg.caches.l15_bytes_total = l15 * MIB;
                            cfg.caches.l15_filter = AllocFilter::RemoteOnly;
                            cfg.placement = placement;
                            cfg.scheduler = scheduler;
                            let p = match placement {
                                PlacementPolicy::Interleaved => "int",
                                PlacementPolicy::FirstTouch => "ft",
                                PlacementPolicy::PageRoundRobin => "rr",
                            };
                            let s = match scheduler {
                                SchedulerPolicy::Centralized => "cen",
                                _ => "dis",
                            };
                            cfg.name = format!("x{g}g-{link:.0}gbps-{l15}mb-{p}-{s}");
                            cfg.validate().expect("grid configs must be valid");
                            configs.push(cfg);
                        }
                    }
                }
            }
        }
        // One representative workload per category, in category order —
        // the cheapest grid that still exercises every calibration
        // bucket.
        let all = suite::suite();
        let workloads = Category::ALL
            .iter()
            .map(|&cat| {
                all.iter()
                    .find(|w| w.category == cat)
                    .expect("every category is populated")
                    .clone()
            })
            .collect();
        Plan {
            configs,
            workloads,
            band: 0.10,
            envelope: 1.00,
            calibration_seed: 0x5EED,
        }
    }
}

/// A hardware-cost proxy for Pareto ranking: total package escape
/// bandwidth in GB/s plus an SRAM term (64 GB/s-equivalents per MiB of
/// L1.5), so bigger links and bigger GPM-side caches both cost.
pub fn hardware_cost(cfg: &SystemConfig) -> f64 {
    cfg.topology.link_gbps * f64::from(cfg.topology.modules)
        + (cfg.caches.l15_bytes_total / MIB) as f64 * 64.0
}

/// One analytically scored grid point.
#[derive(Debug, Clone)]
pub struct ScoredPoint {
    /// The configuration.
    pub config: SystemConfig,
    /// Geometric-mean predicted IPC over the plan's workloads.
    pub predicted_ipc: f64,
    /// [`hardware_cost`] of the configuration.
    pub cost: f64,
    /// Strictly non-dominated (band of zero)?
    pub on_frontier: bool,
}

/// One frontier point after simulation confirmed it.
#[derive(Debug, Clone)]
pub struct ConfirmedPoint {
    /// The scored point this confirms.
    pub point: ScoredPoint,
    /// Geometric-mean simulated IPC over the plan's workloads.
    pub simulated_ipc: f64,
    /// Relative error of the geomean IPC (`|pred - sim| / sim`) — the
    /// gated quantity.
    pub rel_err: f64,
    /// Worst per-workload relative IPC error (reported, not gated).
    pub worst_rel_err: f64,
    /// Did `rel_err` exceed the plan's envelope?
    pub violation: bool,
}

/// What one [`explore`] call produced.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The rendered, byte-deterministic report.
    pub rendered: String,
    /// Grid points scored analytically (configs × workloads).
    pub scored: usize,
    /// Configurations pruned without simulation.
    pub pruned: usize,
    /// Frontier + band configurations confirmed by simulation.
    pub confirmed: Vec<ConfirmedPoint>,
    /// Confirmed points whose error exceeded the envelope.
    pub envelope_violations: usize,
}

/// Runs the full plan: calibrate → score → prune → confirm → verify
/// envelope. Simulation happens only for calibration anchors and the
/// kept frontier/band points, all through `memo` (and so through
/// `MCM_STORE` when attached).
pub fn explore(memo: &mut Memo, plan: &Plan) -> ExploreOutcome {
    assert!(!plan.configs.is_empty() && !plan.workloads.is_empty());
    let scale = memo.scale();

    // --- calibrate once per category against the event simulator ----
    let anchor_pairs = Calibration::anchor_pairs(plan.calibration_seed);
    {
        let pairs: Vec<(&SystemConfig, &WorkloadSpec)> =
            anchor_pairs.iter().map(|(c, w)| (c, w)).collect();
        memo.warm(&pairs);
    }
    let anchors: Vec<(SystemConfig, WorkloadSpec, Observation)> = anchor_pairs
        .into_iter()
        .map(|(cfg, spec)| {
            let obs = Observation::from_report(memo.get(&cfg, &spec));
            // The memo simulated `spec.scaled(scale)`; calibrate the
            // raw model against exactly that horizon.
            (cfg.clone(), spec.scaled(scale), obs)
        })
        .collect();
    let model = AnalyticModel::with_calibration(Calibration::fit(&anchors));

    // --- score the whole grid in closed form ------------------------
    let descriptors: Vec<_> = plan
        .workloads
        .iter()
        .map(|w| w.scaled(scale).descriptor())
        .collect();
    let mut points: Vec<ScoredPoint> = plan
        .configs
        .iter()
        .map(|cfg| {
            let predicted_ipc = geomean(
                &descriptors
                    .iter()
                    .map(|d| model.predict_descriptor(cfg, d).ipc)
                    .collect::<Vec<_>>(),
            );
            ScoredPoint {
                config: cfg.clone(),
                predicted_ipc,
                cost: hardware_cost(cfg),
                on_frontier: false,
            }
        })
        .collect();
    let scored = points.len() * descriptors.len();

    // --- keep the predicted Pareto frontier plus the safety band ----
    // `p` is dominated outright when some point at no greater cost
    // predicts at least its throughput (ties broken toward the cheaper
    // point); it is *pruned* only when the better point clears the
    // safety band, so model error near the frontier cannot starve the
    // confirmation pass.
    let dominates = |q: &ScoredPoint, p: &ScoredPoint, margin: f64| -> bool {
        q.cost <= p.cost
            && q.predicted_ipc >= p.predicted_ipc * (1.0 + margin)
            && (q.cost < p.cost || q.predicted_ipc > p.predicted_ipc)
    };
    for i in 0..points.len() {
        points[i].on_frontier = !points
            .iter()
            .enumerate()
            .any(|(j, q)| j != i && dominates(q, &points[i], 0.0));
    }
    let mut kept: Vec<ScoredPoint> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| q.config.name != p.config.name && dominates(q, p, plan.band))
        })
        .cloned()
        .collect();
    kept.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .expect("costs are finite")
            .then_with(|| a.config.name.cmp(&b.config.name))
    });
    let pruned = points.len() - kept.len();
    tele().pruned.add(pruned as u64);

    // --- confirm survivors with full simulation ---------------------
    {
        let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = kept
            .iter()
            .flat_map(|p| plan.workloads.iter().map(move |w| (&p.config, w)))
            .collect();
        memo.warm(&pairs);
    }
    let mut confirmed = Vec::with_capacity(kept.len());
    let mut envelope_violations = 0usize;
    for point in kept {
        let mut worst_rel_err = 0.0f64;
        let mut sim_ipcs = Vec::with_capacity(plan.workloads.len());
        for (w, d) in plan.workloads.iter().zip(&descriptors) {
            let sim = memo.get(&point.config, w).ipc();
            let pred = model.predict_descriptor(&point.config, d).ipc;
            sim_ipcs.push(sim);
            worst_rel_err = worst_rel_err.max((pred - sim).abs() / sim);
            tele().confirmed.inc();
        }
        let simulated_ipc = geomean(&sim_ipcs);
        let rel_err = (point.predicted_ipc - simulated_ipc).abs() / simulated_ipc;
        let violation = rel_err > plan.envelope;
        if violation {
            envelope_violations += 1;
            tele().violations.inc();
        }
        confirmed.push(ConfirmedPoint {
            simulated_ipc,
            rel_err,
            worst_rel_err,
            violation,
            point,
        });
    }

    // --- render ------------------------------------------------------
    let mut t = TextTable::new(vec![
        "config", "cost", "pred IPC", "sim IPC", "err", "worst", "status",
    ]);
    for c in &confirmed {
        let err = c.simulated_ipc / c.point.predicted_ipc;
        t.row(vec![
            c.point.config.name.clone(),
            format!("{:.0}", c.point.cost),
            f2(c.point.predicted_ipc),
            f2(c.simulated_ipc),
            pct(err),
            format!("{:.0}%", c.worst_rel_err * 100.0),
            match (c.violation, c.point.on_frontier) {
                (true, _) => "VIOLATION".to_string(),
                (false, true) => "frontier".to_string(),
                (false, false) => "band".to_string(),
            },
        ]);
    }
    let frontier = confirmed.iter().filter(|c| c.point.on_frontier).count();
    let rendered = format!(
        "Analytic design-space exploration\n\
         grid: {} configurations x {} workloads = {} points scored analytically\n\
         pruned: {} configurations without simulation; confirming {} \
         ({} frontier + {} band, safety band {:.0}%)\n\n{}\n\
         envelope violations: {} (geomean-IPC error bound {:.0}%)\n",
        plan.configs.len(),
        plan.workloads.len(),
        scored,
        pruned,
        confirmed.len(),
        frontier,
        confirmed.len() - frontier,
        plan.band * 100.0,
        t.render(),
        envelope_violations,
        plan.envelope * 100.0,
    );
    ExploreOutcome {
        rendered,
        scored,
        pruned,
        confirmed,
        envelope_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RunEnv;

    #[test]
    fn default_grid_is_valid_and_unique() {
        let plan = Plan::default_grid();
        assert_eq!(plan.configs.len(), 120);
        assert_eq!(plan.workloads.len(), 3);
        let mut names: Vec<&str> = plan.configs.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), plan.configs.len(), "grid names must be unique");
    }

    #[test]
    fn cost_prices_links_and_sram() {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.link_gbps = 768.0;
        cfg.caches.l15_bytes_total = 0;
        let base = hardware_cost(&cfg);
        assert_eq!(base, 768.0 * 4.0);
        cfg.caches.l15_bytes_total = 16 * MIB;
        assert_eq!(hardware_cost(&cfg), base + 16.0 * 64.0);
    }

    #[test]
    fn explore_small_grid_prunes_and_confirms() {
        let mut plan = Plan::default_grid();
        // A tiny sub-grid keeps the test fast: one GPM count, all
        // links, no L1.5 axis.
        plan.configs.retain(|c| {
            c.topology.modules == 4 && c.caches.l15_bytes_total == 0 && c.name.ends_with("int-cen")
        });
        assert_eq!(plan.configs.len(), 5);
        plan.workloads = vec![suite::by_name("Stream").unwrap()];
        let mut memo = Memo::new(RunEnv::at_scale(0.005));
        let outcome = explore(&mut memo, &plan);
        assert_eq!(outcome.scored, 5);
        assert!(!outcome.confirmed.is_empty());
        assert!(outcome.pruned + outcome.confirmed.len() == 5);
        assert!(outcome.rendered.contains("envelope violations"));
        // Determinism: a second pass over a fresh memo renders the
        // identical report (the memo serves everything from cache the
        // second time within one process anyway; use a new one).
        let mut memo2 = Memo::new(RunEnv::at_scale(0.005));
        let outcome2 = explore(&mut memo2, &plan);
        assert_eq!(outcome.rendered, outcome2.rendered);
    }
}

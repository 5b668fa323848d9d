//! The reproduction scorecard: evaluates every headline claim of the
//! paper against this model and prints pass/fail per claim.
//!
//! "Pass" means the claim's *shape* holds — correct direction and a
//! magnitude inside a generous band around the paper's number — which is
//! the right bar for a rebuilt substrate with synthetic workloads (see
//! EXPERIMENTS.md). Exits nonzero if any claim fails, so this can act
//! as a regression gate.
//!
//! ```text
//! MCM_SCALE=0.5 cargo run --release -p mcm-bench --bin scorecard
//! ```

use mcm_bench::env::RunEnv;
use mcm_bench::harness::{geomean_speedup, telemetry_guard, Memo};
use mcm_gpu::SystemConfig;
use mcm_workloads::suite;

struct Claim {
    what: &'static str,
    paper: f64,
    measured: f64,
    /// Accepted band around the paper value, as (lo, hi) multipliers on
    /// the *gain* (measured-1 vs paper-1) or absolute ratio bounds.
    lo: f64,
    hi: f64,
}

impl Claim {
    fn passes(&self) -> bool {
        self.measured >= self.lo && self.measured <= self.hi
    }
}

fn main() {
    let env = RunEnv::from_env();
    let telemetry = telemetry_guard(&env);
    let mut memo = Memo::new(env);
    let all = suite::suite();
    eprintln!(
        "running the scorecard at MCM_SCALE={} (several minutes on one core)...",
        memo.scale()
    );

    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    let mono128 = SystemConfig::largest_buildable_monolithic();
    let mono256 = SystemConfig::hypothetical_monolithic_256();
    let mgpu_base = SystemConfig::multi_gpu_baseline();
    let mgpu_opt = SystemConfig::multi_gpu_optimized();

    // One warm of the whole 6-config x 48-workload grid across
    // MCM_JOBS workers; every claim below then reads the memo cache.
    let configs = [
        &baseline, &optimized, &mono128, &mono256, &mgpu_base, &mgpu_opt,
    ];
    let pairs: Vec<_> = configs
        .iter()
        .flat_map(|&c| all.iter().map(move |w| (c, w)))
        .collect();
    memo.warm(&pairs);

    let opt_vs_base = geomean_speedup(&memo, &all, &optimized, &baseline, None);
    let opt_vs_mono128 = geomean_speedup(&memo, &all, &optimized, &mono128, None);
    let opt_vs_mono256 = geomean_speedup(&memo, &all, &optimized, &mono256, None);
    let opt_vs_mgpu = geomean_speedup(&memo, &all, &optimized, &mgpu_base, None);
    let mgpu_opt_gain = geomean_speedup(&memo, &all, &mgpu_opt, &mgpu_base, None);

    let base_bytes: u64 = all
        .iter()
        .map(|w| memo.get(&baseline, w).inter_module_bytes)
        .sum();
    let opt_bytes: u64 = all
        .iter()
        .map(|w| memo.get(&optimized, w).inter_module_bytes)
        .sum();
    let reduction = base_bytes as f64 / opt_bytes.max(1) as f64;

    let claims = [
        Claim {
            what: "optimized MCM-GPU over baseline MCM-GPU (paper +22.8%)",
            paper: 1.228,
            measured: opt_vs_base,
            lo: 1.05,
            hi: 1.60,
        },
        Claim {
            what: "inter-GPM traffic reduction, optimized vs baseline (paper 5x)",
            paper: 5.0,
            measured: reduction,
            lo: 2.5,
            hi: 10.0,
        },
        Claim {
            what: "optimized MCM-GPU over 128-SM monolithic (paper +45.5%)",
            paper: 1.455,
            measured: opt_vs_mono128,
            lo: 1.15,
            hi: 1.90,
        },
        Claim {
            what: "optimized MCM-GPU vs unbuildable 256-SM monolithic (paper within 10%)",
            paper: 0.90,
            measured: opt_vs_mono256,
            lo: 0.70,
            hi: 1.02,
        },
        Claim {
            what: "optimized MCM-GPU over baseline multi-GPU (paper +51.9%)",
            paper: 1.519,
            measured: opt_vs_mgpu,
            lo: 1.15,
            hi: 2.30,
        },
        Claim {
            what: "optimized multi-GPU over baseline multi-GPU (paper +25.1%)",
            paper: 1.251,
            measured: mgpu_opt_gain,
            lo: 1.02,
            hi: 1.60,
        },
    ];

    println!(
        "MCM-GPU reproduction scorecard (MCM_SCALE={})\n",
        memo.scale()
    );
    let mut failed = 0;
    for c in &claims {
        let mark = if c.passes() { "PASS" } else { "FAIL" };
        if !c.passes() {
            failed += 1;
        }
        println!(
            "[{mark}] {:<72} paper {:>5.2}  measured {:>5.2}  accepted [{:.2}, {:.2}]",
            c.what, c.paper, c.measured, c.lo, c.hi
        );
    }
    println!(
        "\n{} of {} headline claims reproduced within band",
        claims.len() - failed,
        claims.len()
    );
    // An explicit drop: process::exit skips destructors, and the
    // failing path must still flush the MCM_TELEMETRY snapshot.
    drop(telemetry);
    if failed > 0 {
        std::process::exit(1);
    }
}

//! Seeded input generation. Every function here is a pure function of
//! its arguments: the same seed always yields the same pairs, grid and
//! request sequence, and the program under test only ever sees these
//! generated inputs.

use mcm_engine::rng::Xoshiro256;
use mcm_gpu::SystemConfig;
use mcm_workloads::{suite, Category, WorkloadSpec};

/// The four engine-distinct presets every workload draws from, by their
/// `serve` short names: ring without L1.5, 16 MB L1.5 + distributed
/// scheduling, the fully optimized machine (first touch, near-zero link
/// traffic), and the optimized machine on a fully connected mesh.
pub const PRESETS: [&str; 4] = ["baseline", "l15-ds", "optimized", "opt-fc"];

/// Per-category counts, in [`Category::ALL`] order (M, C, LP).
pub type PerCategory = [usize; 3];

/// How much work each workload does. [`Size::full`] is what the
/// benchmark command runs; [`Size::tiny`] keeps the benchmark's own
/// tests fast.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Instruction scale applied to every suite workload.
    pub scale: f64,
    /// `sim_serial`: workloads per preset and category.
    pub sim: PerCategory,
    /// `sweep`: workloads drawn per category (crossed with every preset).
    pub sweep: PerCategory,
    /// `sweep`: duplicate pairs appended to the grid.
    pub sweep_dups: usize,
    /// `sweep`: warm queries per cold sweep.
    pub warm_reps: usize,
    /// `sweep`: times each round answers its warm queries.
    pub warm_passes: usize,
    /// `serve_mixed`: pool pairs pre-warmed into the store, per preset.
    pub serve_warm: PerCategory,
    /// `serve_mixed`: pool pairs left cold (simulated by the daemon), per
    /// preset.
    pub serve_cold: PerCategory,
    /// `serve_mixed`: requests each client sends per daemon round.
    pub serve_requests: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's sizes. At this scale per-pair host cost falls in
    /// three clusters: limited-parallelism (LP) pairs ~3-11 ms,
    /// `baseline` M/C pairs ~45-135 ms, and M/C pairs on the L1.5
    /// presets ~180-750 ms; below this scale they barely get cheaper,
    /// since every warp already runs one or two instructions.
    /// `sim_serial` takes every LP workload on every preset, most of its
    /// pairs, so its median falls inside the LP cluster, on pairs no
    /// seed changes; its tail falls among the L1.5 C pairs. Few costly
    /// pairs keep a pass short (~4 s), so each pair is timed many times
    /// in a run and its fastest repeat catches the host at full speed.
    pub fn full() -> Size {
        Size {
            scale: 0.005,
            sim: [1, 4, 15],
            sweep: [0, 2, 12],
            sweep_dups: 8,
            warm_reps: 20,
            warm_passes: 10,
            serve_warm: [0, 0, 14],
            serve_cold: [0, 0, 1],
            serve_requests: 20,
            setup_reps: 15,
        }
    }

    /// A few limited-parallelism pairs at a tiny scale.
    pub fn tiny() -> Size {
        Size {
            scale: 0.001,
            sim: [0, 0, 1],
            sweep: [0, 0, 1],
            sweep_dups: 1,
            warm_reps: 2,
            warm_passes: 1,
            serve_warm: [0, 0, 1],
            serve_cold: [0, 0, 1],
            serve_requests: 4,
            setup_reps: 1,
        }
    }
}

/// One `(configuration, workload)` pair, by preset short name and
/// Table 4 workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    /// A [`PRESETS`] entry.
    pub preset: &'static str,
    /// A suite workload name.
    pub workload: &'static str,
}

impl Pair {
    /// The preset's configuration.
    pub fn config(&self) -> SystemConfig {
        config(self.preset)
    }

    /// The unscaled suite spec (what `Memo` takes).
    pub fn spec(&self) -> WorkloadSpec {
        suite::by_name(self.workload).expect("generated names come from the suite")
    }
}

/// The configuration behind a preset short name.
pub fn config(preset: &str) -> SystemConfig {
    mcm_bench::serve_backend::preset_table()
        .remove(preset)
        .expect("generated presets come from the serve preset table")
}

/// The suite's workload names of one category, in suite order.
pub fn names(category: Category) -> Vec<&'static str> {
    suite::suite()
        .into_iter()
        .filter(|w| w.category == category)
        .map(|w| w.name)
        .collect()
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut Xoshiro256, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// `k` distinct workloads of `category`, seeded and stratified by
/// instruction count: the category in instruction order (ties in seeded
/// order) is cut into `k` equal strata and one workload is drawn from
/// each, so every seed draws about the same mix of cheap and costly
/// workloads. A `k` of at least the category's size takes all of it.
/// The result is in seeded order.
fn sample(rng: &mut Xoshiro256, category: Category, k: usize) -> Vec<&'static str> {
    let mut all: Vec<WorkloadSpec> = suite::suite()
        .into_iter()
        .filter(|w| w.category == category)
        .collect();
    shuffle(rng, &mut all);
    let n = all.len();
    let mut picked: Vec<&'static str> = if k >= n {
        all.iter().map(|w| w.name).collect()
    } else {
        all.sort_by_key(WorkloadSpec::approx_instructions);
        (0..k)
            .map(|i| {
                let (lo, hi) = (i * n / k, (i + 1) * n / k);
                all[lo + rng.next_range((hi - lo) as u64) as usize].name
            })
            .collect()
    };
    shuffle(rng, &mut picked);
    picked
}

/// Stream tags keep the workloads' random streams independent.
const TAG_SIM: u64 = 1;
const TAG_SWEEP: u64 = 2;
const TAG_SERVE: u64 = 3;

/// `sim_serial`: per preset and category, `size.sim` workloads, in
/// seeded order. A category's workloads are drawn for all presets at
/// once and dealt out, so the run as a whole holds a stratified mix of
/// the category, and no workload runs twice unless the count covers the
/// whole category, which then runs on every preset.
pub fn sim_pairs(seed: u64, size: &Size) -> Vec<Pair> {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SIM]);
    let mut pairs = Vec::new();
    for (category, k) in Category::ALL.into_iter().zip(size.sim) {
        let all = names(category);
        if k >= all.len() {
            for preset in PRESETS {
                pairs.extend(all.iter().map(|&workload| Pair { preset, workload }));
            }
            continue;
        }
        let drawn = sample(&mut rng, category, k * PRESETS.len());
        for (preset, dealt) in PRESETS.into_iter().zip(drawn.chunks(k.max(1))) {
            pairs.extend(dealt.iter().map(|&workload| Pair { preset, workload }));
        }
    }
    shuffle(&mut rng, &mut pairs);
    pairs
}

/// The visiting order of pass `pass` over `n` pairs.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SIM, pass]);
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut rng, &mut order);
    order
}

/// `sweep`: `size.sweep` workloads per category, crossed with the four
/// [`PRESETS`], except that limited-parallelism workloads (a few ms
/// each) are crossed with every preset the serve backend knows, so the
/// grid holds enough records for its warm queries to be work rather
/// than fixed store-open cost; plus `size.sweep_dups` deliberate
/// duplicates, in seeded order.
pub fn sweep_grid(seed: u64, size: &Size) -> Vec<Pair> {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SWEEP]);
    let every_preset: Vec<&'static str> = mcm_bench::serve_backend::preset_table()
        .into_keys()
        .collect();
    let mut grid = Vec::new();
    for (category, k) in Category::ALL.into_iter().zip(size.sweep) {
        let presets: &[&'static str] = if category == Category::LimitedParallelism {
            &every_preset
        } else {
            &PRESETS
        };
        for workload in sample(&mut rng, category, k) {
            grid.extend(presets.iter().map(|&preset| Pair { preset, workload }));
        }
    }
    for _ in 0..size.sweep_dups {
        let dup = grid[rng.next_range(grid.len() as u64) as usize];
        grid.push(dup);
    }
    shuffle(&mut rng, &mut grid);
    grid
}

/// `sweep`'s warm queries over a grid of `len` entries: query `r` of
/// `reps` asks for a seeded `⌈(r + 1)·len / reps⌉` of them, so sizes
/// run from a few pairs up to the whole grid (the last query).
pub fn warm_queries(seed: u64, len: usize, reps: usize) -> Vec<Vec<usize>> {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SWEEP, 1]);
    (0..reps)
        .map(|r| {
            let mut q: Vec<usize> = (0..len).collect();
            shuffle(&mut rng, &mut q);
            q.truncate(((r + 1) * len).div_ceil(reps));
            q
        })
        .collect()
}

/// `serve_mixed`'s pair pool: per preset, the pairs pre-warmed into the
/// daemon's store and the pairs left for the daemon to simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePool {
    /// Stored before the daemon starts: served as hits.
    pub warm: Vec<Pair>,
    /// Not stored: the first request simulates, concurrent ones share.
    pub cold: Vec<Pair>,
}

impl ServePool {
    /// Warm then cold pairs.
    pub fn all(&self) -> Vec<Pair> {
        self.warm.iter().chain(&self.cold).copied().collect()
    }
}

/// Draws the serve pool: per preset and category, disjoint warm and
/// cold workload sets.
pub fn serve_pool(seed: u64, size: &Size) -> ServePool {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SERVE]);
    let mut pool = ServePool {
        warm: Vec::new(),
        cold: Vec::new(),
    };
    for preset in PRESETS {
        for (i, category) in Category::ALL.into_iter().enumerate() {
            let (w, c) = (size.serve_warm[i], size.serve_cold[i]);
            let picked = sample(&mut rng, category, w + c);
            for (j, workload) in picked.into_iter().enumerate() {
                let pair = Pair { preset, workload };
                if j < w {
                    pool.warm.push(pair);
                } else {
                    pool.cold.push(pair);
                }
            }
        }
    }
    pool
}

/// One sweep request: one preset crossed with 1-3 of its pool workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// The configuration.
    pub preset: &'static str,
    /// The workloads (may repeat one: an in-request duplicate).
    pub workloads: Vec<&'static str>,
}

/// The request sequence every daemon round replays, and both clients
/// send in lockstep: `size.serve_requests` requests whose presets and
/// sizes (1-3 pairs) cycle, so every seed asks for the same amount of
/// work. Each cold pair leads exactly one seeded request, which both
/// clients send at nearly the same moment: one answer simulates (`run`)
/// and the other subscribes to it (`shared`). Every other slot draws a
/// seeded warm pair (`hit`).
///
/// # Panics
///
/// Panics when a preset has more cold pairs than requests.
pub fn serve_requests(seed: u64, pool: &ServePool, size: &Size) -> Vec<SweepRequest> {
    let mut rng = Xoshiro256::seeded(&[seed, TAG_SERVE, 1]);
    let mut requests: Vec<SweepRequest> = (0..size.serve_requests)
        .map(|i| {
            let preset = PRESETS[i % PRESETS.len()];
            let warm: Vec<&'static str> = pool
                .warm
                .iter()
                .filter(|p| p.preset == preset)
                .map(|p| p.workload)
                .collect();
            let workloads = (0..1 + i % 3)
                .map(|_| warm[rng.next_range(warm.len() as u64) as usize])
                .collect();
            SweepRequest { preset, workloads }
        })
        .collect();
    for preset in PRESETS {
        let mut slots: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].preset == preset)
            .collect();
        shuffle(&mut rng, &mut slots);
        let cold: Vec<&Pair> = pool.cold.iter().filter(|p| p.preset == preset).collect();
        assert!(
            cold.len() <= slots.len(),
            "more cold pairs of {preset} than requests"
        );
        for (p, &slot) in cold.iter().zip(&slots) {
            requests[slot].workloads[0] = p.workload;
        }
    }
    requests
}

/// The first pair's workload that is not limited-parallelism (those
/// barely exercise the memory system), else the first pair's: the
/// workload the traced pass attributes.
pub fn traced_workload(pairs: &[Pair]) -> &'static str {
    pairs
        .iter()
        .find(|p| p.spec().category != Category::LimitedParallelism)
        .or(pairs.first())
        .expect("every workload has at least one pair")
        .workload
}

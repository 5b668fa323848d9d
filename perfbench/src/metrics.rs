//! Statistics, output checks and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use mcm_engine::rng::StableHasher;
use mcm_gpu::RunReport;
use mcm_serve::protocol::render_report;
use mcm_workloads::stream::cta_insts;
use mcm_workloads::WorkloadSpec;

/// The end-to-end metrics every workload prints, with their units.
/// Each workload defines its own unit operation (README.md maps every
/// metric to what it measures on each workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("sim_minst_per_s", "Minst/s"),
    ("pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Median of `v` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Every sample replaced by the fastest sample of the same operation
/// (samples are `(operation, value)`).
pub fn best_of(samples: &[(u64, f64)]) -> Vec<f64> {
    let mut best: HashMap<u64, f64> = HashMap::new();
    for &(op, v) in samples {
        let b = best.entry(op).or_insert(v);
        *b = b.min(v);
    }
    samples.iter().map(|(op, _)| best[op]).collect()
}

/// The percentiles a tail may be reported at. The ladder is coarse so
/// the chosen percentile stays fixed while the sample count moves by a
/// factor of a hundred: every workload's run of the benchmark lands on
/// p90, including `serve_mixed`, whose ~1000 requests per run would
/// otherwise flip between p90 and p99 from run to run.
pub const TAIL_LADDER: [f64; 3] = [0.5, 0.9, 0.999];

/// A tail latency: the percentile it was taken at, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Fraction in (0, 1), from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least ten samples
/// beyond it (nearest rank), falling back to the median when even that
/// has fewer.
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest rank; the epsilon keeps q·n that is integral on paper
    // (0.999 · 20000) from rounding up a rank.
    let rank = |q: f64| ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    let percentile = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n.saturating_sub(rank(q)) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    Tail {
        percentile,
        value: s.get(rank(percentile) - 1).copied().unwrap_or(0.0),
        samples: n,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Warp instructions a run of `spec` (already scaled) issues when no
/// load replays: every warp of every CTA of every launch, imbalance
/// included.
pub fn instruction_budget(spec: &WorkloadSpec) -> u64 {
    let per_launch: u64 = (0..spec.ctas)
        .map(|c| u64::from(cta_insts(spec, c)) * u64::from(spec.warps_per_cta))
        .sum();
    per_launch * u64::from(spec.kernel_iters)
}

/// Instruction conservation: a report never issues fewer instructions
/// than its spec's budget. Loads replayed after a full MSHR re-issue,
/// so MSHR-bound pairs may exceed it; the traced pass checks the
/// excess equals the replays exactly.
pub fn check_instructions(report: &RunReport, spec: &WorkloadSpec) -> Result<(), String> {
    let budget = instruction_budget(spec);
    if report.instructions < budget {
        return Err(format!(
            "({}, {}): {} instructions, below the spec's budget of {budget}",
            report.config, report.workload, report.instructions
        ));
    }
    Ok(())
}

/// The rendered report of every distinct simulated pair, for one digest
/// per run: a change that keeps simulated results keeps the digest.
#[derive(Debug, Default)]
pub struct Digest {
    reports: BTreeMap<(String, String), String>,
}

impl Digest {
    /// Records a report; a pair seen twice must render identically.
    pub fn add(&mut self, report: &RunReport) -> Result<(), String> {
        let key = (report.config.clone(), report.workload.clone());
        let rendered = render_report(report);
        match self.reports.get(&key) {
            Some(prev) if *prev != rendered => Err(format!(
                "({}, {}): two runs rendered different reports",
                key.0, key.1
            )),
            Some(_) => Ok(()),
            None => {
                self.reports.insert(key, rendered);
                Ok(())
            }
        }
    }

    /// FNV-1a over every `(config, workload, report)` in key order.
    pub fn value(&self) -> u64 {
        let mut h = StableHasher::new();
        for ((config, workload), rendered) in &self.reports {
            h.write_str(config);
            h.write_str(workload);
            h.write_str(rendered);
        }
        h.finish()
    }

    /// Distinct pairs recorded.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value; finite.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (a ratio over nothing) become 0.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, values printed with every digit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

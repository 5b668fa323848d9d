//! A wall-clock bench runner: warmup, N timed samples, median/p95.
//!
//! This replaces the `criterion` dependency for the workspace's
//! `harness = false` bench targets. It is deliberately simple — no
//! outlier rejection, no statistical tests — but batches fast closures
//! so sub-microsecond operations are measured against a ~millisecond
//! timer window rather than the timer's own overhead.
//!
//! ```no_run
//! use mcm_testkit::bench::Group;
//!
//! let mut g = Group::new("cache");
//! g.bench("access_hit", || 2 + 2);
//! ```

use std::time::Instant;

pub use std::hint::black_box;

/// Target wall-clock duration of one timed sample, in nanoseconds.
/// Fast closures are batched until a sample takes about this long.
const TARGET_SAMPLE_NS: f64 = 2_000_000.0;

/// The measured timings of one benchmark, in nanoseconds per call.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Group-qualified benchmark name (`group/bench`).
    pub name: String,
    /// Median over samples.
    pub median_ns: f64,
    /// 95th percentile over samples.
    pub p95_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Calls per timed sample (1 for slow closures).
    pub batch: u64,
    /// Number of timed samples.
    pub samples: u32,
}

impl Measurement {
    /// Calls per second implied by the median sample.
    ///
    /// # Panics
    ///
    /// Panics if `median_ns` is not a positive finite number — the
    /// runner clamps zero-duration samples to one nanosecond, so a
    /// non-positive median means the measurement was constructed by
    /// hand or corrupted, and any ratio built on it would be
    /// meaningless (a silent `inf`/`NaN` poisons every downstream
    /// geomean).
    pub fn ops_per_sec(&self) -> f64 {
        assert!(
            self.median_ns.is_finite() && self.median_ns > 0.0,
            "ops_per_sec on a non-positive median ({} ns) for {:?}",
            self.median_ns,
            self.name
        );
        1e9 / self.median_ns
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} median {:>10}  p95 {:>10}  min {:>10}  ({} samples x {} calls)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            fmt_ns(self.min_ns),
            self.samples,
            self.batch,
        )
    }
}

/// Clamps a measured duration to at least one nanosecond, warning
/// loudly the first time it fires. A coarse-grained clock (or a closure
/// the optimizer deleted) can report an elapsed time of exactly zero;
/// letting that through turns every per-call ratio and ops-per-second
/// figure downstream into `inf`.
fn nonzero_ns(elapsed_ns: f64, what: &str) -> f64 {
    if elapsed_ns > 0.0 {
        return elapsed_ns;
    }
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "mcm-testkit: zero-duration bench sample for {what:?} clamped to 1 ns \
             (timer too coarse for this closure; ratios would divide by zero)"
        );
    });
    1.0
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// A named group of benchmarks sharing sample settings, mirroring the
/// `criterion` group API the bench targets were written against.
#[derive(Debug)]
pub struct Group {
    name: String,
    warmup_samples: u32,
    samples: u32,
    results: Vec<Measurement>,
}

impl Group {
    /// Creates a group with default settings (2 warmup, 15 timed
    /// samples) and prints its header.
    pub fn new(name: &str) -> Self {
        println!("\n== {name} ==");
        Group {
            name: name.to_string(),
            warmup_samples: 2,
            samples: 15,
            results: Vec::new(),
        }
    }

    /// Sets the number of timed samples (useful for slow end-to-end
    /// closures).
    pub fn sample_size(&mut self, samples: u32) -> &mut Self {
        self.samples = samples.max(3);
        self
    }

    /// Measures `f`, prints one result line, and records it.
    ///
    /// The closure's return value is passed through [`black_box`] so
    /// the computation cannot be optimized away.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> &Measurement {
        // Calibrate: time a single call, then pick a batch size that
        // fills the target sample window.
        let t0 = Instant::now();
        black_box(f());
        let single_ns = (t0.elapsed().as_nanos() as f64).max(1.0);
        let batch = ((TARGET_SAMPLE_NS / single_ns) as u64).clamp(1, 50_000_000);

        for _ in 0..self.warmup_samples {
            for _ in 0..batch {
                black_box(f());
            }
        }
        let mut per_call: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                nonzero_ns(t.elapsed().as_nanos() as f64, name) / batch as f64
            })
            .collect();
        per_call.sort_by(|a, b| a.total_cmp(b));

        let m = Measurement {
            name: format!("{}/{name}", self.name),
            median_ns: quantile(&per_call, 0.5),
            p95_ns: quantile(&per_call, 0.95),
            min_ns: per_call[0],
            batch,
            samples: self.samples,
        };
        println!("{m}");
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Ends the group. Present for call-site symmetry with the
    /// criterion API; measurements are already printed as they finish.
    pub fn finish(&mut self) {}
}

/// Times a single call of `f` — no calibration pass, no warmup, no
/// batching — printing one result line and returning the closure's
/// output with the elapsed wall-clock seconds. For closures that
/// already run for seconds (whole-sweep comparisons, parallel-executor
/// speedup measurements) where [`Group::bench`]'s calibration call
/// would silently double the cost before the first timed sample.
pub fn bench_once<R, F: FnOnce() -> R>(name: &str, f: F) -> (R, f64) {
    let t = Instant::now();
    let out = black_box(f());
    let secs = nonzero_ns(t.elapsed().as_nanos() as f64, name) / 1e9;
    println!("{name:<40} {} (single shot)", fmt_ns(secs * 1e9));
    (out, secs)
}

/// The q-quantile of an ascending-sorted sample set (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_ordered_quantiles() {
        let mut g = Group::new("selftest");
        g.sample_size(5);
        let m = g.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.p95_ns);
        assert!(m.min_ns > 0.0);
        assert!(m.batch >= 1);
    }

    #[test]
    fn fast_closures_are_batched() {
        let mut g = Group::new("selftest_batch");
        g.sample_size(3);
        let m = g.bench("nop", || 1u64);
        assert!(m.batch > 1, "a ~1ns closure must batch, got {}", m.batch);
    }

    #[test]
    fn bench_once_returns_the_result_and_a_positive_time() {
        let (value, secs) = bench_once("selftest_once", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(value, (0..1000u64).sum());
        assert!(secs > 0.0);
    }

    #[test]
    fn zero_duration_samples_are_clamped() {
        // Regression: a coarse timer reading of exactly 0 ns used to
        // flow straight into per-call medians and ops-per-sec ratios.
        assert_eq!(nonzero_ns(0.0, "zero"), 1.0);
        assert_eq!(nonzero_ns(-3.0, "negative"), 1.0);
        assert_eq!(nonzero_ns(42.0, "normal"), 42.0);
        let (_, secs) = bench_once("selftest_instant", || ());
        assert!(secs > 0.0, "bench_once must never report zero seconds");
    }

    #[test]
    fn ops_per_sec_inverts_the_median() {
        let m = Measurement {
            name: "t/x".into(),
            median_ns: 100.0,
            p95_ns: 120.0,
            min_ns: 90.0,
            batch: 1,
            samples: 3,
        };
        assert!((m.ops_per_sec() - 1e7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "ops_per_sec on a non-positive median")]
    fn ops_per_sec_panics_loudly_on_zero_median() {
        let m = Measurement {
            name: "t/zero".into(),
            median_ns: 0.0,
            p95_ns: 0.0,
            min_ns: 0.0,
            batch: 1,
            samples: 3,
        };
        let _ = m.ops_per_sec();
    }

    #[test]
    fn quantile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn ns_formatting_scales_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 us");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50 s");
    }
}

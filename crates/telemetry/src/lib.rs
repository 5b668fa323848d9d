//! `mcm-telemetry`: fleet telemetry for the simulation infrastructure.
//!
//! The timing model already has first-class observability (`mcm-probe`:
//! traces, stall attribution). This crate instruments the layers that
//! *run* the simulations — the `mcm-exec` grid pool, the bench
//! harness's memo cache, the result store, the sweep daemon, and the
//! fault injector — with always-on, out-of-band metrics:
//!
//! * [`Counter`] — a monotonic atomic counter.
//! * [`Gauge`] — a last-value / high-watermark atomic cell.
//! * [`Histogram`] — fixed-bucket counts over caller-chosen bounds.
//!
//! Metrics live in a [`Registry`] under hierarchical `scope.metric`
//! names (`exec.tasks`, `memo.hits`, `store.puts`, …) and carry a
//! determinism [`Class`] that snapshots group by. The analytical fast
//! path reports under `analytic.*`: the model itself counts scored
//! predictions and calibration fits (`analytic.scored`,
//! `analytic.calibrations`), and the sweep planner counts grid points
//! pruned without simulation, survivors confirmed by the simulator,
//! and error-envelope violations (`analytic.pruned`,
//! `analytic.confirmed`, `analytic.envelope_violations`) — all
//! [`Class::Deterministic`]. The classes:
//!
//! * [`Class::Deterministic`] — identical across runs *and* across
//!   `MCM_JOBS` settings (grid items executed, task panics and
//!   retries, cache hits, fault events). Two runs of the same work
//!   must produce byte-identical values;
//!   `tests/telemetry_determinism.rs` pins it.
//! * [`Class::PerConfig`] — deterministic for a fixed knob setting but
//!   a function of it (pools started and workers spawned at a given
//!   job count, store hits at a given `MCM_STORE`).
//! * [`Class::Volatile`] — scheduling- or wall-clock-dependent
//!   (busy/idle nanoseconds, per-task latencies). Quarantined in its
//!   own clearly marked snapshot section so the reproducible sections
//!   can be diffed byte-for-byte.
//!
//! **Out-of-band contract.** Nothing in the simulator ever *reads* a
//! metric, so telemetry cannot perturb simulated time: every golden
//! cycle count, report, and artifact byte stream is identical with
//! telemetry running or ignored. Increments are relaxed atomics (or
//! thread-local accumulation flushed once), cheap enough to stay on in
//! every configuration — there is no off switch, only the choice of
//! whether to snapshot.
//!
//! Hermetic per the workspace rule: `std` only.
//!
//! # Example
//!
//! ```
//! use mcm_telemetry::{Class, Registry};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("memo.hits", Class::Deterministic);
//! hits.add(3);
//! assert_eq!(hits.get(), 3);
//! let snap = reg.snapshot();
//! assert!(snap.to_json("example").contains("\"memo.hits\":3"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod snapshot;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use snapshot::{Snapshot, Value};

/// How a metric behaves across runs — the property the snapshot
/// sections and the determinism suite key on. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Identical across runs and across `MCM_JOBS`.
    Deterministic,
    /// Deterministic given the knob settings, a function of them.
    PerConfig,
    /// Scheduling- or wall-clock-dependent; quarantined in snapshots.
    Volatile,
}

/// A monotonic counter. Clones share the same cell, so a handle can be
/// resolved once (off the hot path) and incremented from anywhere.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: last-set value or high watermark, caller's choice of which
/// methods to use.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is higher (high-watermark mode).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: `bounds` are inclusive upper edges in
/// ascending order, plus one implicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    counts: Arc<Vec<AtomicU64>>,
}

impl Histogram {
    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket upper edges this histogram was registered with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is
    /// overflow).
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }
}

/// The cells behind one registered metric.
#[derive(Debug, Clone)]
enum Cells {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Cells {
    fn kind(&self) -> &'static str {
        match self {
            Cells::Counter(_) => "counter",
            Cells::Gauge(_) => "gauge",
            Cells::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    class: Class,
    cells: Cells,
}

/// A namespace of metrics. Most code uses the process-wide [`global`]
/// registry; tests instantiate their own to stay isolated.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

/// Panics unless `name` is a valid `scope.metric` path: lowercase
/// alphanumerics and underscores, segments joined by single dots.
fn check_name(name: &str) {
    let valid = !name.is_empty()
        && !name.starts_with('.')
        && !name.ends_with('.')
        && !name.contains("..")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && name.contains('.');
    assert!(
        valid,
        "metric name {name:?} must be a dotted lowercase path like \"scope.metric\""
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry<F: FnOnce() -> Cells>(&self, name: &str, class: Class, make: F) -> Cells {
        check_name(name);
        let mut metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = metrics.entry(name.to_string()).or_insert_with(|| Entry {
            class,
            cells: make(),
        });
        assert!(
            entry.class == class,
            "metric {name:?} registered as {:?}, requested {class:?}",
            entry.class
        );
        entry.cells.clone()
    }

    /// Registers (or looks up) a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, or if `name` already exists with a
    /// different kind or class — a metric's meaning must not drift
    /// between call sites.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        match self.entry(name, class, || {
            Cells::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Cells::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or looks up) a gauge.
    ///
    /// # Panics
    ///
    /// As for [`Registry::counter`].
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        match self.entry(name, class, || {
            Cells::Gauge(Gauge {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Cells::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or looks up) a histogram over `bounds` (ascending
    /// inclusive upper edges; an overflow bucket is added).
    ///
    /// # Panics
    ///
    /// As for [`Registry::counter`], plus: empty or non-ascending
    /// bounds, or a bounds mismatch with an existing registration.
    pub fn histogram(&self, name: &str, class: Class, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name:?} needs bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly ascending"
        );
        match self.entry(name, class, || {
            Cells::Histogram(Histogram {
                bounds: Arc::new(bounds.to_vec()),
                counts: Arc::new((0..=bounds.len()).map(|_| AtomicU64::new(0)).collect()),
            })
        }) {
            Cells::Histogram(h) => {
                assert!(
                    h.bounds() == bounds,
                    "histogram {name:?} re-registered with different bounds"
                );
                h
            }
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Zeroes every cell (handles stay valid). For tests and the perf
    /// harness's per-repetition deltas.
    pub fn reset(&self) {
        let metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for entry in metrics.values() {
            match &entry.cells {
                Cells::Counter(c) => c.cell.store(0, Ordering::Relaxed),
                Cells::Gauge(g) => g.cell.store(0, Ordering::Relaxed),
                Cells::Histogram(h) => {
                    for c in h.counts.iter() {
                        c.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// A point-in-time copy of every metric, grouped by [`Class`].
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snap = Snapshot::default();
        for (name, entry) in metrics.iter() {
            let value = match &entry.cells {
                Cells::Counter(c) => Value::Counter(c.get()),
                Cells::Gauge(g) => Value::Gauge(g.get()),
                Cells::Histogram(h) => Value::Histogram {
                    bounds: h.bounds().to_vec(),
                    counts: h.counts(),
                },
            };
            snap.section_mut(entry.class).insert(name.clone(), value);
        }
        snap
    }
}

/// The process-wide registry every instrumented layer reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let reg = Registry::new();
        let a = reg.counter("t.hits", Class::Deterministic);
        let b = reg.counter("t.hits", Class::Deterministic);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_set_and_high_watermark() {
        let reg = Registry::new();
        let g = reg.gauge("t.depth", Class::PerConfig);
        g.record_max(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("t.sizes", Class::Volatile, &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn class_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("t.c", Class::Deterministic);
        let _ = reg.counter("t.c", Class::Volatile);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.gauge("t.g", Class::Volatile);
        let _ = reg.counter("t.g", Class::Volatile);
    }

    #[test]
    #[should_panic(expected = "dotted lowercase path")]
    fn undotted_names_are_rejected() {
        let _ = Registry::new().counter("hits", Class::Deterministic);
    }

    #[test]
    #[should_panic(expected = "dotted lowercase path")]
    fn uppercase_names_are_rejected() {
        let _ = Registry::new().counter("Memo.Hits", Class::Deterministic);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let reg = Registry::new();
        let c = reg.counter("t.n", Class::Deterministic);
        let h = reg.histogram("t.h", Class::PerConfig, &[1]);
        c.add(9);
        h.observe(0);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.total(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("selftest.global", Class::Volatile);
        global().counter("selftest.global", Class::Volatile).inc();
        assert!(a.get() >= 1);
    }
}

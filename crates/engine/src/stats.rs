//! Statistics primitives shared by every simulator component.
//!
//! These are intentionally tiny: a saturating [`Counter`] and a
//! hit/miss [`Ratio`], which components expose their internals through
//! so run reports can aggregate uniformly; the [`Tabular`]/[`ToCsv`]
//! row contract reports serialize through; and [`geomean`], the
//! paper's cross-workload aggregate. Execution-layer latency
//! distributions live in `mcm-telemetry`'s histograms.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use mcm_engine::stats::Counter;
///
/// let mut c = Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A numerator/denominator pair for hit rates and similar fractions.
///
/// # Example
///
/// ```
/// use mcm_engine::stats::Ratio;
///
/// let mut hits = Ratio::new();
/// hits.record(true);
/// hits.record(true);
/// hits.record(false);
/// assert!((hits.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates an empty ratio (rate reported as 0).
    pub const fn new() -> Self {
        Ratio { hits: 0, total: 0 }
    }

    /// Reconstructs a ratio from a previously observed numerator and
    /// denominator — the decode half of report (de)serialization, so a
    /// persisted ratio round-trips bit-exact.
    ///
    /// # Panics
    ///
    /// Panics when `hits > total`: no observation sequence can produce
    /// that state, so a decoder handing it in is reading garbage.
    pub fn from_parts(hits: u64, total: u64) -> Self {
        assert!(
            hits <= total,
            "Ratio::from_parts: hits ({hits}) exceeds total ({total})"
        );
        Ratio { hits, total }
    }

    /// Records one observation; `hit` increments the numerator.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator.
    pub const fn hits(self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub const fn total(self) -> u64 {
        self.total
    }

    /// Misses (denominator minus numerator).
    pub const fn misses(self) -> u64 {
        self.total - self.hits
    }

    /// The fraction of observations that hit, or `0.0` when empty.
    pub fn rate(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }

    /// Resets both counters.
    pub fn reset(&mut self) {
        *self = Ratio::new();
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.hits,
            self.total,
            self.rate() * 100.0
        )
    }
}

/// Row-oriented report serialization: a type that can present itself
/// as one row of a named-column table.
///
/// This is the workspace's replacement for external serialization
/// derives — run reports and other plain-data results implement it
/// once and every harness (CSV dumps, text tables) consumes the same
/// column contract. The CSV rendering itself comes for free through
/// the blanket [`ToCsv`] impl.
///
/// # Example
///
/// ```
/// use mcm_engine::stats::{Tabular, ToCsv};
///
/// struct Row { name: &'static str, cycles: u64 }
/// impl Tabular for Row {
///     const COLUMNS: &'static [&'static str] = &["name", "cycles"];
///     fn cells(&self) -> Vec<String> {
///         vec![self.name.to_string(), self.cycles.to_string()]
///     }
/// }
///
/// assert_eq!(Row::csv_header(), "name,cycles");
/// assert_eq!(Row { name: "a,b", cycles: 7 }.to_csv_row(), "\"a,b\",7");
/// ```
pub trait Tabular {
    /// Column names, in emission order.
    const COLUMNS: &'static [&'static str];

    /// The cells of one row; must match [`Tabular::COLUMNS`] in length.
    fn cells(&self) -> Vec<String>;
}

/// CSV rendering for any [`Tabular`] type (RFC-4180-style quoting).
pub trait ToCsv: Tabular {
    /// The comma-joined column names.
    fn csv_header() -> String {
        Self::COLUMNS.join(",")
    }

    /// This row as one CSV line, with cells quoted only when needed.
    fn to_csv_row(&self) -> String {
        let cells = self.cells();
        assert_eq!(
            cells.len(),
            Self::COLUMNS.len(),
            "Tabular::cells must match COLUMNS"
        );
        cells
            .iter()
            .map(|c| csv_escape(c))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl<T: Tabular> ToCsv for T {}

/// Quotes a CSV cell when it contains a comma, quote, or newline;
/// embedded quotes are doubled per RFC 4180.
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Renders a whole result set as CSV: header plus one line per row.
pub fn to_csv<'a, T, I>(rows: I) -> String
where
    T: Tabular + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let mut out = T::csv_header();
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_csv_row());
        out.push('\n');
    }
    out
}

/// Geometric mean of a slice of positive values — the aggregation the
/// paper uses for cross-workload speedups ("GeoMean" in Figs. 6, 9, 13).
///
/// # Panics
///
/// Panics on an empty slice — a geomean over zero members has no value,
/// and silently printing `0.00x` for one (the old behaviour) disguises
/// a harness bug as a catastrophic slowdown. Callers aggregating a
/// filtered subset should check the filter, not the result. Also panics
/// if any value is not strictly positive (a speedup of zero or a
/// negative speedup indicates a harness bug).
///
/// # Example
///
/// ```
/// use mcm_engine::stats::geomean;
///
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty(),
        "geomean of an empty set has no value; the caller's filter \
         selected zero members"
    );
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn ratio_rates_and_merge() {
        let mut a = Ratio::new();
        assert_eq!(a.rate(), 0.0);
        a.record(true);
        a.record(false);
        let mut b = Ratio::new();
        b.record(true);
        b.record(true);
        a.merge(b);
        assert_eq!(a.hits(), 3);
        assert_eq!(a.total(), 4);
        assert_eq!(a.misses(), 1);
        assert!((a.rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    /// Regression: an empty category must fail loudly, not report a
    /// phantom 0.00x speedup.
    #[test]
    #[should_panic(expected = "empty set has no value")]
    fn geomean_rejects_the_empty_set() {
        geomean(&[]);
    }

    struct Row(&'static str, u64);

    impl Tabular for Row {
        const COLUMNS: &'static [&'static str] = &["name", "value"];

        fn cells(&self) -> Vec<String> {
            vec![self.0.to_string(), self.1.to_string()]
        }
    }

    #[test]
    fn csv_escape_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn tabular_to_csv_round() {
        assert_eq!(Row::csv_header(), "name,value");
        assert_eq!(Row("a", 1).to_csv_row(), "a,1");
        let rendered = to_csv(&[Row("a", 1), Row("b,c", 2)]);
        assert_eq!(rendered, "name,value\na,1\n\"b,c\",2\n");
    }

    struct Ragged;

    impl Tabular for Ragged {
        const COLUMNS: &'static [&'static str] = &["one", "two"];

        fn cells(&self) -> Vec<String> {
            vec!["only".to_string()]
        }
    }

    #[test]
    #[should_panic(expected = "match COLUMNS")]
    fn ragged_rows_are_rejected() {
        let _ = Ragged.to_csv_row();
    }
}

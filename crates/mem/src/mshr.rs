//! Miss-status holding registers for split-transaction memory requests.
//!
//! Each SM's load/store unit owns an [`Mshr`]. When a load misses the
//! L1, the MSHR decides whether a fill for that line is already in
//! flight (the new load *coalesces* onto it and waits for the same
//! response), whether a new entry can be reserved (the load issues a
//! fresh request downstream), or whether the table is full (the warp
//! must stall and replay — the classic bound on a GPU's memory-level
//! parallelism).
//!
//! The table maps lines to caller-chosen request identifiers, so the
//! simulation loop that owns the in-flight request objects can attach
//! coalesced waiters to them. It is two flat arrays searched linearly:
//! at a few dozen entries a scan of adjacent words beats hashing, and
//! both arrays are sized once, at construction.

use mcm_engine::stats::Counter;

use crate::addr::LineAddr;

/// The decision for a load miss presented to the MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrLookup {
    /// A fill for this line is in flight under the returned request id;
    /// attach to it instead of issuing a duplicate.
    InFlight(u64),
    /// A free entry exists; call [`Mshr::reserve`] and issue downstream.
    CanIssue,
    /// All entries are busy; the warp must stall until some entry
    /// releases.
    Full,
}

/// A bounded table of in-flight line fills.
///
/// # Example
///
/// ```
/// use mcm_mem::addr::LineAddr;
/// use mcm_mem::mshr::{Mshr, MshrLookup};
///
/// let mut mshr = Mshr::new(2);
/// let line = LineAddr::new(9);
/// assert_eq!(mshr.lookup(line), MshrLookup::CanIssue);
/// mshr.reserve(line, 42);
/// // A second miss on the same line coalesces onto request 42.
/// assert_eq!(mshr.lookup(line), MshrLookup::InFlight(42));
/// mshr.release(line);
/// assert_eq!(mshr.lookup(line), MshrLookup::CanIssue);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    /// Lines with a fill in flight, in no particular order (a release
    /// moves the last entry into the freed one).
    lines: Vec<LineAddr>,
    /// The request id bound to each entry of `lines`.
    ids: Vec<u64>,
    coalesced: Counter,
    issued: Counter,
    stalls: Counter,
}

impl Mshr {
    /// Creates an MSHR with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Mshr {
            capacity,
            lines: Vec::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            coalesced: Counter::new(),
            issued: Counter::new(),
            stalls: Counter::new(),
        }
    }

    /// The entry index of `line`, if it has one.
    #[inline]
    fn entry(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Classifies a miss on `line` and updates statistics.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> MshrLookup {
        if let Some(i) = self.entry(line) {
            self.coalesced.inc();
            return MshrLookup::InFlight(self.ids[i]);
        }
        if self.lines.len() >= self.capacity {
            self.stalls.inc();
            return MshrLookup::Full;
        }
        self.issued.inc();
        MshrLookup::CanIssue
    }

    /// Reserves an entry binding `line` to the caller's request id.
    /// Call after [`MshrLookup::CanIssue`].
    ///
    /// # Panics
    ///
    /// Panics if the table is full or the line already has an entry —
    /// both indicate the caller skipped `lookup`.
    #[inline]
    pub fn reserve(&mut self, line: LineAddr, request: u64) {
        assert!(self.lines.len() < self.capacity, "MSHR overfilled");
        assert!(self.entry(line).is_none(), "line {line} already in flight");
        self.lines.push(line);
        self.ids.push(request);
    }

    /// Releases the entry for `line` when its fill completes; returns
    /// the request id it was bound to, if any.
    #[inline]
    pub fn release(&mut self, line: LineAddr) -> Option<u64> {
        let i = self.entry(line)?;
        self.lines.swap_remove(i);
        Some(self.ids.swap_remove(i))
    }

    /// Like [`Mshr::reserve`], additionally reporting the table's new
    /// occupancy for `sm` to `probe`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Mshr::reserve`].
    pub fn reserve_probed<P: mcm_probe::Probe>(
        &mut self,
        line: LineAddr,
        request: u64,
        sm: u32,
        now: mcm_engine::Cycle,
        probe: &mut P,
    ) {
        self.reserve(line, request);
        if P::ACTIVE {
            probe.mshr_occupancy(sm, now, self.lines.len() as u32, self.capacity as u32);
        }
    }

    /// Like [`Mshr::release`], additionally reporting the table's new
    /// occupancy for `sm` to `probe` when an entry was actually freed.
    pub fn release_probed<P: mcm_probe::Probe>(
        &mut self,
        line: LineAddr,
        sm: u32,
        now: mcm_engine::Cycle,
        probe: &mut P,
    ) -> Option<u64> {
        let released = self.release(line);
        if P::ACTIVE && released.is_some() {
            probe.mshr_occupancy(sm, now, self.lines.len() as u32, self.capacity as u32);
        }
        released
    }

    /// Whether at least one entry is free.
    pub fn has_free_entry(&self) -> bool {
        self.lines.len() < self.capacity
    }

    /// Fills currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.lines.len()
    }

    /// Misses merged into an in-flight fill.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.get()
    }

    /// Misses that issued a new downstream request.
    pub fn issued(&self) -> u64 {
        self.issued.get()
    }

    /// Misses that found the table full.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Clears all entries (end-of-kernel quiesce).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_same_line() {
        let mut m = Mshr::new(4);
        assert_eq!(m.lookup(LineAddr::new(1)), MshrLookup::CanIssue);
        m.reserve(LineAddr::new(1), 7);
        for _ in 0..3 {
            assert_eq!(m.lookup(LineAddr::new(1)), MshrLookup::InFlight(7));
        }
        assert_eq!(m.coalesced(), 3);
        assert_eq!(m.issued(), 1);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn full_table_stalls_and_release_frees() {
        let mut m = Mshr::new(2);
        m.lookup(LineAddr::new(1));
        m.reserve(LineAddr::new(1), 0);
        m.lookup(LineAddr::new(2));
        m.reserve(LineAddr::new(2), 1);
        assert!(!m.has_free_entry());
        assert_eq!(m.lookup(LineAddr::new(3)), MshrLookup::Full);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.release(LineAddr::new(1)), Some(0));
        assert!(m.has_free_entry());
        assert_eq!(m.lookup(LineAddr::new(3)), MshrLookup::CanIssue);
    }

    #[test]
    fn release_unknown_line_is_none() {
        let mut m = Mshr::new(2);
        assert_eq!(m.release(LineAddr::new(5)), None);
    }

    #[test]
    fn clear_resets() {
        let mut m = Mshr::new(2);
        m.lookup(LineAddr::new(1));
        m.reserve(LineAddr::new(1), 0);
        m.clear();
        assert_eq!(m.outstanding(), 0);
        assert!(m.has_free_entry());
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_reserve_panics() {
        let mut m = Mshr::new(2);
        m.reserve(LineAddr::new(1), 0);
        m.reserve(LineAddr::new(1), 1);
    }

    #[test]
    #[should_panic(expected = "MSHR overfilled")]
    fn reserve_past_capacity_panics() {
        let mut m = Mshr::new(1);
        m.reserve(LineAddr::new(1), 0);
        m.reserve(LineAddr::new(2), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        Mshr::new(0);
    }

    #[test]
    fn probed_reserve_and_release_report_occupancy() {
        use mcm_engine::Cycle;

        #[derive(Default)]
        struct Log(Vec<(u32, u32, u32)>);
        impl mcm_probe::Probe for Log {
            fn mshr_occupancy(&mut self, sm: u32, _now: Cycle, outstanding: u32, capacity: u32) {
                self.0.push((sm, outstanding, capacity));
            }
        }
        let mut log = Log::default();
        let mut m = Mshr::new(2);
        m.reserve_probed(LineAddr::new(1), 0, 5, Cycle::ZERO, &mut log);
        m.reserve_probed(LineAddr::new(2), 1, 5, Cycle::new(3), &mut log);
        assert_eq!(
            m.release_probed(LineAddr::new(1), 5, Cycle::new(9), &mut log),
            Some(0)
        );
        // Releasing a line with no entry reports nothing.
        assert_eq!(
            m.release_probed(LineAddr::new(7), 5, Cycle::new(10), &mut log),
            None
        );
        assert_eq!(log.0, vec![(5, 1, 2), (5, 2, 2), (5, 1, 2)]);
    }
}

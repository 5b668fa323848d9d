//! Set-associative caches with LRU replacement, allocation filters, and
//! fill-pending (MSHR-style) coalescing.

use std::fmt;

use mcm_engine::stats::{Counter, Ratio};
use mcm_engine::{Cycle, Resource};

use crate::addr::{AccessKind, LineAddr, Locality};

/// How the cache handles stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Stores propagate downstream on every write; lines are never dirty.
    /// The paper's L1 and L1.5 are write-through to support the
    /// software-based coherence scheme (§5.4, footnote 4).
    WriteThrough,
    /// Stores are absorbed; dirty lines are written back on eviction.
    /// The paper's memory-side L2 is write-back (§5.4).
    WriteBack,
}

/// Which accesses are allowed to allocate lines — the mechanism behind
/// the GPM-side L1.5 cache's *remote-only* policy (§5.1.2: "the best
/// allocation policy for the L1.5 cache is to only cache remote
/// accesses").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocFilter {
    /// Any miss may allocate.
    All,
    /// Only accesses to remote DRAM partitions allocate; local accesses
    /// bypass the cache entirely (they are not even looked up, per
    /// §5.1.1: "all local memory accesses will bypass the L1.5 cache").
    RemoteOnly,
    /// Only accesses to the local DRAM partition allocate (used by the
    /// rebalanced L2 when an L1.5 is present).
    LocalOnly,
    /// Set-dueling between [`AllocFilter::RemoteOnly`] and
    /// [`AllocFilter::All`]: a sparse group of leader sets is pinned to
    /// each static policy, their miss streams drive a saturating
    /// selector, and all other sets follow the currently winning policy
    /// — the DIP mechanism applied to the admission question §5.1.2
    /// settles statically. An extension beyond the paper.
    Adaptive,
}

impl AllocFilter {
    /// Whether an access with the given locality participates in this
    /// cache at all, for the static policies.
    ///
    /// # Panics
    ///
    /// Panics for [`AllocFilter::Adaptive`] — admission then depends on
    /// the set and selector state, so it must be asked through
    /// [`SetAssocCache::access`].
    #[inline]
    pub const fn admits(self, locality: Locality) -> bool {
        match self {
            AllocFilter::All => true,
            AllocFilter::RemoteOnly => locality.is_remote(),
            AllocFilter::LocalOnly => !locality.is_remote(),
            AllocFilter::Adaptive => {
                panic!("adaptive admission is per-set; ask the cache")
            }
        }
    }
}

/// Distance between leader sets in the adaptive filter: one in
/// `LEADER_STRIDE` sets leads for remote-only, the next for
/// cache-all.
const LEADER_STRIDE: u64 = 32;
/// Saturation bound of the policy selector.
const PSEL_MAX: i32 = 512;

/// Static configuration of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Diagnostic name ("L1", "L1.5", "L2-MP0", ...).
    pub name: &'static str,
    /// Total capacity in bytes; zero disables the cache (every access
    /// misses and nothing allocates).
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Tag + data access latency paid by hits.
    pub latency: Cycle,
    /// Latency paid by misses before the request continues downstream.
    /// Usually equal to `latency`; large side caches whose tag probe
    /// overlaps downstream routing (the GPM-side L1.5) set it lower.
    pub tag_latency: Cycle,
    /// Aggregate bank bandwidth in bytes/cycle. Caches are banked to
    /// saturate DRAM (§4), so this is generous by default.
    pub bandwidth: f64,
    /// Store handling.
    pub write_policy: WritePolicy,
    /// Allocation filter.
    pub alloc_filter: AllocFilter,
}

impl CacheConfig {
    /// A conventionally configured cache of `size_bytes` with 128-byte
    /// lines, 16 ways, 20-cycle latency, ample bandwidth, write-back,
    /// and no allocation filter.
    pub fn new(name: &'static str, size_bytes: u64) -> Self {
        CacheConfig {
            name,
            size_bytes,
            line_bytes: crate::addr::LINE_BYTES,
            ways: 16,
            latency: Cycle::new(20),
            tag_latency: Cycle::new(20),
            bandwidth: 1024.0,
            write_policy: WritePolicy::WriteBack,
            alloc_filter: AllocFilter::All,
        }
    }

    /// Number of sets implied by the geometry (at least 1 for an enabled
    /// cache).
    pub fn sets(&self) -> u64 {
        if self.size_bytes == 0 {
            0
        } else {
            (self.size_bytes / (self.line_bytes * u64::from(self.ways))).max(1)
        }
    }
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present. `ready_at` accounts for the access latency
    /// and, for a line still being filled, the pending fill time — which
    /// is how concurrent misses to the same line coalesce (MSHR
    /// behaviour).
    Hit {
        /// When the data is available to the requester.
        ready_at: Cycle,
    },
    /// The line was absent. If `allocate` is true the caller must fetch
    /// the line downstream and then call [`SetAssocCache::fill`];
    /// otherwise the access bypasses this level.
    Miss {
        /// Whether this access should fill the cache on return.
        allocate: bool,
        /// Earliest time the downstream request can depart this level.
        ready_at: Cycle,
    },
    /// The access does not participate in this cache at all (allocation
    /// filter), costing no latency here.
    Bypass,
}

/// A line evicted by a fill; `dirty` lines owe a writeback downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether the line was modified and must be written back.
    pub dirty: bool,
}

/// Aggregated statistics for one cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Hit/total ratio over demand accesses (excludes bypasses).
    pub accesses: Ratio,
    /// Lines evicted to make room for fills.
    pub evictions: Counter,
    /// Dirty evictions (write-back traffic generated).
    pub writebacks: Counter,
    /// Lines filled.
    pub fills: Counter,
    /// Accesses that bypassed the cache due to the allocation filter.
    pub bypasses: Counter,
    /// Flush operations (kernel-boundary invalidations).
    pub flushes: Counter,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// The cache epoch of the fill that installed this line: the line
    /// is valid only while this equals [`SetAssocCache`]'s epoch, so a
    /// flush invalidates every line by advancing the epoch.
    epoch: u32,
    dirty: bool,
    /// When the in-flight fill for this line lands (MSHR coalescing:
    /// hits on a pending line wait until it is ready).
    ready: Cycle,
    last_use: u64,
}

/// A way no fill has used yet. Epoch 0 is never current.
const EMPTY: Line = Line {
    tag: 0,
    epoch: 0,
    dirty: false,
    ready: Cycle::ZERO,
    last_use: 0,
};

/// A set-associative, LRU cache with write-through/write-back policies,
/// allocation filtering, and MSHR-style fill-pending coalescing.
///
/// The cache is a *timing* model over real tag state: `access` both
/// mutates the tag arrays and returns when the data is available, using
/// a bank-bandwidth [`Resource`] plus the configured latency.
///
/// Tag state costs what a run touches. A set's ways are materialised at
/// its first fill, appended to a line store whose full `sets × ways`
/// capacity is reserved at construction, so building a cache writes no
/// lines and filling one never allocates. A flush advances an epoch
/// instead of rewriting every line.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_mem::addr::{AccessKind, LineAddr, Locality};
/// use mcm_mem::cache::{CacheConfig, CacheOutcome, SetAssocCache};
///
/// let mut l2 = SetAssocCache::new(CacheConfig::new("L2", 1 << 20));
/// let line = LineAddr::new(42);
/// let now = Cycle::ZERO;
///
/// // Cold miss: the caller fetches downstream, then fills.
/// let CacheOutcome::Miss { allocate: true, .. } =
///     l2.access(now, line, AccessKind::Read, Locality::Local)
/// else { panic!("expected a cold miss") };
/// l2.fill(line, Cycle::new(120), false);
///
/// // Second access hits.
/// let CacheOutcome::Hit { .. } =
///     l2.access(Cycle::new(200), line, AccessKind::Read, Locality::Local)
/// else { panic!("expected a hit") };
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per set: 0 until its first fill, then 1 + the index of its ways
    /// in `lines`, counted in sets.
    slots: Vec<u32>,
    /// The materialised sets' ways, `ways` lines per set in first-fill
    /// order.
    lines: Vec<Line>,
    /// The stamp a line needs to be valid; never 0.
    epoch: u32,
    /// Valid lines marked dirty: what the next flush returns.
    dirty_lines: u64,
    n_sets: u64,
    ways: usize,
    ports: Resource,
    use_clock: u64,
    /// Set-dueling selector for [`AllocFilter::Adaptive`]: positive
    /// means cache-all is winning, negative remote-only.
    psel: i32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds a cache from its configuration. A zero-sized configuration
    /// yields a disabled cache on which every access is a non-allocating
    /// miss.
    ///
    /// # Panics
    ///
    /// Panics, naming the cache, if `ways` or `line_bytes` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.ways > 0,
            "cache {}: ways must be non-zero",
            config.name
        );
        assert!(
            config.line_bytes > 0,
            "cache {}: line_bytes must be non-zero",
            config.name
        );
        let n_sets = config.sets();
        let ways = if config.size_bytes == 0 {
            0
        } else {
            // For tiny caches the configured associativity may exceed
            // capacity; clamp so geometry stays consistent.
            (config.size_bytes / config.line_bytes)
                .min(u64::from(config.ways))
                .max(1) as usize
        };
        let ports = Resource::new(config.name, config.bandwidth);
        SetAssocCache {
            slots: vec![0; n_sets as usize],
            lines: Vec::with_capacity(n_sets as usize * ways),
            epoch: 1,
            dirty_lines: 0,
            n_sets,
            ways,
            ports,
            use_clock: 0,
            psel: 0,
            config,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Whether the cache has zero capacity.
    pub fn is_disabled(&self) -> bool {
        self.config.size_bytes == 0
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `true` when stores must propagate downstream on every write.
    pub fn is_write_through(&self) -> bool {
        self.config.write_policy == WritePolicy::WriteThrough
    }

    /// Hash the line index into a set rather than using the low bits
    /// directly: the machine interleaves lines across partitions by the
    /// same low bits (`line % modules`), so a modulo index would alias —
    /// each partition's cache would only ever populate 1/Nth of its
    /// sets. Real GPUs XOR-hash their index bits for the same reason.
    #[inline]
    fn set_of(&self, line: LineAddr) -> u64 {
        let mut z = line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z % self.n_sets
    }

    /// Where the ways of `line`'s set start in `lines`, or `None` while
    /// the set has never been filled.
    #[inline]
    fn base_of(&self, line: LineAddr) -> Option<usize> {
        let slot = self.slots[self.set_of(line) as usize] as usize;
        slot.checked_sub(1).map(|s| s * self.ways)
    }

    /// The admission policy in force for `line` under the adaptive
    /// filter, and whether this is a leader set whose outcome should
    /// train the selector.
    fn adaptive_policy(&self, line: LineAddr) -> (AllocFilter, Option<AllocFilter>) {
        let set = self.set_of(line);
        match set % LEADER_STRIDE {
            0 => (AllocFilter::RemoteOnly, Some(AllocFilter::RemoteOnly)),
            1 => (AllocFilter::All, Some(AllocFilter::All)),
            _ if self.psel >= 0 => (AllocFilter::All, None),
            _ => (AllocFilter::RemoteOnly, None),
        }
    }

    /// Trains the selector on a leader-set miss (a bypass of a local
    /// access counts as a miss the other policy might have avoided).
    fn train_psel(&mut self, leader: AllocFilter) {
        match leader {
            // The remote-only leader missed: evidence for cache-all.
            AllocFilter::RemoteOnly => self.psel = (self.psel + 1).min(PSEL_MAX),
            // The cache-all leader missed: evidence for remote-only.
            AllocFilter::All => self.psel = (self.psel - 1).max(-PSEL_MAX),
            _ => {}
        }
    }

    /// Performs a demand access at `now`.
    ///
    /// Accesses rejected by the allocation filter return
    /// [`CacheOutcome::Bypass`] without touching tag state or consuming
    /// bank bandwidth.
    #[inline]
    pub fn access(
        &mut self,
        now: Cycle,
        line: LineAddr,
        kind: AccessKind,
        locality: Locality,
    ) -> CacheOutcome {
        let (effective, leader) = if self.config.alloc_filter == AllocFilter::Adaptive {
            self.adaptive_policy(line)
        } else {
            (self.config.alloc_filter, None)
        };
        if !effective.admits(locality) {
            self.stats.bypasses.inc();
            if let Some(l) = leader {
                // A bypassed access is a guaranteed miss under this
                // leader's policy.
                self.train_psel(l);
            }
            return CacheOutcome::Bypass;
        }
        if self.is_disabled() {
            self.stats.accesses.record(false);
            return CacheOutcome::Miss {
                allocate: false,
                ready_at: now,
            };
        }
        let port_done = self.ports.service(now, self.config.line_bytes);
        let hit_ready = port_done.max(now + self.config.latency);
        let miss_ready = port_done.max(now + self.config.tag_latency);
        self.use_clock += 1;
        let clock = self.use_clock;
        let tag = line.index();
        let write_back = self.config.write_policy == WritePolicy::WriteBack;
        if let Some(base) = self.base_of(line) {
            for way in &mut self.lines[base..base + self.ways] {
                if way.epoch == self.epoch && way.tag == tag {
                    way.last_use = clock;
                    if kind.is_write() && write_back && !way.dirty {
                        way.dirty = true;
                        self.dirty_lines += 1;
                    }
                    self.stats.accesses.record(true);
                    return CacheOutcome::Hit {
                        ready_at: hit_ready.max(way.ready),
                    };
                }
            }
        }
        self.stats.accesses.record(false);
        if let Some(l) = leader {
            self.train_psel(l);
        }
        // Write misses allocate only under write-back (fetch-on-write);
        // write-through caches use write-around for stores.
        let allocate = !kind.is_write() || write_back;
        CacheOutcome::Miss {
            allocate,
            ready_at: miss_ready,
        }
    }

    /// Like [`SetAssocCache::access`], additionally reporting the
    /// hit/miss decision to `probe` under this cache's configured name
    /// and the caller-chosen `unit` index (SM for private caches,
    /// module for shared ones).
    ///
    /// Bypasses and disabled-cache accesses never touch the tag array,
    /// carry no hit-rate signal, and are not reported. When `P` is the
    /// no-op probe this compiles down to a plain `access` call.
    pub fn access_probed<P: mcm_probe::Probe>(
        &mut self,
        now: Cycle,
        line: LineAddr,
        kind: AccessKind,
        locality: Locality,
        unit: u32,
        probe: &mut P,
    ) -> CacheOutcome {
        let outcome = self.access(now, line, kind, locality);
        if P::ACTIVE && !self.is_disabled() {
            match outcome {
                CacheOutcome::Hit { .. } => probe.cache_access(self.config.name, unit, now, true),
                CacheOutcome::Miss { .. } => probe.cache_access(self.config.name, unit, now, false),
                CacheOutcome::Bypass => {}
            }
        }
        outcome
    }

    /// Installs `line`, which becomes available at `ready`; returns the
    /// eviction performed to make room, if any.
    ///
    /// `dirty` marks the line modified on arrival (a write-back cache
    /// filling for a store).
    ///
    /// Filling a disabled cache is a no-op returning `None`.
    pub fn fill(&mut self, line: LineAddr, ready: Cycle, dirty: bool) -> Option<Eviction> {
        if self.is_disabled() {
            return None;
        }
        self.use_clock += 1;
        let clock = self.use_clock;
        let tag = line.index();
        let epoch = self.epoch;
        let set = self.set_of(line) as usize;
        if self.slots[set] == 0 {
            // First fill of this set: append its ways. The store's
            // capacity was reserved for every set, so this never
            // reallocates.
            let slot = self.lines.len() / self.ways + 1;
            self.slots[set] = u32::try_from(slot).expect("set count fits the slot table");
            self.lines.resize(slot * self.ways, EMPTY);
        }
        let base = (self.slots[set] as usize - 1) * self.ways;
        let set = &mut self.lines[base..base + self.ways];
        // Already present (e.g. racing fills): refresh. The line's data
        // is usable as soon as the *first* fill lands — a second
        // in-flight fill must not push availability back out, so keep
        // the earlier ready time.
        if let Some(way) = set.iter_mut().find(|w| w.epoch == epoch && w.tag == tag) {
            way.ready = way.ready.min(ready);
            if dirty && !way.dirty {
                way.dirty = true;
                self.dirty_lines += 1;
            }
            way.last_use = clock;
            return None;
        }
        self.stats.fills.inc();
        let victim = match set.iter().position(|w| w.epoch != epoch) {
            Some(free) => &mut set[free],
            None => set
                .iter_mut()
                .min_by_key(|w| w.last_use)
                .expect("cache sets are never zero-way"),
        };
        let evicted = if victim.epoch == epoch {
            self.stats.evictions.inc();
            if victim.dirty {
                self.stats.writebacks.inc();
                self.dirty_lines -= 1;
            }
            Some(Eviction {
                line: LineAddr::new(victim.tag),
                dirty: victim.dirty,
            })
        } else {
            None
        };
        self.dirty_lines += u64::from(dirty);
        *victim = Line {
            tag,
            epoch,
            dirty,
            ready,
            last_use: clock,
        };
        evicted
    }

    /// Whether `line` is currently resident (testing/diagnostics; does
    /// not update LRU or stats).
    pub fn contains(&self, line: LineAddr) -> bool {
        if self.is_disabled() {
            return false;
        }
        let tag = line.index();
        self.base_of(line).is_some_and(|base| {
            self.lines[base..base + self.ways]
                .iter()
                .any(|w| w.epoch == self.epoch && w.tag == tag)
        })
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|w| w.epoch == self.epoch).count()
    }

    /// Invalidates the entire cache (the software-coherence kernel
    /// boundary flush of §5.1.1), returning the number of dirty lines
    /// discarded — which the caller turns into write-back traffic for
    /// write-back caches.
    ///
    /// O(1): advancing the epoch invalidates every line at once. Only
    /// when the epoch wraps, once per 2³² − 1 flushes, are the sets
    /// forgotten outright, so no stale stamp can come current again.
    pub fn flush(&mut self) -> u64 {
        if self.is_disabled() {
            return 0;
        }
        self.stats.flushes.inc();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(0);
            self.lines.clear();
            self.epoch = 1;
        }
        std::mem::take(&mut self.dirty_lines)
    }

    /// Bytes of traffic one line transfer represents at this level.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KiB, {}-way, {} sets, hits {}",
            self.config.name,
            self.config.size_bytes / 1024,
            self.ways,
            self.n_sets,
            self.stats.accesses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: u32, sets: u64) -> SetAssocCache {
        let mut cfg = CacheConfig::new("t", ways as u64 * sets * 128);
        cfg.ways = ways;
        cfg.latency = Cycle::new(4);
        cfg.tag_latency = Cycle::new(4);
        SetAssocCache::new(cfg)
    }

    fn read(c: &mut SetAssocCache, at: u64, line: u64) -> CacheOutcome {
        c.access(
            Cycle::new(at),
            LineAddr::new(line),
            AccessKind::Read,
            Locality::Local,
        )
    }

    #[test]
    fn probed_access_reports_hits_and_misses_not_bypasses() {
        #[derive(Default)]
        struct Log(Vec<(&'static str, u32, bool)>);
        impl mcm_probe::Probe for Log {
            fn cache_access(&mut self, cache: &'static str, unit: u32, _now: Cycle, hit: bool) {
                self.0.push((cache, unit, hit));
            }
        }
        let mut log = Log::default();
        let mut c = small(4, 16);
        let line = LineAddr::new(7);
        c.access_probed(
            Cycle::ZERO,
            line,
            AccessKind::Read,
            Locality::Local,
            3,
            &mut log,
        );
        c.fill(line, Cycle::ZERO, false);
        c.access_probed(
            Cycle::new(10),
            line,
            AccessKind::Read,
            Locality::Local,
            3,
            &mut log,
        );
        assert_eq!(log.0, vec![("t", 3, false), ("t", 3, true)]);

        // A filter-rejected access never touches the tags and stays
        // invisible to the probe.
        let mut cfg = CacheConfig::new("ro", 4 * 16 * 128);
        cfg.alloc_filter = AllocFilter::RemoteOnly;
        let mut ro = SetAssocCache::new(cfg);
        let out = ro.access_probed(
            Cycle::ZERO,
            line,
            AccessKind::Read,
            Locality::Local,
            0,
            &mut log,
        );
        assert!(matches!(out, CacheOutcome::Bypass));
        assert_eq!(log.0.len(), 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(4, 16);
        match read(&mut c, 0, 7) {
            CacheOutcome::Miss { allocate: true, .. } => {}
            other => panic!("expected allocating miss, got {other:?}"),
        }
        c.fill(LineAddr::new(7), Cycle::new(100), false);
        match read(&mut c, 200, 7) {
            CacheOutcome::Hit { ready_at } => assert_eq!(ready_at, Cycle::new(204)),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().accesses.hits(), 1);
        assert_eq!(c.stats().accesses.total(), 2);
    }

    #[test]
    fn pending_fill_coalesces() {
        let mut c = small(4, 16);
        read(&mut c, 0, 9);
        c.fill(LineAddr::new(9), Cycle::new(500), false);
        // A hit at t=10 on the pending line waits for the fill.
        match read(&mut c, 10, 9) {
            CacheOutcome::Hit { ready_at } => assert_eq!(ready_at, Cycle::new(500)),
            other => panic!("expected pending hit, got {other:?}"),
        }
        // After the fill lands, latency dominates.
        match read(&mut c, 600, 9) {
            CacheOutcome::Hit { ready_at } => assert_eq!(ready_at, Cycle::new(604)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways.
        let mut c = small(2, 1);
        c.fill(LineAddr::new(1), Cycle::ZERO, false);
        c.fill(LineAddr::new(2), Cycle::ZERO, false);
        read(&mut c, 10, 1); // 1 is now MRU
        let ev = c.fill(LineAddr::new(3), Cycle::ZERO, false).unwrap();
        assert_eq!(ev.line, LineAddr::new(2));
        assert!(c.contains(LineAddr::new(1)));
        assert!(c.contains(LineAddr::new(3)));
        assert!(!c.contains(LineAddr::new(2)));
    }

    #[test]
    fn writeback_cache_marks_dirty_and_writes_back() {
        let mut c = small(1, 1);
        c.fill(LineAddr::new(5), Cycle::ZERO, false);
        c.access(
            Cycle::new(1),
            LineAddr::new(5),
            AccessKind::Write,
            Locality::Local,
        );
        let ev = c.fill(LineAddr::new(6), Cycle::ZERO, false).unwrap();
        assert!(ev.dirty, "written line must be evicted dirty");
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn write_through_never_dirties_and_write_misses_do_not_allocate() {
        let mut cfg = CacheConfig::new("wt", 16 * 128);
        cfg.write_policy = WritePolicy::WriteThrough;
        cfg.ways = 1;
        let mut c = SetAssocCache::new(cfg);
        // Write miss: no allocation requested.
        match c.access(
            Cycle::ZERO,
            LineAddr::new(1),
            AccessKind::Write,
            Locality::Local,
        ) {
            CacheOutcome::Miss { allocate, .. } => assert!(!allocate),
            other => panic!("expected miss, got {other:?}"),
        }
        // Write hit: line stays clean.
        c.fill(LineAddr::new(2), Cycle::ZERO, false);
        c.access(
            Cycle::ZERO,
            LineAddr::new(2),
            AccessKind::Write,
            Locality::Local,
        );
        assert_eq!(c.flush(), 0, "write-through cache has no dirty lines");
    }

    #[test]
    fn remote_only_filter_bypasses_local() {
        let mut cfg = CacheConfig::new("l15", 16 * 128);
        cfg.alloc_filter = AllocFilter::RemoteOnly;
        let mut c = SetAssocCache::new(cfg);
        assert_eq!(
            c.access(
                Cycle::ZERO,
                LineAddr::new(1),
                AccessKind::Read,
                Locality::Local
            ),
            CacheOutcome::Bypass
        );
        assert_eq!(c.stats().bypasses.get(), 1);
        assert_eq!(c.stats().accesses.total(), 0);
        // Remote accesses participate normally.
        match c.access(
            Cycle::ZERO,
            LineAddr::new(1),
            AccessKind::Read,
            Locality::Remote,
        ) {
            CacheOutcome::Miss { allocate: true, .. } => {}
            other => panic!("expected allocating miss, got {other:?}"),
        }
    }

    #[test]
    fn disabled_cache_misses_everything() {
        let mut c = SetAssocCache::new(CacheConfig::new("off", 0));
        assert!(c.is_disabled());
        match read(&mut c, 0, 3) {
            CacheOutcome::Miss {
                allocate: false,
                ready_at,
            } => assert_eq!(ready_at, Cycle::ZERO),
            other => panic!("expected non-allocating miss, got {other:?}"),
        }
        assert_eq!(c.fill(LineAddr::new(3), Cycle::ZERO, false), None);
        assert!(!c.contains(LineAddr::new(3)));
    }

    #[test]
    fn flush_invalidates_and_counts_dirty() {
        let mut c = small(4, 4);
        c.fill(LineAddr::new(1), Cycle::ZERO, true);
        c.fill(LineAddr::new(2), Cycle::ZERO, false);
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(c.flush(), 1);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(LineAddr::new(1)));
        assert_eq!(c.stats().flushes.get(), 1);
    }

    #[test]
    fn duplicate_fill_refreshes_not_duplicates() {
        let mut c = small(2, 1);
        c.fill(LineAddr::new(1), Cycle::new(10), false);
        c.fill(LineAddr::new(1), Cycle::new(5), true);
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.stats().fills.get(), 1);
        // Dirty bit sticks from the second fill.
        let ev1 = c.fill(LineAddr::new(2), Cycle::ZERO, false);
        assert!(ev1.is_none(), "second way was free");
        let ev2 = c.fill(LineAddr::new(3), Cycle::ZERO, false).unwrap();
        assert_eq!(ev2.line, LineAddr::new(1));
        assert!(ev2.dirty);
    }

    #[test]
    fn racing_fills_keep_the_earlier_ready_time() {
        // Two in-flight fills for one line resolve with different data-
        // ready times (e.g. an L1.5 fill racing a second miss's fill).
        // The line is usable the moment the *earlier* data lands; a
        // later-resolving duplicate must not push availability back.
        // Regression: `fill` used to take `way.ready.max(ready)`,
        // delaying already-delivered data.
        for order in [[100u64, 50], [50, 100]] {
            let mut c = small(2, 1);
            c.fill(LineAddr::new(7), Cycle::new(order[0]), false);
            c.fill(LineAddr::new(7), Cycle::new(order[1]), false);
            match read(&mut c, 0, 7) {
                CacheOutcome::Hit { ready_at } => assert_eq!(
                    ready_at,
                    Cycle::new(50),
                    "fill order {order:?} must expose the earlier ready time"
                ),
                other => panic!("expected a hit, got {other:?}"),
            }
        }
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small(4, 8); // 32 lines
        for i in 0..1000 {
            c.fill(LineAddr::new(i), Cycle::ZERO, false);
        }
        assert!(c.resident_lines() <= 32);
    }

    #[test]
    fn bank_bandwidth_throttles() {
        let mut cfg = CacheConfig::new("slow", 1 << 20);
        cfg.bandwidth = 1.0; // 1 byte/cycle: each 128 B access takes 128 cycles
        cfg.latency = Cycle::new(1);
        let mut c = SetAssocCache::new(cfg);
        c.fill(LineAddr::new(1), Cycle::ZERO, false);
        let first = match read(&mut c, 0, 1) {
            CacheOutcome::Hit { ready_at } => ready_at,
            other => panic!("{other:?}"),
        };
        let second = match read(&mut c, 0, 1) {
            CacheOutcome::Hit { ready_at } => ready_at,
            other => panic!("{other:?}"),
        };
        assert_eq!(first, Cycle::new(128));
        assert_eq!(second, Cycle::new(256));
    }

    #[test]
    fn adaptive_filter_leader_sets_duel() {
        // Enough sets that both leader kinds exist (stride 32).
        let mut cfg = CacheConfig::new("adp", 64 * 16 * 128); // 64 sets x 16 ways
        cfg.alloc_filter = AllocFilter::Adaptive;
        let mut c = SetAssocCache::new(cfg);
        // A purely LOCAL miss stream: remote-only leaders bypass (their
        // misses train towards cache-all), cache-all leaders miss cold
        // then hit on reuse. After training, follower sets should admit
        // local lines (cache-all behaviour wins for local-heavy reuse).
        for round in 0..40 {
            for i in 0..2048u64 {
                let out = c.access(
                    Cycle::new(round * 10_000 + i),
                    LineAddr::new(i % 256),
                    AccessKind::Read,
                    Locality::Local,
                );
                if let CacheOutcome::Miss { allocate: true, .. } = out {
                    c.fill(
                        LineAddr::new(i % 256),
                        Cycle::new(round * 10_000 + i),
                        false,
                    );
                }
            }
        }
        // Follower sets admitted local lines: overall hit rate is high.
        assert!(
            c.stats().accesses.rate() > 0.5,
            "adaptive filter failed to learn cache-all for local reuse: {}",
            c.stats().accesses
        );
    }

    #[test]
    fn adaptive_filter_runs_with_remote_streams_too() {
        let mut cfg = CacheConfig::new("adp", 64 * 16 * 128);
        cfg.alloc_filter = AllocFilter::Adaptive;
        let mut c = SetAssocCache::new(cfg);
        for i in 0..4096u64 {
            let loc = if i % 2 == 0 {
                Locality::Remote
            } else {
                Locality::Local
            };
            if let CacheOutcome::Miss { allocate: true, .. } =
                c.access(Cycle::new(i), LineAddr::new(i % 512), AccessKind::Read, loc)
            {
                c.fill(LineAddr::new(i % 512), Cycle::new(i), false);
            }
        }
        // Sanity: it ran, admitted remote traffic, and kept accounting.
        assert!(c.stats().accesses.total() > 0);
        assert!(c.resident_lines() > 0);
    }

    #[test]
    #[should_panic(expected = "adaptive admission is per-set")]
    fn adaptive_admits_must_go_through_the_cache() {
        let _ = AllocFilter::Adaptive.admits(Locality::Local);
    }

    #[test]
    fn epoch_wrap_invalidates_every_line_and_counts_dirty() {
        let mut c = small(4, 8);
        // A line filled in epoch 1, flushed, then left stale while the
        // epoch runs up to its last value: after the wrap its old stamp
        // equals the current epoch again, and it must stay invalid.
        let stale = LineAddr::new(100);
        c.fill(stale, Cycle::ZERO, true);
        assert_eq!(c.flush(), 1);
        c.epoch = u32::MAX;
        let fresh: Vec<u64> = (0..40)
            .filter(|&i| c.set_of(LineAddr::new(i)) != c.set_of(stale))
            .take(20)
            .collect();
        for &i in &fresh {
            c.fill(LineAddr::new(i), Cycle::ZERO, i % 3 == 0);
        }
        let dirty = fresh
            .iter()
            .filter(|&&i| i % 3 == 0 && c.contains(LineAddr::new(i)))
            .count() as u64;
        assert!(dirty > 0 && c.resident_lines() > 0);
        assert_eq!(c.flush(), dirty);
        assert_eq!(c.epoch, 1);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(stale), "a pre-wrap stamp came current again");
        for &i in &fresh {
            assert!(!c.contains(LineAddr::new(i)), "line {i} survived the wrap");
        }
        // The cache keeps working after the wrap.
        c.fill(LineAddr::new(7), Cycle::ZERO, true);
        assert!(c.contains(LineAddr::new(7)));
        assert_eq!(c.flush(), 1);
        assert_eq!(c.stats().flushes.get(), 3);
    }

    #[test]
    fn filling_every_set_never_grows_the_line_store() {
        let mut c = small(4, 64);
        let capacity = c.lines.capacity();
        assert!(capacity >= 64 * 4);
        assert!(c.lines.is_empty(), "building a cache writes no lines");
        let mut line = 0;
        for _ in 0..3 {
            while c.slots.contains(&0) {
                c.fill(LineAddr::new(line), Cycle::ZERO, line % 2 == 0);
                line += 1;
            }
            assert_eq!(c.lines.len(), 64 * 4);
            assert_eq!(c.lines.capacity(), capacity);
            c.flush();
        }
    }

    #[test]
    #[should_panic(expected = "cache no-ways: ways must be non-zero")]
    fn zero_ways_is_rejected_by_name() {
        let mut cfg = CacheConfig::new("no-ways", 4096);
        cfg.ways = 0;
        SetAssocCache::new(cfg);
    }

    #[test]
    #[should_panic(expected = "cache no-lines: line_bytes must be non-zero")]
    fn zero_line_bytes_is_rejected_by_name() {
        let mut cfg = CacheConfig::new("no-lines", 4096);
        cfg.line_bytes = 0;
        SetAssocCache::new(cfg);
    }

    #[test]
    fn tiny_cache_clamps_ways() {
        // 2 lines of capacity but 16 configured ways.
        let c = SetAssocCache::new(CacheConfig::new("tiny", 256));
        assert!(!c.is_disabled());
        assert_eq!(c.config().sets(), 1);
    }

    #[test]
    fn set_index_is_the_hashed_line_modulo_the_set_count() {
        // Every geometry, power-of-two set counts or not, maps a line
        // to its multiplicative hash modulo the set count.
        use mcm_testkit::prelude::*;
        check(
            "set_index_is_hashed_line_modulo_sets",
            &(u32s(1..17), u64s(1..4097), bools(), vecs(any_u64(), 1..64)),
            |&(ways, sets, pow2, ref lines)| {
                let sets = if pow2 { 1 << (sets % 13) } else { sets };
                let c = small(ways, sets);
                assert_eq!(c.n_sets, sets);
                for &line in lines {
                    let mut z = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z ^= z >> 29;
                    assert_eq!(c.set_of(LineAddr::new(line)), z % sets);
                }
            },
        );
    }
}

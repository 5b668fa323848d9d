//! Property-based tests for memory-system invariants, running on the
//! in-repo `mcm-testkit` harness.

use mcm_engine::{Cycle, Resource};
use mcm_mem::addr::{AccessKind, LineAddr, Locality, MemAddr, PartitionId, LINES_PER_PAGE};
use mcm_mem::cache::{
    AllocFilter, CacheConfig, CacheOutcome, CacheStats, Eviction, SetAssocCache, WritePolicy,
};
use mcm_mem::dram::{DramConfig, DramPartition};
use mcm_mem::mshr::{Mshr, MshrLookup};
use mcm_mem::page::{PageMap, PlacementPolicy};
use mcm_testkit::prelude::*;

/// Address algebra round-trips: a byte's line contains the byte's
/// page relationship.
#[test]
fn addr_hierarchy_consistent() {
    check(
        "addr_hierarchy_consistent",
        &u64s(0..(1u64 << 48)),
        |&addr| {
            let a = MemAddr::new(addr);
            assert_eq!(a.line().page(), a.page());
            assert!(a.line().base_addr().as_u64() <= addr);
            assert!(addr - a.line().base_addr().as_u64() < 128);
        },
    );
}

/// A cache never holds more lines than its capacity allows, and a
/// just-filled line is resident until evicted.
#[test]
fn cache_capacity_invariant() {
    check(
        "cache_capacity_invariant",
        &(u64s(1..64), u32s(1..8), vecs(u64s(0..10_000), 1..512)),
        |&(size_lines, ways, ref fills)| {
            let mut cfg = CacheConfig::new("p", size_lines * 128);
            cfg.ways = ways;
            let mut c = SetAssocCache::new(cfg);
            for &f in fills {
                c.fill(LineAddr::new(f), Cycle::ZERO, false);
                assert!(c.contains(LineAddr::new(f)));
                assert!(c.resident_lines() as u64 <= size_lines);
            }
        },
    );
}

/// Cache accounting: hits + misses = accesses; fills <= misses (only
/// allocating misses fill, and the caller here fills every
/// allocating miss exactly once).
#[test]
fn cache_accounting() {
    check(
        "cache_accounting",
        &vecs((u64s(0..256), bools()), 1..512),
        |ops: &Vec<(u64, bool)>| {
            let mut c = SetAssocCache::new(CacheConfig::new("p", 64 * 128));
            let mut t = 0u64;
            for &(line, is_write) in ops {
                t += 1;
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if let CacheOutcome::Miss {
                    allocate: true,
                    ready_at,
                } = c.access(Cycle::new(t), LineAddr::new(line), kind, Locality::Local)
                {
                    c.fill(LineAddr::new(line), ready_at, is_write);
                }
            }
            let s = *c.stats();
            assert_eq!(s.accesses.total(), ops.len() as u64);
            assert!(s.fills.get() <= s.accesses.misses());
            assert!(s.writebacks.get() <= s.evictions.get());
        },
    );
}

/// Remote-only caches never observe local accesses in their hit
/// ratio.
#[test]
fn remote_only_sees_only_remote() {
    check(
        "remote_only_sees_only_remote",
        &vecs((u64s(0..64), bools()), 1..256),
        |ops: &Vec<(u64, bool)>| {
            let mut cfg = CacheConfig::new("l15", 16 * 128);
            cfg.alloc_filter = AllocFilter::RemoteOnly;
            let mut c = SetAssocCache::new(cfg);
            let mut remote = 0u64;
            for &(line, is_remote) in ops {
                let loc = if is_remote {
                    Locality::Remote
                } else {
                    Locality::Local
                };
                let out = c.access(Cycle::ZERO, LineAddr::new(line), AccessKind::Read, loc);
                if is_remote {
                    remote += 1;
                    assert!(!matches!(out, CacheOutcome::Bypass));
                    if let CacheOutcome::Miss { allocate: true, .. } = out {
                        c.fill(LineAddr::new(line), Cycle::ZERO, false);
                    }
                } else {
                    assert!(matches!(out, CacheOutcome::Bypass));
                }
            }
            assert_eq!(c.stats().accesses.total(), remote);
            assert_eq!(c.stats().bypasses.get(), ops.len() as u64 - remote);
        },
    );
}

/// The reference tag store: every line allocated up front, a `valid`
/// flag per line, and a flush that rewrites the whole array. Timing,
/// LRU, set hashing and the adaptive filter follow `SetAssocCache`.
struct EagerCache {
    cfg: CacheConfig,
    lines: Vec<EagerLine>,
    n_sets: u64,
    ways: usize,
    ports: Resource,
    use_clock: u64,
    psel: i32,
    stats: CacheStats,
}

#[derive(Clone, Copy)]
struct EagerLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    ready: Cycle,
    last_use: u64,
}

const INVALID: EagerLine = EagerLine {
    tag: 0,
    valid: false,
    dirty: false,
    ready: Cycle::ZERO,
    last_use: 0,
};

impl EagerCache {
    fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.sets();
        let ways = if cfg.size_bytes == 0 {
            0
        } else {
            (cfg.size_bytes / cfg.line_bytes)
                .min(u64::from(cfg.ways))
                .max(1) as usize
        };
        EagerCache {
            lines: vec![INVALID; n_sets as usize * ways],
            n_sets,
            ways,
            ports: Resource::new(cfg.name, cfg.bandwidth),
            use_clock: 0,
            psel: 0,
            cfg,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: LineAddr) -> u64 {
        let mut z = line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z % self.n_sets
    }

    fn ways_of(&mut self, line: LineAddr) -> &mut [EagerLine] {
        let base = self.set_of(line) as usize * self.ways;
        &mut self.lines[base..base + self.ways]
    }

    fn access(
        &mut self,
        now: Cycle,
        line: LineAddr,
        kind: AccessKind,
        loc: Locality,
    ) -> CacheOutcome {
        let (filter, leader) = match self.cfg.alloc_filter {
            AllocFilter::Adaptive => match (self.set_of(line) % 32, self.psel >= 0) {
                (0, _) => (AllocFilter::RemoteOnly, Some(AllocFilter::RemoteOnly)),
                (1, _) => (AllocFilter::All, Some(AllocFilter::All)),
                (_, true) => (AllocFilter::All, None),
                (_, false) => (AllocFilter::RemoteOnly, None),
            },
            f => (f, None),
        };
        // A leader's miss is evidence for the other policy.
        let train = |psel: &mut i32| match leader {
            Some(AllocFilter::RemoteOnly) => *psel = (*psel + 1).min(512),
            Some(AllocFilter::All) => *psel = (*psel - 1).max(-512),
            _ => {}
        };
        if !filter.admits(loc) {
            self.stats.bypasses.inc();
            train(&mut self.psel);
            return CacheOutcome::Bypass;
        }
        if self.cfg.size_bytes == 0 {
            self.stats.accesses.record(false);
            return CacheOutcome::Miss {
                allocate: false,
                ready_at: now,
            };
        }
        let port_done = self.ports.service(now, self.cfg.line_bytes);
        let hit_ready = port_done.max(now + self.cfg.latency);
        let miss_ready = port_done.max(now + self.cfg.tag_latency);
        self.use_clock += 1;
        let clock = self.use_clock;
        let write_back = self.cfg.write_policy == WritePolicy::WriteBack;
        if let Some(way) = self
            .ways_of(line)
            .iter_mut()
            .find(|w| w.valid && w.tag == line.index())
        {
            way.last_use = clock;
            way.dirty |= kind.is_write() && write_back;
            let ready_at = hit_ready.max(way.ready);
            self.stats.accesses.record(true);
            return CacheOutcome::Hit { ready_at };
        }
        self.stats.accesses.record(false);
        train(&mut self.psel);
        CacheOutcome::Miss {
            allocate: !kind.is_write() || write_back,
            ready_at: miss_ready,
        }
    }

    fn fill(&mut self, line: LineAddr, ready: Cycle, dirty: bool) -> Option<Eviction> {
        if self.cfg.size_bytes == 0 {
            return None;
        }
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = self.ways_of(line);
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line.index()) {
            way.ready = way.ready.min(ready);
            way.dirty |= dirty;
            way.last_use = clock;
            return None;
        }
        let victim = match set.iter().position(|w| !w.valid) {
            Some(free) => free,
            None => (0..set.len()).min_by_key(|&i| set[i].last_use).unwrap(),
        };
        let old = std::mem::replace(
            &mut set[victim],
            EagerLine {
                tag: line.index(),
                valid: true,
                dirty,
                ready,
                last_use: clock,
            },
        );
        self.stats.fills.inc();
        if !old.valid {
            return None;
        }
        self.stats.evictions.inc();
        if old.dirty {
            self.stats.writebacks.inc();
        }
        Some(Eviction {
            line: LineAddr::new(old.tag),
            dirty: old.dirty,
        })
    }

    fn contains(&mut self, line: LineAddr) -> bool {
        self.cfg.size_bytes != 0
            && self
                .ways_of(line)
                .iter()
                .any(|w| w.valid && w.tag == line.index())
    }

    fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|w| w.valid).count()
    }

    fn flush(&mut self) -> u64 {
        if self.cfg.size_bytes == 0 {
            return 0;
        }
        self.stats.flushes.inc();
        let dirty = self.lines.iter().filter(|w| w.valid && w.dirty).count();
        self.lines.fill(INVALID);
        dirty as u64
    }
}

fn assert_same_stats(got: &CacheStats, want: &CacheStats, at: usize) {
    let CacheStats {
        accesses,
        evictions,
        writebacks,
        fills,
        bypasses,
        flushes,
    } = *got;
    assert_eq!(accesses, want.accesses, "op {at}: accesses");
    assert_eq!(evictions, want.evictions, "op {at}: evictions");
    assert_eq!(writebacks, want.writebacks, "op {at}: writebacks");
    assert_eq!(fills, want.fills, "op {at}: fills");
    assert_eq!(bypasses, want.bypasses, "op {at}: bypasses");
    assert_eq!(flushes, want.flushes, "op {at}: flushes");
}

/// The epoch-stamped, first-fill-materialised tag store is
/// observationally identical to the eager one: same outcomes,
/// evictions, flush counts, residency and statistics after every step
/// of a random script of accesses, clean and dirty fills, and flushes,
/// over both write policies, all four allocation filters, and
/// geometries from sub-line caches through clamped and one-set caches
/// to a few hundred lines.
#[test]
fn cache_matches_eager_reference() {
    check(
        "cache_matches_eager_reference",
        &(
            (u8s(0..3), u64s(0..4096), u32s(1..17)),
            (u8s(0..4), bools()),
            vecs((u8s(0..20), u64s(0..4096), bools(), bools()), 1..400),
        ),
        |&((shape, raw, ways), (filter, write_back), ref script)| {
            let w = u64::from(ways);
            let lines = match shape {
                // Fewer lines than ways: associativity clamps.
                0 => raw % w,
                // Exactly one set.
                1 => w + raw % w,
                _ => raw % 256,
            };
            let mut cfg = CacheConfig::new("ref", (lines * 128 + raw % 128).max(1));
            cfg.ways = ways;
            cfg.latency = Cycle::new(6);
            cfg.tag_latency = Cycle::new(2);
            cfg.bandwidth = 64.0;
            cfg.write_policy = if write_back {
                WritePolicy::WriteBack
            } else {
                WritePolicy::WriteThrough
            };
            cfg.alloc_filter = [
                AllocFilter::All,
                AllocFilter::RemoteOnly,
                AllocFilter::LocalOnly,
                AllocFilter::Adaptive,
            ][usize::from(filter)];
            let mut got = SetAssocCache::new(cfg.clone());
            let mut want = EagerCache::new(cfg);
            // Twice the capacity plus a few: both hits and evictions.
            let span = 2 * lines + 8;
            for (at, &(op, raw_line, flag, remote)) in script.iter().enumerate() {
                let now = Cycle::new(at as u64);
                let line = LineAddr::new(raw_line % span);
                match op {
                    0 => assert_eq!(got.flush(), want.flush(), "op {at}: flush"),
                    1..=6 => {
                        let ready = now + Cycle::new(raw_line % 64);
                        assert_eq!(
                            got.fill(line, ready, flag),
                            want.fill(line, ready, flag),
                            "op {at}: fill {line:?}"
                        );
                    }
                    _ => {
                        let kind = if flag {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let loc = if remote {
                            Locality::Remote
                        } else {
                            Locality::Local
                        };
                        assert_eq!(
                            got.access(now, line, kind, loc),
                            want.access(now, line, kind, loc),
                            "op {at}: {kind:?} {line:?} {loc:?}"
                        );
                    }
                }
                assert_eq!(got.contains(line), want.contains(line), "op {at}");
                assert_eq!(got.resident_lines(), want.resident_lines(), "op {at}");
                assert_same_stats(got.stats(), &want.stats, at);
            }
            for l in 0..span {
                let line = LineAddr::new(l);
                assert_eq!(got.contains(line), want.contains(line), "end: {line:?}");
            }
            assert_eq!(got.flush(), want.flush(), "end: flush");
        },
    );
}

/// DRAM access completion is at least latency after arrival, and all
/// traffic is accounted.
#[test]
fn dram_latency_floor() {
    check(
        "dram_latency_floor",
        &(
            f64s(32.0..2048.0),
            u32s(1..16),
            vecs(u64s(0..100_000), 1..128),
        ),
        |&(bw, channels, ref lines)| {
            let mut mp = DramPartition::new(DramConfig {
                bandwidth_gbps: bw,
                channels,
                latency: Cycle::from_ns(100),
            });
            for (i, &l) in lines.iter().enumerate() {
                let now = Cycle::new(i as u64);
                let done = mp.access(now, LineAddr::new(l), AccessKind::Read);
                assert!(done >= now + Cycle::from_ns(100));
            }
            assert_eq!(mp.total_bytes(), lines.len() as u64 * 128);
            assert_eq!(mp.reads(), lines.len() as u64);
        },
    );
}

/// First touch is idempotent: all lines of a page resolve to the
/// page's first requester forever after, regardless of requester.
#[test]
fn first_touch_idempotent() {
    check(
        "first_touch_idempotent",
        &vecs((u64s(0..32), u8s(0..4)), 1..256),
        |touches: &Vec<(u64, u8)>| {
            let mut map = PageMap::new(PlacementPolicy::FirstTouch, 4);
            let mut expected: std::collections::HashMap<u64, u8> = Default::default();
            for &(page, req) in touches {
                let line = LineAddr::new(page * LINES_PER_PAGE + (page % LINES_PER_PAGE));
                let got = map.partition_for(line, PartitionId(req));
                let want = *expected.entry(page).or_insert(req);
                assert_eq!(got, PartitionId(want));
            }
            assert_eq!(map.mapped_pages(), expected.len());
        },
    );
}

/// Interleaved placement balances lines across partitions exactly.
#[test]
fn interleaved_is_balanced() {
    check(
        "interleaved_is_balanced",
        &(u8s(1..8), u64s(1..2048)),
        |&(parts, n)| {
            let mut map = PageMap::new(PlacementPolicy::Interleaved, parts);
            let mut counts = vec![0u64; parts as usize];
            for i in 0..n * u64::from(parts) {
                let mp = map.partition_for(LineAddr::new(i), PartitionId(0));
                counts[mp.as_usize()] += 1;
            }
            assert!(counts.iter().all(|&c| c == n));
        },
    );
}

/// The flat MSHR table is observationally a bounded `HashMap` from line
/// to request id: same lookup decisions (in flight, can issue, full),
/// same released ids (`None` for a line with no entry), same occupancy
/// and the same three counters after every step of a random script of
/// lookups, reserves, releases and clears, over capacities from one
/// entry to the simulator's 64, lines that collide often, and
/// lookup-to-release mixes that range from a mostly empty table to a
/// mostly full one.
#[test]
fn mshr_matches_hashmap_model() {
    check(
        "mshr_matches_hashmap_model",
        &(
            (u8s(0..2), usizes(1..17), u8s(20..100)),
            vecs((u8s(0..100), u64s(0..160), any_u64()), 1..400),
        ),
        |&((full_size, small, lookup_pct), ref script)| {
            let capacity = if full_size == 1 { 64 } else { small };
            let mut got = Mshr::new(capacity);
            let mut want: std::collections::HashMap<u64, u64> = Default::default();
            let (mut coalesced, mut issued, mut stalls) = (0u64, 0u64, 0u64);
            // Twice the capacity plus a few: coalescing and Full both
            // happen.
            let span = 2 * capacity as u64 + 4;
            for (at, &(op, raw_line, request)) in script.iter().enumerate() {
                let raw = raw_line % span;
                let line = LineAddr::new(raw);
                match op {
                    0 => {
                        got.clear();
                        want.clear();
                    }
                    op if op <= lookup_pct => {
                        let expect = match want.get(&raw) {
                            Some(&id) => {
                                coalesced += 1;
                                MshrLookup::InFlight(id)
                            }
                            None if want.len() >= capacity => {
                                stalls += 1;
                                MshrLookup::Full
                            }
                            None => {
                                issued += 1;
                                MshrLookup::CanIssue
                            }
                        };
                        let decision = got.lookup(line);
                        assert_eq!(decision, expect, "op {at}: lookup {raw}");
                        if decision == MshrLookup::CanIssue {
                            got.reserve(line, request);
                            want.insert(raw, request);
                        }
                    }
                    _ => assert_eq!(
                        got.release(line),
                        want.remove(&raw),
                        "op {at}: release {raw}"
                    ),
                }
                assert_eq!(got.outstanding(), want.len(), "op {at}: outstanding");
                assert_eq!(got.has_free_entry(), want.len() < capacity, "op {at}");
                assert_eq!(got.coalesced(), coalesced, "op {at}: coalesced");
                assert_eq!(got.issued(), issued, "op {at}: issued");
                assert_eq!(got.stalls(), stalls, "op {at}: stalls");
            }
            // Every line still bound answers with its own id.
            for (&raw, &id) in &want {
                assert_eq!(got.release(LineAddr::new(raw)), Some(id), "end: {raw}");
            }
            assert_eq!(got.outstanding(), 0);
        },
    );
}

//! NUMA page placement: mapping addresses to DRAM partitions.
//!
//! The baseline MCM-GPU interleaves addresses across all partitions at
//! cache-line granularity "for maximum resource utilization" (§3.2); the
//! optimized design maps each 64 KiB page to the partition local to the
//! GPM that touched it first (§5.3, Fig. 11). A page-granular
//! round-robin policy is included as the straw-man §6.1 mentions
//! ("round-robin page allocation results in very low and inconsistent
//! performance").

use std::collections::HashMap;

use mcm_engine::stats::Counter;

use crate::addr::{LineAddr, PartitionId, LINES_PER_PAGE};

/// The placement policy in force for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Fine-grain line interleaving across all partitions (baseline,
    /// §3.2).
    Interleaved,
    /// First touch: a page is mapped to the partition of the GPM that
    /// first references it, and stays there for the lifetime of the run
    /// — including across kernel launches (§5.3).
    FirstTouch,
    /// Page-granular round-robin in page-index order; the poorly
    /// performing alternative noted in §6.1.
    PageRoundRobin,
}

/// The page-table abstraction the memory system consults on every
/// access.
///
/// For [`PlacementPolicy::Interleaved`] no state is kept; for the
/// page-granular policies a map from
/// [`PageId`](crate::addr::PageId) to [`PartitionId`] is built as
/// pages are touched.
///
/// # Example
///
/// First touch pins pages to their first requester:
///
/// ```
/// use mcm_mem::addr::{LineAddr, PartitionId};
/// use mcm_mem::page::{PageMap, PlacementPolicy};
///
/// let mut map = PageMap::new(PlacementPolicy::FirstTouch, 4);
/// let line = LineAddr::new(0);
/// assert_eq!(map.partition_for(line, PartitionId(2)), PartitionId(2));
/// // A later touch from another GPM does not remap the page.
/// assert_eq!(map.partition_for(line, PartitionId(0)), PartitionId(2));
/// ```
#[derive(Debug, Clone)]
pub struct PageMap {
    policy: PlacementPolicy,
    partitions: u8,
    page_lines: u64,
    table: HashMap<u64, PartitionId>,
    first_touches: Counter,
    lookups: Counter,
}

impl PageMap {
    /// Creates a page map over `partitions` DRAM partitions at the
    /// default 64 KiB page granularity.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(policy: PlacementPolicy, partitions: u8) -> Self {
        PageMap::with_page_lines(policy, partitions, LINES_PER_PAGE)
    }

    /// Like [`PageMap::new`] with an explicit page size in cache lines
    /// — the placement-granularity lever (small pages adapt better to
    /// fragmented sharing; large pages cut table pressure and favour
    /// dense private data).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` or `page_lines` is zero.
    pub fn with_page_lines(policy: PlacementPolicy, partitions: u8, page_lines: u64) -> Self {
        assert!(partitions > 0, "page map needs at least one partition");
        assert!(page_lines > 0, "pages must hold at least one line");
        PageMap {
            policy,
            partitions,
            page_lines,
            table: HashMap::new(),
            first_touches: Counter::new(),
            lookups: Counter::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The placement granularity in cache lines.
    pub fn page_lines(&self) -> u64 {
        self.page_lines
    }

    /// Resolves the DRAM partition holding `line`, given that the access
    /// originates from the GPM whose local partition is `requester`.
    pub fn partition_for(&mut self, line: LineAddr, requester: PartitionId) -> PartitionId {
        self.lookups.inc();
        match self.policy {
            PlacementPolicy::Interleaved => {
                PartitionId((line.index() % u64::from(self.partitions)) as u8)
            }
            PlacementPolicy::PageRoundRobin => {
                PartitionId(((line.index() / self.page_lines) % u64::from(self.partitions)) as u8)
            }
            PlacementPolicy::FirstTouch => {
                let page = line.index() / self.page_lines;
                if let Some(&mp) = self.table.get(&page) {
                    mp
                } else {
                    self.first_touches.inc();
                    self.table.insert(page, requester);
                    requester
                }
            }
        }
    }

    /// Number of pages placed by first touch so far.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// Total placement lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Clears the page table (a fresh memory allocation), keeping the
    /// policy. Note that §5.3's cross-kernel locality depends on *not*
    /// calling this between kernel launches of the same application.
    pub fn clear(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageId;

    #[test]
    fn interleaved_is_line_granular() {
        let mut map = PageMap::new(PlacementPolicy::Interleaved, 4);
        let assignments: Vec<u8> = (0..8)
            .map(|i| map.partition_for(LineAddr::new(i), PartitionId(0)).0)
            .collect();
        assert_eq!(assignments, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(map.mapped_pages(), 0, "interleaved keeps no table");
    }

    #[test]
    fn round_robin_is_page_granular() {
        let mut map = PageMap::new(PlacementPolicy::PageRoundRobin, 4);
        // All lines of page 0 land on partition 0.
        for i in 0..LINES_PER_PAGE {
            assert_eq!(
                map.partition_for(LineAddr::new(i), PartitionId(3)),
                PartitionId(0)
            );
        }
        // Page 5 lands on partition 1.
        assert_eq!(
            map.partition_for(PageId::new(5).first_line(), PartitionId(3)),
            PartitionId(1)
        );
    }

    #[test]
    fn first_touch_is_sticky_per_page() {
        let mut map = PageMap::new(PlacementPolicy::FirstTouch, 4);
        let page0_line = LineAddr::new(3);
        let page1_line = PageId::new(1).first_line();
        assert_eq!(
            map.partition_for(page0_line, PartitionId(1)),
            PartitionId(1)
        );
        assert_eq!(
            map.partition_for(page1_line, PartitionId(2)),
            PartitionId(2)
        );
        // Every other line of page 0 follows the first touch, from any
        // requester.
        for i in 0..LINES_PER_PAGE {
            assert_eq!(
                map.partition_for(LineAddr::new(i), PartitionId(3)),
                PartitionId(1)
            );
        }
        assert_eq!(map.mapped_pages(), 2);
    }

    #[test]
    fn first_touch_survives_until_cleared() {
        let mut map = PageMap::new(PlacementPolicy::FirstTouch, 2);
        let line = LineAddr::new(0);
        map.partition_for(line, PartitionId(1));
        // "Kernel boundary": the mapping persists.
        assert_eq!(map.partition_for(line, PartitionId(0)), PartitionId(1));
        map.clear();
        // A fresh allocation can land elsewhere.
        assert_eq!(map.partition_for(line, PartitionId(0)), PartitionId(0));
    }

    #[test]
    fn lookups_are_counted() {
        let mut map = PageMap::new(PlacementPolicy::Interleaved, 4);
        for i in 0..10 {
            map.partition_for(LineAddr::new(i), PartitionId(0));
        }
        assert_eq!(map.lookups(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        PageMap::new(PlacementPolicy::Interleaved, 0);
    }
}

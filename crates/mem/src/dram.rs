//! DRAM partition model: banked channels behind a fixed access latency.
//!
//! Each GPM owns one local DRAM partition (Fig. 3). A partition exposes
//! `channels` independently contended channels; lines are fine-grain
//! interleaved across them so a well-spread access stream can reach the
//! partition's full bandwidth, while camping on one channel saturates at
//! `bw / channels` — the behaviour §5.3 is careful to preserve ("we will
//! still interleave addresses at a fine granularity across the memory
//! channels of each memory partition").

use mcm_engine::stats::Counter;
use mcm_engine::{Cycle, Resource};
use mcm_fault::{FaultPlan, Hooks};
use mcm_probe::{FaultEvent, Probe};

use crate::addr::{AccessKind, LineAddr, LINE_BYTES};

/// Static configuration of one DRAM partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Aggregate partition bandwidth in GB/s (= bytes/cycle at 1 GHz).
    pub bandwidth_gbps: f64,
    /// Number of independently contended channels.
    pub channels: u32,
    /// Fixed access latency (paper Table 3: 100 ns).
    pub latency: Cycle,
}

impl DramConfig {
    /// A partition with the paper's baseline parameters scaled to the
    /// given bandwidth: 8 channels and 100 ns latency.
    pub fn with_bandwidth(bandwidth_gbps: f64) -> Self {
        DramConfig {
            bandwidth_gbps,
            channels: 8,
            latency: Cycle::from_ns(100),
        }
    }
}

/// One DRAM partition: per-channel bandwidth servers plus fixed latency.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_mem::addr::{AccessKind, LineAddr};
/// use mcm_mem::dram::{DramConfig, DramPartition};
///
/// let mut mp = DramPartition::new(DramConfig::with_bandwidth(768.0));
/// let done = mp.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read);
/// // 128 B over one 96 B/cycle channel (~2 cycles) + 100 ns latency.
/// assert_eq!(done, Cycle::new(102));
/// ```
#[derive(Debug, Clone)]
pub struct DramPartition {
    config: DramConfig,
    channels: Vec<Resource>,
    reads: Counter,
    writes: Counter,
}

impl DramPartition {
    /// Builds a partition from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or the bandwidth is not positive
    /// (propagated from [`Resource::new`]).
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "DRAM partition needs channels");
        let per_channel = config.bandwidth_gbps / f64::from(config.channels);
        let channels = (0..config.channels)
            .map(|_| Resource::new("dram-channel", per_channel))
            .collect();
        DramPartition {
            config,
            channels,
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// The partition's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Performs a full-line access beginning at `now`; returns when the
    /// data is available (reads) or accepted (writes).
    ///
    /// The channel is chosen by hashing the line index (not its low
    /// bits): the machine already interleaves lines across partitions by
    /// low bits, so a modulo channel index would alias and strand most
    /// of the partition's channels.
    #[inline]
    pub fn access(&mut self, now: Cycle, line: LineAddr, kind: AccessKind) -> Cycle {
        // Unit stretch is an exact IEEE identity, so this delegation
        // does not perturb the unthrottled timing.
        self.access_stretched(now, line, kind, 1.0)
    }

    /// Like [`DramPartition::access`], additionally reporting the
    /// line's worth of DRAM traffic on `partition` to the probe and
    /// consulting the plan for a thermal-throttle stretch at `now`.
    /// Throttled accesses are reported as
    /// [`mcm_probe::FaultEvent::DramThrottle`].
    pub fn access_hooked<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        line: LineAddr,
        kind: AccessKind,
        partition: u32,
        hooks: &mut Hooks<P, F>,
    ) -> Cycle {
        let stretch = if F::ACTIVE {
            hooks.plan.dram_stretch(partition, now)
        } else {
            1.0
        };
        if P::ACTIVE {
            if stretch > 1.0 {
                let throttle = FaultEvent::DramThrottle {
                    module: partition,
                    stretch,
                };
                hooks.probe.fault(now, throttle);
            }
            hooks.probe.dram_access(partition, now, LINE_BYTES);
        }
        self.access_stretched(now, line, kind, stretch)
    }

    /// Like [`DramPartition::access`] with the channel occupancy
    /// multiplied by `stretch` — how the fault layer models a thermally
    /// throttled stack (`stretch > 1.0` halves/quarters the effective
    /// bandwidth without touching the configured one).
    fn access_stretched(
        &mut self,
        now: Cycle,
        line: LineAddr,
        kind: AccessKind,
        stretch: f64,
    ) -> Cycle {
        let mut z = line.index().wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^= z >> 32;
        let chan = (z % self.channels.len() as u64) as usize;
        let served = self.channels[chan].service_stretched(now, LINE_BYTES, stretch);
        match kind {
            AccessKind::Read => self.reads.inc(),
            AccessKind::Write => self.writes.inc(),
        }
        served + self.config.latency
    }

    /// Total bytes moved in or out of the partition.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(Resource::total_bytes).sum()
    }

    /// Read accesses served.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Write accesses served.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Achieved bandwidth in GB/s over `elapsed`.
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        self.channels.iter().map(|c| c.achieved_gbps(elapsed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(bw: f64, channels: u32) -> DramPartition {
        DramPartition::new(DramConfig {
            bandwidth_gbps: bw,
            channels,
            latency: Cycle::from_ns(100),
        })
    }

    #[test]
    fn single_access_pays_latency_plus_transfer() {
        let mut mp = partition(128.0, 1);
        // 128 B at 128 B/cycle = 1 cycle + 100 cycles latency.
        assert_eq!(
            mp.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read),
            Cycle::new(101)
        );
        assert_eq!(mp.reads(), 1);
        assert_eq!(mp.writes(), 0);
    }

    #[test]
    fn spread_lines_use_all_channels() {
        let mut mp = partition(256.0, 4);
        // A large population of lines must exercise every channel (the
        // hash spreads them), so aggregate throughput approaches the
        // partition's full bandwidth.
        let mut horizon = Cycle::ZERO;
        for i in 0..4096u64 {
            horizon = horizon.max(mp.access(Cycle::ZERO, LineAddr::new(i), AccessKind::Read));
        }
        let busy = horizon - mp.config().latency;
        // 4096 lines * 128 B at 256 B/cycle = 2048 cycles if perfectly
        // spread; allow modest hash imbalance.
        assert!(
            busy.as_u64() < 2048 * 12 / 10,
            "channel spread too uneven: {busy}"
        );
    }

    #[test]
    fn channel_camping_serializes() {
        let mut mp = partition(256.0, 4);
        // Repeated accesses to the same line hit the same channel and
        // serialize behind each other.
        let a = mp.access(Cycle::ZERO, LineAddr::new(7), AccessKind::Read);
        let b = mp.access(Cycle::ZERO, LineAddr::new(7), AccessKind::Read);
        assert!(b > a);
        let busy = mp.channels.iter().filter(|c| c.total_bytes() > 0).count();
        assert_eq!(busy, 1, "one line must camp on one channel");
    }

    #[test]
    fn interleave_aliased_lines_still_spread() {
        // Lines congruent mod 4 (what one partition of a 4-module
        // machine receives under fine interleave) must still use all
        // channels thanks to the hashed channel index.
        let mut mp = partition(256.0, 8);
        for i in 0..512u64 {
            mp.access(
                Cycle::new(1_000_000),
                LineAddr::new(i * 4),
                AccessKind::Read,
            );
        }
        let used: Vec<usize> = (0..mp.channels.len())
            .filter(|&c| mp.channels[c].total_bytes() > 0)
            .collect();
        assert_eq!(used.len(), 8, "only channels {used:?} used");
    }

    #[test]
    fn bandwidth_accounting() {
        let mut mp = partition(768.0, 8);
        for i in 0..64 {
            mp.access(Cycle::ZERO, LineAddr::new(i), AccessKind::Write);
        }
        assert_eq!(mp.total_bytes(), 64 * LINE_BYTES);
        assert_eq!(mp.writes(), 64);
        let elapsed = Cycle::new(64);
        assert!(mp.achieved_gbps(elapsed) > 0.0);
    }

    #[test]
    #[should_panic(expected = "needs channels")]
    fn zero_channels_panics() {
        partition(100.0, 0);
    }

    #[test]
    fn stretched_access_slows_the_channel() {
        let mut plain = partition(128.0, 1);
        let mut hot = partition(128.0, 1);
        let a = plain.access(Cycle::ZERO, LineAddr::new(0), AccessKind::Read);
        let b = hot.access_stretched(Cycle::ZERO, LineAddr::new(0), AccessKind::Read, 4.0);
        // 1 cycle of service becomes 4 under a ×4 stretch.
        assert_eq!(b - a, Cycle::new(3));
        assert_eq!(hot.total_bytes(), plain.total_bytes());
    }

    #[test]
    fn hooked_access_with_null_hooks_is_plain_access() {
        let mut a = partition(768.0, 8);
        let mut b = partition(768.0, 8);
        for i in 0..32u64 {
            let line = LineAddr::new(i * 3);
            let x = a.access(Cycle::new(i), line, AccessKind::Read);
            let y = b.access_hooked(Cycle::new(i), line, AccessKind::Read, 0, &mut Hooks::null());
            assert_eq!(x, y);
        }
    }

    #[test]
    fn probed_access_reports_line_traffic() {
        #[derive(Default)]
        struct Log(Vec<(u32, u64)>);
        impl Probe for Log {
            fn dram_access(&mut self, partition: u32, _now: Cycle, bytes: u64) {
                self.0.push((partition, bytes));
            }
        }
        let mut hooks = Hooks::new(Log::default(), mcm_fault::NullFaultPlan);
        let mut mp = partition(128.0, 1);
        let done = mp.access_hooked(
            Cycle::ZERO,
            LineAddr::new(0),
            AccessKind::Read,
            2,
            &mut hooks,
        );
        assert_eq!(done, Cycle::new(101));
        assert_eq!(hooks.probe.0, vec![(2, LINE_BYTES)]);
    }
}

//! Point-to-point links: bandwidth, hop latency, and energy tier.

use mcm_engine::{Cycle, Resource};
use mcm_fault::{FaultPlan, Hooks};
use mcm_probe::{FaultEvent, LinkId, Probe};

use crate::energy::Tier;

/// `fault.link.transfers_recovered`: transfers that took at least one
/// transient error and still landed. Out-of-band; only faulted builds
/// (`F::ACTIVE`) ever touch it.
fn recovered_counter() -> &'static mcm_telemetry::Counter {
    static TELE: std::sync::OnceLock<mcm_telemetry::Counter> = std::sync::OnceLock::new();
    TELE.get_or_init(|| {
        mcm_telemetry::global().counter(
            "fault.link.transfers_recovered",
            mcm_telemetry::Class::Deterministic,
        )
    })
}

/// A unidirectional point-to-point link.
///
/// A transfer of `bytes` arriving at `now` serializes on the link's
/// bandwidth (queuing behind earlier transfers) and then pays the hop
/// latency — the paper's 32-cycle inter-GPM hop (§3.2) covers traversal
/// to the die edge, SerDes, and the wire.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_interconnect::energy::Tier;
/// use mcm_interconnect::link::Link;
///
/// // One 768 GB/s GRS link with a 32-cycle hop latency.
/// let mut link = Link::new("gpm0->gpm1", 768.0, Cycle::new(32), Tier::Package);
/// let done = link.transfer(Cycle::ZERO, 128);
/// assert_eq!(done, Cycle::new(33)); // ceil(128/768) + 32
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Resource,
    hop_latency: Cycle,
    tier: Tier,
}

impl Link {
    /// Creates a link with `gbps` bandwidth (GB/s = bytes/cycle at
    /// 1 GHz), `hop_latency` per traversal, on energy `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive (propagated from
    /// [`Resource::new`]).
    pub fn new(name: &'static str, gbps: f64, hop_latency: Cycle, tier: Tier) -> Self {
        Link {
            bandwidth: Resource::from_gbps(name, gbps),
            hop_latency,
            tier,
        }
    }

    /// Sends `bytes` over the link starting at `now`; returns arrival
    /// time at the far side.
    ///
    /// A zero-byte transfer pays only the hop latency, without touching
    /// the bandwidth queue.
    #[inline]
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return now + self.hop_latency;
        }
        self.bandwidth.service(now, bytes) + self.hop_latency
    }

    /// Like [`Link::transfer`], reporting each attempt to the probe
    /// under the caller-chosen link identity `id` with its arrival
    /// time, and consulting the plan for transient CRC errors: an
    /// errored attempt occupies the link (the corrupt flits really
    /// crossed the wire), then retransmits after a capped exponential
    /// backoff, up to the plan's retry budget. Each retry is reported
    /// as a [`mcm_probe::FaultEvent`].
    ///
    /// With an inactive plan the first attempt always lands.
    pub fn transfer_hooked<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        bytes: u64,
        id: LinkId,
        hooks: &mut Hooks<P, F>,
    ) -> Cycle {
        let mut t = now;
        let mut attempt = 0;
        loop {
            let arrival = self.transfer(t, bytes);
            if P::ACTIVE {
                hooks.probe.link_transfer(id, t, bytes, arrival);
            }
            if !F::ACTIVE
                || attempt >= hooks.plan.link_max_retries()
                || !hooks.plan.link_error(id, attempt)
            {
                if attempt > 0 {
                    // The transfer errored at least once and still
                    // landed: a recovery, whether by clean retransmit
                    // or by exhausting the retry budget.
                    recovered_counter().inc();
                }
                return arrival;
            }
            if P::ACTIVE {
                hooks
                    .probe
                    .fault(arrival, FaultEvent::LinkRetry { link: id, attempt });
            }
            t = arrival + hooks.plan.link_backoff(attempt);
            attempt += 1;
        }
    }

    /// Total bytes that have crossed the link.
    pub fn total_bytes(&self) -> u64 {
        self.bandwidth.total_bytes()
    }

    /// Achieved throughput over `elapsed`, in GB/s.
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        self.bandwidth.achieved_gbps(elapsed)
    }

    /// Fraction of `elapsed` the link spent busy.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        self.bandwidth.utilization(elapsed)
    }

    /// The link's configured bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth.bytes_per_cycle()
    }

    /// Per-traversal latency.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// The energy tier traffic on this link is accounted to.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Energy spent on this link so far, in joules.
    pub fn joules(&self) -> f64 {
        self.tier.joules_for_bytes(self.total_bytes())
    }

    /// The link's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.bandwidth.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_pays_serialization_plus_hop() {
        let mut l = Link::new("t", 128.0, Cycle::new(32), Tier::Package);
        // 256 B at 128 B/cycle = 2 cycles + 32 = 34.
        assert_eq!(l.transfer(Cycle::ZERO, 256), Cycle::new(34));
    }

    #[test]
    fn overlapping_transfers_queue() {
        let mut l = Link::new("t", 64.0, Cycle::new(10), Tier::Package);
        let a = l.transfer(Cycle::ZERO, 640); // serializes 10 cycles
        let b = l.transfer(Cycle::ZERO, 640); // queues 10 more
        assert_eq!(a, Cycle::new(20));
        assert_eq!(b, Cycle::new(30));
        assert_eq!(l.total_bytes(), 1280);
    }

    #[test]
    fn energy_matches_tier() {
        let mut l = Link::new("t", 1000.0, Cycle::ZERO, Tier::Board);
        l.transfer(Cycle::ZERO, 1000);
        let expect = Tier::Board.joules_for_bytes(1000);
        assert!((l.joules() - expect).abs() < 1e-15);
    }

    #[test]
    fn probed_transfer_reports_identity_and_arrival() {
        #[derive(Default)]
        struct Log(Vec<(LinkId, u64, u64)>);
        impl Probe for Log {
            fn link_transfer(&mut self, link: LinkId, _now: Cycle, bytes: u64, arrival: Cycle) {
                self.0.push((link, bytes, arrival.as_u64()));
            }
        }
        let mut hooks = Hooks::new(Log::default(), mcm_fault::NullFaultPlan);
        let mut l = Link::new("t", 128.0, Cycle::new(32), Tier::Package);
        let t = l.transfer_hooked(Cycle::ZERO, 256, LinkId::RingCw(1), &mut hooks);
        assert_eq!(t, Cycle::new(34));
        assert_eq!(hooks.probe.0, vec![(LinkId::RingCw(1), 256, 34)]);
    }

    #[test]
    fn zero_byte_transfer_skips_the_bandwidth_queue() {
        let mut l = Link::new("t", 64.0, Cycle::new(10), Tier::Package);
        assert_eq!(l.transfer(Cycle::new(5), 0), Cycle::new(15));
        assert_eq!(l.total_bytes(), 0);
        // The queue was untouched: a real transfer starts immediately.
        assert_eq!(l.transfer(Cycle::ZERO, 640), Cycle::new(20));
    }

    #[test]
    fn hooked_transfer_with_null_hooks_is_plain_transfer() {
        let mut a = Link::new("a", 128.0, Cycle::new(32), Tier::Package);
        let mut b = Link::new("b", 128.0, Cycle::new(32), Tier::Package);
        for i in 0..8 {
            let x = a.transfer(Cycle::new(i), 256);
            let y = b.transfer_hooked(Cycle::new(i), 256, LinkId::RingCw(0), &mut Hooks::null());
            assert_eq!(x, y);
        }
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn link_errors_retransmit_with_backoff() {
        /// Always errors until the budget is spent.
        struct AlwaysError;
        impl FaultPlan for AlwaysError {
            fn link_error(&mut self, _link: LinkId, _attempt: u32) -> bool {
                true
            }
            fn link_backoff(&self, _attempt: u32) -> Cycle {
                Cycle::new(100)
            }
            fn link_max_retries(&self) -> u32 {
                2
            }
        }
        let mut l = Link::new("t", 128.0, Cycle::new(32), Tier::Package);
        let mut hooks = Hooks::new(mcm_probe::NullProbe, AlwaysError);
        let done = l.transfer_hooked(Cycle::ZERO, 256, LinkId::RingCw(0), &mut hooks);
        // Three attempts (2 retries), each 2 cycles serialization + 32
        // hop, with a 100-cycle backoff between them:
        // 34 → +100+2+32 = 168 → +100+2+32 = 302. The third attempt is
        // forced through (budget spent).
        assert_eq!(done, Cycle::new(302));
        // All three attempts really crossed the wire.
        assert_eq!(l.total_bytes(), 3 * 256);
    }

    #[test]
    fn utilization_reflects_load() {
        let mut l = Link::new("t", 100.0, Cycle::ZERO, Tier::Package);
        l.transfer(Cycle::ZERO, 500); // busy 5 cycles
        assert!((l.utilization(Cycle::new(10)) - 0.5).abs() < 1e-9);
        assert!((l.achieved_gbps(Cycle::new(10)) - 50.0).abs() < 1e-9);
    }
}

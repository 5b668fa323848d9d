//! The on-package ring network connecting GPMs (§3.2: GPM-Xbars
//! "collectively provide a modular on-package ring or mesh interconnect
//! network").

use mcm_engine::Cycle;

use crate::energy::Tier;
use crate::link::Link;

/// Identifies a node (GPM or GPU) on an interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The node index as a `usize` for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Direction of travel around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingDir {
    /// From node `i` to node `i + 1` (mod n).
    Clockwise,
    /// From node `i` to node `i - 1` (mod n).
    CounterClockwise,
}

/// A bidirectional ring of `n` nodes built from `2n` unidirectional
/// link segments (clockwise and counter-clockwise), each with the
/// configured per-link bandwidth and per-hop latency.
///
/// A transfer from node `a` to node `b` takes the shorter direction
/// (equidistant ties spread by node parity), serializing on *every*
/// segment it crosses
/// and paying the hop latency per segment — so multi-hop remote traffic
/// consumes proportionally more ring bandwidth, exactly the effect that
/// makes locality worth engineering for.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_interconnect::ring::{NodeId, RingNetwork};
///
/// let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
/// assert_eq!(ring.hops(NodeId(0), NodeId(1)), 1);
/// assert_eq!(ring.hops(NodeId(0), NodeId(2)), 2); // opposite corner
/// assert_eq!(ring.hops(NodeId(0), NodeId(3)), 1); // counter-clockwise
/// let done = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(2), 128);
/// assert!(done >= Cycle::new(64)); // two hops
/// ```
#[derive(Debug, Clone)]
pub struct RingNetwork {
    nodes: u8,
    /// `cw[i]` carries traffic from node i to node (i+1) % n.
    cw: Vec<Link>,
    /// `ccw[i]` carries traffic from node (i+1) % n to node i.
    ccw: Vec<Link>,
    hop_latency: Cycle,
}

impl RingNetwork {
    /// Builds an on-package (package-tier) ring of `nodes` nodes with
    /// `link_gbps` per segment per direction and `hop_latency` per hop.
    ///
    /// A 1-node ring is legal and carries no traffic (a monolithic GPU).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u8, link_gbps: f64, hop_latency: Cycle) -> Self {
        RingNetwork::with_tier(nodes, link_gbps, hop_latency, Tier::Package)
    }

    /// Like [`RingNetwork::new`] but on an explicit energy tier — the
    /// multi-GPU comparison of §6 connects GPUs with board-tier links.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_tier(nodes: u8, link_gbps: f64, hop_latency: Cycle, tier: Tier) -> Self {
        assert!(nodes > 0, "ring needs at least one node");
        let segs = if nodes > 1 { usize::from(nodes) } else { 0 };
        let cw = (0..segs)
            .map(|_| Link::new("ring-cw", link_gbps, hop_latency, tier))
            .collect();
        let ccw = (0..segs)
            .map(|_| Link::new("ring-ccw", link_gbps, hop_latency, tier))
            .collect();
        RingNetwork {
            nodes,
            cw,
            ccw,
            hop_latency,
        }
    }

    /// The energy tier of the ring's links (all segments share it).
    pub fn tier(&self) -> Tier {
        self.cw.first().map_or(Tier::Package, Link::tier)
    }

    /// Number of nodes on the ring.
    pub fn nodes(&self) -> u8 {
        self.nodes
    }

    /// Per-hop latency.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// Minimum hop count between two nodes.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        let n = u32::from(self.nodes);
        let a = u32::from(from.0) % n;
        let b = u32::from(to.0) % n;
        let cw = (b + n - a) % n;
        cw.min(n - cw)
    }

    /// Computes the shortest route from `from` to `to`: the direction to
    /// travel and the hop count. Equidistant routes are tie-broken by
    /// the parity of the *source* node: even sources go clockwise, odd
    /// ones counter-clockwise. On a 4-ring this splits opposite-corner
    /// traffic (requests one way, the symmetric responses the other)
    /// exactly in half per direction; a naive always-clockwise
    /// tie-break concentrates every 2-hop transfer on one direction and
    /// strands nearly half the ring's capacity.
    pub fn route(&self, from: NodeId, to: NodeId) -> (RingDir, u32) {
        let n = u32::from(self.nodes);
        let a = u32::from(from.0) % n;
        let b = u32::from(to.0) % n;
        let cw = (b + n - a) % n;
        let ccw = n - cw;
        if cw == 0 {
            (RingDir::Clockwise, 0)
        } else if cw < ccw || (cw == ccw && a % 2 == 0) {
            (RingDir::Clockwise, cw)
        } else {
            (RingDir::CounterClockwise, ccw)
        }
    }

    /// Moves `bytes` one hop from `node` in direction `dir`, starting at
    /// `now`; returns `(next_node, arrival_time)`.
    ///
    /// This is the primitive an event-driven caller should use: issuing
    /// each hop at its own (globally ordered) event time keeps every
    /// segment's next-free-time queue causally consistent. The
    /// whole-path [`RingNetwork::transfer`] convenience chains hops
    /// inside one call and is only appropriate for standalone use.
    ///
    /// # Panics
    ///
    /// Panics on a single-node ring (no segments to hop).
    #[inline]
    pub fn hop(&mut self, now: Cycle, node: NodeId, dir: RingDir, bytes: u64) -> (NodeId, Cycle) {
        self.hop_probed(now, node, dir, bytes, &mut mcm_probe::NullProbe)
    }

    /// Like [`RingNetwork::hop`], additionally reporting the segment
    /// crossed ([`mcm_probe::LinkId::RingCw`] carrying node `i` to
    /// `i + 1`, [`mcm_probe::LinkId::RingCcw`] the reverse) to `probe`.
    ///
    /// # Panics
    ///
    /// Panics on a single-node ring (no segments to hop).
    pub fn hop_probed<P: mcm_probe::Probe>(
        &mut self,
        now: Cycle,
        node: NodeId,
        dir: RingDir,
        bytes: u64,
        probe: &mut P,
    ) -> (NodeId, Cycle) {
        let n = u32::from(self.nodes);
        assert!(n > 1, "cannot hop on a single-node ring");
        let a = u32::from(node.0) % n;
        match dir {
            RingDir::Clockwise => {
                let id = mcm_probe::LinkId::RingCw(a as u8);
                let t = self.cw[a as usize].transfer_probed(now, bytes, id, probe);
                (NodeId(((a + 1) % n) as u8), t)
            }
            RingDir::CounterClockwise => {
                let prev = (a + n - 1) % n;
                let id = mcm_probe::LinkId::RingCcw(prev as u8);
                let t = self.ccw[prev as usize].transfer_probed(now, bytes, id, probe);
                (NodeId(prev as u8), t)
            }
        }
    }

    /// Like [`RingNetwork::hop_probed`], additionally consulting `plan`
    /// for transient link errors (see
    /// [`Link::transfer_faulted`](crate::link::Link::transfer_faulted)).
    ///
    /// # Panics
    ///
    /// Panics on a single-node ring (no segments to hop).
    pub fn hop_faulted<P: mcm_probe::Probe, F: mcm_fault::FaultPlan>(
        &mut self,
        now: Cycle,
        node: NodeId,
        dir: RingDir,
        bytes: u64,
        probe: &mut P,
        plan: &mut F,
    ) -> (NodeId, Cycle) {
        let n = u32::from(self.nodes);
        assert!(n > 1, "cannot hop on a single-node ring");
        let a = u32::from(node.0) % n;
        match dir {
            RingDir::Clockwise => {
                let id = mcm_probe::LinkId::RingCw(a as u8);
                let t = self.cw[a as usize].transfer_faulted(now, bytes, id, probe, plan);
                (NodeId(((a + 1) % n) as u8), t)
            }
            RingDir::CounterClockwise => {
                let prev = (a + n - 1) % n;
                let id = mcm_probe::LinkId::RingCcw(prev as u8);
                let t = self.ccw[prev as usize].transfer_faulted(now, bytes, id, probe, plan);
                (NodeId(prev as u8), t)
            }
        }
    }

    /// Sends `bytes` from `from` to `to` starting at `now`, traversing
    /// the shorter direction; returns arrival time. A self-transfer
    /// costs nothing and arrives immediately.
    ///
    /// Convenience for standalone use and tests; inside an event-driven
    /// simulation prefer one [`RingNetwork::hop`] per event (see its
    /// documentation for why).
    pub fn transfer(&mut self, now: Cycle, from: NodeId, to: NodeId, bytes: u64) -> Cycle {
        let (dir, hops) = self.route(from, to);
        let mut t = now;
        let mut node = from;
        for _ in 0..hops {
            let (next, done) = self.hop(t, node, dir, bytes);
            node = next;
            t = done;
        }
        t
    }

    /// Total bytes carried across all segments (multi-hop transfers
    /// count once per segment crossed).
    pub fn total_segment_bytes(&self) -> u64 {
        self.cw
            .iter()
            .chain(self.ccw.iter())
            .map(Link::total_bytes)
            .sum()
    }

    /// Aggregate achieved ring bandwidth over `elapsed`, in GB/s,
    /// summed over all segments. This is the quantity Figs. 7/10/14
    /// plot as "Inter-GPM BW".
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        self.cw
            .iter()
            .chain(self.ccw.iter())
            .map(|l| l.achieved_gbps(elapsed))
            .sum()
    }

    /// The most-utilized segment's utilization over `elapsed` — the
    /// ring's bottleneck.
    pub fn peak_utilization(&self, elapsed: Cycle) -> f64 {
        self.cw
            .iter()
            .chain(self.ccw.iter())
            .map(|l| l.utilization(elapsed))
            .fold(0.0, f64::max)
    }

    /// Total energy dissipated on ring segments, in joules.
    pub fn joules(&self) -> f64 {
        self.cw
            .iter()
            .chain(self.ccw.iter())
            .map(Link::joules)
            .sum()
    }

    /// Per-segment `(cw, ccw)` next-free cycles (diagnostics).
    #[doc(hidden)]
    pub fn debug_segment_next_free(&self) -> Vec<(u64, u64)> {
        self.cw
            .iter()
            .zip(&self.ccw)
            .map(|(a, b)| (a.debug_next_free().as_u64(), b.debug_next_free().as_u64()))
            .collect()
    }

    /// Per-segment `(cw_bytes, ccw_bytes)` totals (diagnostics).
    #[doc(hidden)]
    pub fn debug_segment_bytes(&self) -> Vec<(u64, u64)> {
        self.cw
            .iter()
            .zip(&self.ccw)
            .map(|(a, b)| (a.total_bytes(), b.total_bytes()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts_on_a_four_ring() {
        let ring = RingNetwork::new(4, 768.0, Cycle::new(32));
        assert_eq!(ring.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(ring.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(ring.hops(NodeId(0), NodeId(2)), 2);
        assert_eq!(ring.hops(NodeId(0), NodeId(3)), 1);
        assert_eq!(ring.hops(NodeId(3), NodeId(1)), 2);
        assert_eq!(ring.hops(NodeId(2), NodeId(3)), 1);
    }

    #[test]
    fn self_transfer_is_free() {
        let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
        assert_eq!(
            ring.transfer(Cycle::new(5), NodeId(2), NodeId(2), 1 << 20),
            Cycle::new(5)
        );
        assert_eq!(ring.total_segment_bytes(), 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut ring = RingNetwork::new(4, 1_000_000.0, Cycle::new(32));
        let one = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(1), 128);
        let two = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(2), 128);
        assert_eq!(one, Cycle::new(33)); // serialization rounds to 1
        assert_eq!(two, Cycle::new(66));
    }

    #[test]
    fn multi_hop_charges_every_segment() {
        let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
        ring.transfer(Cycle::ZERO, NodeId(0), NodeId(2), 128);
        assert_eq!(ring.total_segment_bytes(), 256);
    }

    #[test]
    fn counter_clockwise_route_is_taken_when_shorter() {
        let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
        // 0 -> 3 is one hop counter-clockwise, three clockwise.
        let t = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(3), 768);
        assert_eq!(t, Cycle::new(33));
        // Reverse direction uses the other physical links.
        let t2 = ring.transfer(Cycle::ZERO, NodeId(3), NodeId(0), 768);
        assert_eq!(t2, Cycle::new(33), "no contention with opposite direction");
    }

    #[test]
    fn contention_on_shared_segment() {
        let mut ring = RingNetwork::new(4, 128.0, Cycle::new(0));
        // Both 0->1 and 0->1 share segment cw[0].
        let a = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(1), 1280); // 10 cycles
        let b = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(1), 1280);
        assert_eq!(a, Cycle::new(10));
        assert_eq!(b, Cycle::new(20));
        assert!(ring.peak_utilization(b) > 0.9);
    }

    #[test]
    fn single_node_ring_is_inert() {
        let mut ring = RingNetwork::new(1, 768.0, Cycle::new(32));
        assert_eq!(ring.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(
            ring.transfer(Cycle::ZERO, NodeId(0), NodeId(0), 128),
            Cycle::ZERO
        );
        assert_eq!(ring.achieved_gbps(Cycle::new(100)), 0.0);
    }

    #[test]
    fn two_node_ring_uses_distinct_directions() {
        let mut ring = RingNetwork::new(2, 100.0, Cycle::new(1));
        let a = ring.transfer(Cycle::ZERO, NodeId(0), NodeId(1), 1000);
        let b = ring.transfer(Cycle::ZERO, NodeId(1), NodeId(0), 1000);
        // Each direction has its own link: no mutual contention.
        assert_eq!(a, b);
    }

    #[test]
    fn energy_accounts_per_segment() {
        let mut ring = RingNetwork::new(4, 768.0, Cycle::ZERO);
        ring.transfer(Cycle::ZERO, NodeId(0), NodeId(2), 1000);
        let expect = crate::energy::Tier::Package.joules_for_bytes(2000);
        assert!((ring.joules() - expect).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        RingNetwork::new(0, 768.0, Cycle::ZERO);
    }

    #[test]
    fn probed_hops_name_the_segments() {
        #[derive(Default)]
        struct Log(Vec<String>);
        impl mcm_probe::Probe for Log {
            fn link_transfer(
                &mut self,
                link: mcm_probe::LinkId,
                _now: Cycle,
                _bytes: u64,
                _arrival: Cycle,
            ) {
                self.0.push(link.to_string());
            }
        }
        let mut log = Log::default();
        let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
        ring.hop_probed(Cycle::ZERO, NodeId(0), RingDir::Clockwise, 128, &mut log);
        // Counter-clockwise from node 0 crosses the segment owned by
        // node 3 (ccw[3] carries traffic from node 0 to node 3).
        ring.hop_probed(
            Cycle::ZERO,
            NodeId(0),
            RingDir::CounterClockwise,
            128,
            &mut log,
        );
        assert_eq!(log.0, vec!["cw0", "ccw3"]);
    }
}

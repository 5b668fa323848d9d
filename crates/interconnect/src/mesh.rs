//! Alternative inter-GPM network: a fully connected point-to-point
//! fabric, and the [`Fabric`] wrapper that lets the system pick a
//! topology at configuration time.
//!
//! §3.2 notes that "other network topologies are also possible
//! especially with growing number of GPMs" but leaves the exploration
//! out of scope. This module makes that exploration runnable: a fully
//! connected fabric gives every pair of modules a dedicated 1-hop link,
//! trading per-link bandwidth (the package wiring budget is split over
//! `n(n-1)/2` links instead of `n`) for hop count.

use mcm_engine::Cycle;

use crate::energy::Tier;
use crate::link::Link;
use crate::ring::{NodeId, RingDir, RingNetwork};

/// A fully connected network: one dedicated directional link per
/// ordered pair of nodes; every route is a single hop.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_interconnect::mesh::FullMesh;
/// use mcm_interconnect::ring::NodeId;
///
/// let mut mesh = FullMesh::new(4, 512.0, Cycle::new(32));
/// let (next, t) = mesh.hop(Cycle::ZERO, NodeId(0), NodeId(2), 128);
/// assert_eq!(next, NodeId(2));
/// assert!(t >= Cycle::new(32));
/// ```
#[derive(Debug, Clone)]
pub struct FullMesh {
    nodes: u8,
    /// `links[a * n + b]` carries a → b (diagonal unused).
    links: Vec<Link>,
    hop_latency: Cycle,
    tier: Tier,
}

impl FullMesh {
    /// Builds a package-tier fully connected fabric with `link_gbps`
    /// per directional link.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u8, link_gbps: f64, hop_latency: Cycle) -> Self {
        FullMesh::with_tier(nodes, link_gbps, hop_latency, Tier::Package)
    }

    /// Like [`FullMesh::new`] on an explicit energy tier.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_tier(nodes: u8, link_gbps: f64, hop_latency: Cycle, tier: Tier) -> Self {
        assert!(nodes > 0, "mesh needs at least one node");
        let n = usize::from(nodes);
        let links = (0..n * n)
            .map(|_| Link::new("mesh-link", link_gbps, hop_latency, tier))
            .collect();
        FullMesh {
            nodes,
            links,
            hop_latency,
            tier,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u8 {
        self.nodes
    }

    /// Per-hop latency.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// The energy tier of the links.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Moves `bytes` from `from` directly to `to`; returns
    /// `(destination, arrival)`. A self-transfer is free.
    pub fn hop(&mut self, now: Cycle, from: NodeId, to: NodeId, bytes: u64) -> (NodeId, Cycle) {
        self.hop_probed(now, from, to, bytes, &mut mcm_probe::NullProbe)
    }

    /// Like [`FullMesh::hop`], additionally reporting the link crossed
    /// ([`mcm_probe::LinkId::Mesh`]) to `probe`. Free self-transfers are
    /// not reported.
    pub fn hop_probed<P: mcm_probe::Probe>(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        probe: &mut P,
    ) -> (NodeId, Cycle) {
        let n = usize::from(self.nodes);
        let a = from.as_usize() % n;
        let b = to.as_usize() % n;
        if a == b {
            return (to, now);
        }
        let id = mcm_probe::LinkId::Mesh {
            from: a as u8,
            to: b as u8,
        };
        let t = self.links[a * n + b].transfer_probed(now, bytes, id, probe);
        (to, t)
    }

    /// Like [`FullMesh::hop_probed`], additionally consulting `plan`
    /// for transient link errors (see
    /// [`Link::transfer_faulted`](crate::link::Link::transfer_faulted)).
    pub fn hop_faulted<P: mcm_probe::Probe, F: mcm_fault::FaultPlan>(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        probe: &mut P,
        plan: &mut F,
    ) -> (NodeId, Cycle) {
        let n = usize::from(self.nodes);
        let a = from.as_usize() % n;
        let b = to.as_usize() % n;
        if a == b {
            return (to, now);
        }
        let id = mcm_probe::LinkId::Mesh {
            from: a as u8,
            to: b as u8,
        };
        let t = self.links[a * n + b].transfer_faulted(now, bytes, id, probe, plan);
        (to, t)
    }

    /// Total bytes carried across all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.iter().map(Link::total_bytes).sum()
    }

    /// Aggregate achieved bandwidth over `elapsed`, in GB/s.
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        self.links.iter().map(|l| l.achieved_gbps(elapsed)).sum()
    }

    /// The most-utilized link's utilization over `elapsed`.
    pub fn peak_utilization(&self, elapsed: Cycle) -> f64 {
        self.links
            .iter()
            .map(|l| l.utilization(elapsed))
            .fold(0.0, f64::max)
    }
}

/// The inter-module network topology choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetworkKind {
    /// The paper's baseline: a bidirectional ring (§3.2).
    #[default]
    Ring,
    /// One dedicated link per module pair; single-hop everywhere, but
    /// an equal wiring budget is split over more links.
    FullyConnected,
}

/// A topology-polymorphic inter-module fabric with the hop-based API
/// the event loop drives.
///
/// `link_gbps` passed to [`Fabric::new`] is the *bidirectional per-link
/// budget of the ring design*; the fully connected variant receives the
/// same total escape bandwidth per module, split across its `n - 1`
/// links (so comparisons are iso-wiring).
#[derive(Debug, Clone)]
pub enum Fabric {
    /// Ring of `n` segments per direction.
    Ring(RingNetwork),
    /// Fully connected point-to-point fabric.
    FullyConnected(FullMesh),
}

impl Fabric {
    /// Builds the chosen topology from the ring-equivalent wiring
    /// budget: `link_gbps` bidirectional per ring link.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(
        kind: NetworkKind,
        nodes: u8,
        link_gbps: f64,
        hop_latency: Cycle,
        tier: Tier,
    ) -> Self {
        match kind {
            NetworkKind::Ring => Fabric::Ring(RingNetwork::with_tier(
                nodes,
                link_gbps / 2.0,
                hop_latency,
                tier,
            )),
            NetworkKind::FullyConnected => {
                // A ring node escapes over 2 links × (gbps/2) per
                // direction = `gbps` per direction total. Split the
                // same budget over n-1 direct links.
                let per_link = if nodes > 1 {
                    link_gbps / f64::from(nodes - 1)
                } else {
                    link_gbps
                };
                Fabric::FullyConnected(FullMesh::with_tier(nodes, per_link, hop_latency, tier))
            }
        }
    }

    /// Route from `from` to `to`: direction (meaningful for the ring)
    /// and hop count.
    pub fn route(&self, from: NodeId, to: NodeId) -> (RingDir, u32) {
        match self {
            Fabric::Ring(ring) => ring.route(from, to),
            Fabric::FullyConnected(_) => {
                let hops = u32::from(from != to);
                (RingDir::Clockwise, hops)
            }
        }
    }

    /// One hop toward `to`; returns `(next_node, arrival)`.
    pub fn hop(
        &mut self,
        now: Cycle,
        node: NodeId,
        to: NodeId,
        dir: RingDir,
        bytes: u64,
    ) -> (NodeId, Cycle) {
        match self {
            Fabric::Ring(ring) => ring.hop(now, node, dir, bytes),
            Fabric::FullyConnected(mesh) => mesh.hop(now, node, to, bytes),
        }
    }

    /// Like [`Fabric::hop`], forwarding the traversed link's identity
    /// to `probe`.
    pub fn hop_probed<P: mcm_probe::Probe>(
        &mut self,
        now: Cycle,
        node: NodeId,
        to: NodeId,
        dir: RingDir,
        bytes: u64,
        probe: &mut P,
    ) -> (NodeId, Cycle) {
        match self {
            Fabric::Ring(ring) => ring.hop_probed(now, node, dir, bytes, probe),
            Fabric::FullyConnected(mesh) => mesh.hop_probed(now, node, to, bytes, probe),
        }
    }

    /// Like [`Fabric::hop_probed`], additionally consulting `plan` for
    /// transient link errors.
    #[allow(clippy::too_many_arguments)]
    pub fn hop_faulted<P: mcm_probe::Probe, F: mcm_fault::FaultPlan>(
        &mut self,
        now: Cycle,
        node: NodeId,
        to: NodeId,
        dir: RingDir,
        bytes: u64,
        probe: &mut P,
        plan: &mut F,
    ) -> (NodeId, Cycle) {
        match self {
            Fabric::Ring(ring) => ring.hop_faulted(now, node, dir, bytes, probe, plan),
            Fabric::FullyConnected(mesh) => mesh.hop_faulted(now, node, to, bytes, probe, plan),
        }
    }

    /// Total bytes carried, counted per traversed link.
    pub fn total_bytes(&self) -> u64 {
        match self {
            Fabric::Ring(ring) => ring.total_segment_bytes(),
            Fabric::FullyConnected(mesh) => mesh.total_bytes(),
        }
    }

    /// Aggregate achieved bandwidth over `elapsed` in GB/s.
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        match self {
            Fabric::Ring(ring) => ring.achieved_gbps(elapsed),
            Fabric::FullyConnected(mesh) => mesh.achieved_gbps(elapsed),
        }
    }

    /// The busiest link's utilization over `elapsed`.
    pub fn peak_utilization(&self, elapsed: Cycle) -> f64 {
        match self {
            Fabric::Ring(ring) => ring.peak_utilization(elapsed),
            Fabric::FullyConnected(mesh) => mesh.peak_utilization(elapsed),
        }
    }

    /// The links' energy tier.
    pub fn tier(&self) -> Tier {
        match self {
            Fabric::Ring(ring) => ring.tier(),
            Fabric::FullyConnected(mesh) => mesh.tier(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_is_always_one_hop() {
        let fabric = Fabric::new(
            NetworkKind::FullyConnected,
            8,
            768.0,
            Cycle::new(32),
            Tier::Package,
        );
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (_, hops) = fabric.route(NodeId(a), NodeId(b));
                assert_eq!(hops, u32::from(a != b));
            }
        }
    }

    #[test]
    fn mesh_self_transfer_free() {
        let mut mesh = FullMesh::new(4, 512.0, Cycle::new(32));
        let (next, t) = mesh.hop(Cycle::new(7), NodeId(2), NodeId(2), 4096);
        assert_eq!(next, NodeId(2));
        assert_eq!(t, Cycle::new(7));
        assert_eq!(mesh.total_bytes(), 0);
    }

    #[test]
    fn mesh_pairs_have_independent_links() {
        let mut mesh = FullMesh::new(4, 128.0, Cycle::ZERO);
        let (_, a) = mesh.hop(Cycle::ZERO, NodeId(0), NodeId(1), 1280);
        let (_, b) = mesh.hop(Cycle::ZERO, NodeId(0), NodeId(2), 1280);
        // Different destination → different link → no mutual queueing.
        assert_eq!(a, b);
        // Same pair queues.
        let (_, c) = mesh.hop(Cycle::ZERO, NodeId(0), NodeId(1), 1280);
        assert!(c > a);
    }

    #[test]
    fn iso_wiring_budget_split() {
        // Ring: 768 bidirectional per link → 384 per direction per
        // segment. FC on 4 nodes: 768 / 3 = 256 per directional link.
        let ring = Fabric::new(NetworkKind::Ring, 4, 768.0, Cycle::ZERO, Tier::Package);
        let mesh = Fabric::new(
            NetworkKind::FullyConnected,
            4,
            768.0,
            Cycle::ZERO,
            Tier::Package,
        );
        match (ring, mesh) {
            (Fabric::Ring(_), Fabric::FullyConnected(m)) => {
                let mut m = m;
                // One 256-byte transfer at 256 B/cy takes 1 cycle.
                let (_, t) = m.hop(Cycle::ZERO, NodeId(0), NodeId(1), 256);
                assert_eq!(t, Cycle::new(1));
            }
            _ => panic!("constructor returned wrong variants"),
        }
    }

    #[test]
    fn fabric_ring_dispatch_matches_ring() {
        let mut fabric = Fabric::new(NetworkKind::Ring, 4, 768.0, Cycle::new(32), Tier::Package);
        let (dir, hops) = fabric.route(NodeId(0), NodeId(3));
        assert_eq!(hops, 1);
        let (next, t) = fabric.hop(Cycle::ZERO, NodeId(0), NodeId(3), dir, 128);
        assert_eq!(next, NodeId(3));
        assert!(t >= Cycle::new(32));
        assert_eq!(fabric.total_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_mesh_panics() {
        FullMesh::new(0, 1.0, Cycle::ZERO);
    }

    #[test]
    fn probed_mesh_hop_names_the_pair() {
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
        let mut mesh = FullMesh::new(4, 512.0, Cycle::new(32));
        mesh.hop_probed(Cycle::ZERO, NodeId(1), NodeId(3), 128, &mut log);
        // Free self-transfers cross no link and are not reported.
        mesh.hop_probed(Cycle::ZERO, NodeId(2), NodeId(2), 128, &mut log);
        assert_eq!(log.0, vec!["mesh1-3"]);
    }
}

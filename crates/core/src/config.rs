//! System configurations: topologies, cache hierarchies, and the
//! presets for every machine the paper evaluates.

use mcm_engine::rng::StableHasher;
use mcm_engine::Cycle;
use mcm_interconnect::energy::Tier;
use mcm_interconnect::mesh::NetworkKind;
use mcm_mem::cache::AllocFilter;
use mcm_mem::page::PlacementPolicy;
use mcm_sm::{SchedulerPolicy, SmConfig};

/// Bytes in one mebibyte.
pub const MIB: u64 = 1 << 20;
/// Bytes in one kibibyte.
pub const KIB: u64 = 1 << 10;

/// The physical organization of the GPU: how many modules (GPMs or
/// discrete GPUs), how they are linked, and at what energy tier.
///
/// A monolithic GPU is the 1-module degenerate case: no inter-module
/// links, everything local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of modules (GPMs in an MCM-GPU, GPUs in a multi-GPU).
    pub modules: u8,
    /// SMs per module.
    pub sms_per_module: u32,
    /// Bidirectional bandwidth of one inter-module link in GB/s (the
    /// paper's Table 3 "768 GB/s per link"); each direction carries
    /// half.
    pub link_gbps: f64,
    /// Latency of one inter-module hop, in cycles (paper §3.2: 32 for
    /// on-package GRS).
    pub hop_cycles: u64,
    /// Energy tier of the inter-module links.
    pub link_tier: Tier,
    /// Inter-module network topology (§3.2 uses a ring; the
    /// fully-connected alternative explores the same wiring budget
    /// spent on direct links).
    pub network: NetworkKind,
}

impl Topology {
    /// Total SM count.
    pub fn total_sms(&self) -> u32 {
        u32::from(self.modules) * self.sms_per_module
    }

    /// A single-die GPU of `sms` SMs.
    pub fn monolithic(sms: u32) -> Self {
        Topology {
            modules: 1,
            sms_per_module: sms,
            // Irrelevant for one module, but must be positive.
            link_gbps: 1.0,
            hop_cycles: 0,
            link_tier: Tier::Chip,
            network: NetworkKind::Ring,
        }
    }

    /// The paper's 4-GPM on-package organization with the given GRS
    /// link bandwidth.
    pub fn mcm(link_gbps: f64) -> Self {
        Topology {
            modules: 4,
            sms_per_module: 64,
            link_gbps,
            hop_cycles: 32,
            link_tier: Tier::Package,
            network: NetworkKind::Ring,
        }
    }

    /// The §6 multi-GPU organization: two maximally sized 128-SM GPUs
    /// joined by next-generation on-board links (256 GB/s aggregate,
    /// i.e. 128 GB/s per direction) with a board-class hop latency.
    pub fn multi_gpu() -> Self {
        Topology {
            modules: 2,
            sms_per_module: 128,
            link_gbps: 256.0,
            // On-board SerDes + protocol stack: several hundred
            // nanoseconds each way, an order worse than the on-package
            // GRS hop (Table 2's qualitative "High" overhead).
            hop_cycles: 120,
            link_tier: Tier::Board,
            network: NetworkKind::Ring,
        }
    }
}

/// Cache capacities and policies, expressed as machine totals (the
/// paper's convention: "16MB total L2", "8MB L1.5").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheHierarchy {
    /// Per-SM L1 data cache capacity in bytes (Table 3: 128 KB).
    pub l1_bytes_per_sm: u64,
    /// Total GPM-side L1.5 capacity in bytes across all modules; zero
    /// disables the level (the baseline).
    pub l15_bytes_total: u64,
    /// L1.5 allocation filter (§5.1.2 settles on remote-only).
    pub l15_filter: AllocFilter,
    /// Total memory-side L2 capacity in bytes across all partitions.
    pub l2_bytes_total: u64,
}

impl CacheHierarchy {
    /// The baseline hierarchy: 128 KB L1 per SM, no L1.5, 16 MB L2.
    pub fn baseline() -> Self {
        CacheHierarchy {
            l1_bytes_per_sm: 128 * KIB,
            l15_bytes_total: 0,
            l15_filter: AllocFilter::RemoteOnly,
            l2_bytes_total: 16 * MIB,
        }
    }

    /// An iso-transistor rebalance moving `l15_mb` of the 16 MB L2 into
    /// L1.5 caches (§5.1.2). Moving all 16 MB keeps the paper's vestigial
    /// 32 KB per-partition L2 for atomics.
    pub fn rebalanced(l15_mb: u64, filter: AllocFilter, modules: u8) -> Self {
        CacheHierarchy::rebalanced_from(16 * MIB, l15_mb * MIB, filter, modules)
    }

    /// Like [`CacheHierarchy::rebalanced`] for an arbitrary total cache
    /// budget in bytes (scaled-down machines in tests, design
    /// exploration): `l15_bytes` of `total_l2_bytes` move to the L1.5;
    /// moving everything keeps a vestigial 32 KB per partition.
    pub fn rebalanced_from(
        total_l2_bytes: u64,
        l15_bytes: u64,
        filter: AllocFilter,
        modules: u8,
    ) -> Self {
        let l2 = if l15_bytes >= total_l2_bytes {
            32 * KIB * u64::from(modules)
        } else {
            total_l2_bytes - l15_bytes
        };
        CacheHierarchy {
            l1_bytes_per_sm: 128 * KIB,
            l15_bytes_total: l15_bytes,
            l15_filter: filter,
            l2_bytes_total: l2,
        }
    }
}

/// One complete machine configuration: everything [`crate::Simulator`]
/// needs to build and time a system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Human-readable configuration name used in reports.
    pub name: String,
    /// Physical organization.
    pub topology: Topology,
    /// Cache capacities and policies.
    pub caches: CacheHierarchy,
    /// Aggregate DRAM bandwidth in GB/s (Table 3: 3 TB/s), split evenly
    /// across per-module partitions.
    pub dram_total_gbps: f64,
    /// DRAM access latency in nanoseconds (Table 3: 100 ns).
    pub dram_latency_ns: u64,
    /// Page placement policy (§3.2 interleaved baseline, §5.3 first
    /// touch).
    pub placement: PlacementPolicy,
    /// CTA scheduling policy (§3.2 centralized baseline, §5.2
    /// distributed).
    pub scheduler: SchedulerPolicy,
    /// Granularity at which the page-granular placement policies
    /// operate, in bytes (the GPU driver's allocation granularity;
    /// 64 KiB by default).
    pub ft_page_bytes: u64,
    /// Per-SM microarchitecture.
    pub sm: SmConfig,
}

// Grid executors move configurations, workloads, and reports across
// worker threads; keep that a compile-time guarantee rather than an
// accident of today's field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
    assert_send_sync::<Topology>();
    assert_send_sync::<CacheHierarchy>();
};

impl SystemConfig {
    /// DRAM bandwidth of one module's local partition.
    pub fn dram_gbps_per_module(&self) -> f64 {
        self.dram_total_gbps / f64::from(self.topology.modules)
    }

    /// A stable 64-bit fingerprint over **every** field of the
    /// configuration — name, topology, caches, bandwidths, policies,
    /// and SM microarchitecture. Two configurations fingerprint equally
    /// iff they would simulate identically *and* report under the same
    /// name, so memo caches and artifact stems can key on this instead
    /// of the display name alone (two presets tweaked apart but left
    /// sharing a name no longer alias).
    ///
    /// The hash is [`StableHasher`] (FNV-1a): identical across runs,
    /// builds, and machines, making it safe to embed in golden-compared
    /// artifact filenames.
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructures, no `..`: a field added to any of
        // these structs fails to compile here until it is hashed.
        let SystemConfig {
            name,
            topology,
            caches,
            dram_total_gbps,
            dram_latency_ns,
            placement,
            scheduler,
            ft_page_bytes,
            sm,
        } = self;
        let Topology {
            modules,
            sms_per_module,
            link_gbps,
            hop_cycles,
            link_tier,
            network,
        } = topology;
        let CacheHierarchy {
            l1_bytes_per_sm,
            l15_bytes_total,
            l15_filter,
            l2_bytes_total,
        } = caches;
        let SmConfig {
            max_warps,
            issue_ipc,
            mshr_entries,
            mlp_per_warp,
        } = sm;
        let mut h = StableHasher::new();
        h.write_str(name);
        h.write_u8(*modules);
        h.write_u32(*sms_per_module);
        h.write_f64(*link_gbps);
        h.write_u64(*hop_cycles);
        h.write_u8(match link_tier {
            Tier::Chip => 0,
            Tier::Package => 1,
            Tier::Board => 2,
            Tier::System => 3,
        });
        h.write_u8(match network {
            NetworkKind::Ring => 0,
            NetworkKind::FullyConnected => 1,
        });
        h.write_u64(*l1_bytes_per_sm);
        h.write_u64(*l15_bytes_total);
        h.write_u8(match l15_filter {
            AllocFilter::All => 0,
            AllocFilter::RemoteOnly => 1,
            AllocFilter::LocalOnly => 2,
            AllocFilter::Adaptive => 3,
        });
        h.write_u64(*l2_bytes_total);
        h.write_f64(*dram_total_gbps);
        h.write_u64(*dram_latency_ns);
        h.write_u8(match placement {
            PlacementPolicy::Interleaved => 0,
            PlacementPolicy::FirstTouch => 1,
            PlacementPolicy::PageRoundRobin => 2,
        });
        match *scheduler {
            SchedulerPolicy::Centralized => h.write_u8(0),
            SchedulerPolicy::Distributed => h.write_u8(1),
            SchedulerPolicy::Chunked { group } => {
                h.write_u8(2);
                h.write_u32(group);
            }
            SchedulerPolicy::Dynamic { group } => {
                h.write_u8(3);
                h.write_u32(group);
            }
        }
        h.write_u64(*ft_page_bytes);
        h.write_u32(*max_warps);
        h.write_f64(*issue_ipc);
        h.write_u64(*mshr_entries as u64);
        h.write_u32(*mlp_per_warp);
        h.finish()
    }

    /// DRAM latency as cycles at the 1 GHz core clock.
    pub fn dram_latency(&self) -> Cycle {
        Cycle::from_ns(self.dram_latency_ns)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.topology.modules == 0 || self.topology.sms_per_module == 0 {
            return Err("topology must have modules and SMs".into());
        }
        if !self.dram_total_gbps.is_finite() || self.dram_total_gbps <= 0.0 {
            return Err(format!(
                "DRAM bandwidth must be finite and positive, got {}",
                self.dram_total_gbps
            ));
        }
        // The link fields must be sane even for a monolithic machine (a
        // NaN would poison any later multi-module derivation of the
        // config), and a multi-module machine with free infinite links
        // and zero hop latency is a degenerate non-machine.
        if !self.topology.link_gbps.is_finite() || self.topology.link_gbps <= 0.0 {
            return Err(format!(
                "link bandwidth must be finite and positive, got {}",
                self.topology.link_gbps
            ));
        }
        if self.topology.modules > 1
            && self.topology.hop_cycles == 0
            && self.topology.link_gbps >= 1e9
        {
            return Err("multi-module links need either hop latency or finite bandwidth".into());
        }
        if !self.sm.issue_ipc.is_finite() || self.sm.issue_ipc <= 0.0 {
            return Err(format!(
                "SM issue rate must be finite and positive, got {}",
                self.sm.issue_ipc
            ));
        }
        if self.caches.l1_bytes_per_sm == 0 {
            return Err("SMs need an L1 (the model assumes one)".into());
        }
        if self.caches.l2_bytes_total == 0 {
            return Err("partitions need a (possibly tiny) L2".into());
        }
        if self.ft_page_bytes < mcm_mem::addr::LINE_BYTES {
            return Err("placement pages must hold at least one line".into());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Presets: every machine the paper evaluates.
    // ------------------------------------------------------------------

    /// The baseline MCM-GPU of Table 3: 4 GPMs × 64 SMs, 768 GB/s GRS
    /// links, 16 MB L2, 3 TB/s DRAM, centralized scheduling, fine-grain
    /// interleaved placement, no L1.5.
    pub fn baseline_mcm() -> Self {
        SystemConfig {
            name: "MCM-GPU baseline (768 GB/s)".into(),
            topology: Topology::mcm(768.0),
            caches: CacheHierarchy::baseline(),
            dram_total_gbps: 3072.0,
            dram_latency_ns: 100,
            placement: PlacementPolicy::Interleaved,
            scheduler: SchedulerPolicy::Centralized,
            ft_page_bytes: 64 * KIB,
            sm: SmConfig::pascal_like(),
        }
    }

    /// A 256-SM MCM-GPU partitioned into `gpms` modules (2x128, 4x64,
    /// 8x32, ...) with the Table 3 link budget per link — the "at least
    /// two GPMs" design space §3.2 opens.
    ///
    /// # Panics
    ///
    /// Panics unless `gpms` divides 256.
    pub fn mcm_n_gpms(gpms: u8) -> Self {
        assert!(
            gpms > 0 && 256 % u32::from(gpms) == 0,
            "GPM count must divide 256"
        );
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.name = format!("MCM-GPU baseline ({gpms} GPMs)");
        cfg.topology.modules = gpms;
        cfg.topology.sms_per_module = 256 / u32::from(gpms);
        cfg
    }

    /// The baseline with a different inter-GPM link bandwidth — the
    /// Fig. 4 sweep.
    pub fn mcm_with_link(link_gbps: f64) -> Self {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.name = format!("MCM-GPU ({link_gbps:.0} GB/s links)");
        cfg.topology.link_gbps = link_gbps;
        cfg
    }

    /// Baseline plus an iso-transistor L1.5 of `l15_mb` MB total with
    /// the given allocation filter — the Fig. 6 design-space points.
    pub fn mcm_with_l15(l15_mb: u64, filter: AllocFilter) -> Self {
        let mut cfg = SystemConfig::baseline_mcm();
        let policy = match filter {
            AllocFilter::RemoteOnly => "remote-only",
            AllocFilter::All => "all-alloc",
            AllocFilter::LocalOnly => "local-only",
            AllocFilter::Adaptive => "adaptive",
        };
        cfg.name = format!("MCM-GPU + {l15_mb} MB {policy} L1.5");
        cfg.caches = CacheHierarchy::rebalanced(l15_mb, filter, cfg.topology.modules);
        cfg
    }

    /// The non-iso-transistor 32 MB L1.5 of Fig. 6 (adds 16 MB of
    /// transistors on top of moving the entire L2).
    pub fn mcm_with_l15_32mb(filter: AllocFilter) -> Self {
        let mut cfg = SystemConfig::mcm_with_l15(32, filter);
        cfg.caches.l15_bytes_total = 32 * MIB;
        cfg.caches.l2_bytes_total = 32 * KIB * u64::from(cfg.topology.modules);
        cfg
    }

    /// Baseline + 16 MB remote-only L1.5 + distributed CTA scheduling
    /// (the Fig. 9/10 configuration).
    pub fn mcm_l15_ds() -> Self {
        let mut cfg = SystemConfig::mcm_with_l15(16, AllocFilter::RemoteOnly);
        cfg.name = "MCM-GPU + 16 MB RO L1.5 + DS".into();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg
    }

    /// The fully optimized MCM-GPU (§5.3, Fig. 13's best variant):
    /// 8 MB remote-only L1.5 + 8 MB L2 + distributed scheduling +
    /// first-touch placement.
    pub fn optimized_mcm() -> Self {
        let mut cfg = SystemConfig::mcm_with_l15(8, AllocFilter::RemoteOnly);
        cfg.name = "MCM-GPU optimized (8 MB RO L1.5 + DS + FT)".into();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg
    }

    /// The optimized MCM-GPU with the §5.4 *dynamic* CTA scheduler the
    /// paper leaves to future work: contiguous groups of `group` CTAs
    /// with whole-group stealing.
    pub fn optimized_mcm_dynamic(group: u32) -> Self {
        let mut cfg = SystemConfig::optimized_mcm();
        cfg.name = format!("MCM-GPU optimized + dynamic scheduler (group {group})");
        cfg.scheduler = SchedulerPolicy::Dynamic { group };
        cfg
    }

    /// The optimized MCM-GPU with finer contiguous CTA groups but no
    /// stealing (§5.4's granularity observation).
    pub fn optimized_mcm_chunked(group: u32) -> Self {
        let mut cfg = SystemConfig::optimized_mcm();
        cfg.name = format!("MCM-GPU optimized + chunked scheduler (group {group})");
        cfg.scheduler = SchedulerPolicy::Chunked { group };
        cfg
    }

    /// The optimized MCM-GPU with the same package wiring budget spent
    /// on a fully connected inter-GPM fabric instead of a ring (§3.2's
    /// out-of-scope topology exploration).
    pub fn optimized_mcm_fully_connected() -> Self {
        let mut cfg = SystemConfig::optimized_mcm();
        cfg.name = "MCM-GPU optimized (fully connected fabric)".into();
        cfg.topology.network = NetworkKind::FullyConnected;
        cfg
    }

    /// The Fig. 13 alternative: FT + DS with the 16 MB L1.5 (only 32 KB
    /// of L2 per partition left) — worse than the 8/8 split.
    pub fn optimized_mcm_16mb_l15() -> Self {
        let mut cfg = SystemConfig::mcm_with_l15(16, AllocFilter::RemoteOnly);
        cfg.name = "MCM-GPU 16 MB RO L1.5 + DS + FT".into();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg
    }

    /// A monolithic single-die GPU of `sms` SMs with L2 and DRAM
    /// bandwidth scaled proportionally (Fig. 2's methodology: 384 GB/s
    /// and 2 MB L2 per 32 SMs). Buildable up to 128 SMs; larger counts
    /// are the paper's hypothetical comparison points.
    pub fn monolithic(sms: u32) -> Self {
        let units = f64::from(sms) / 32.0;
        SystemConfig {
            name: format!("Monolithic {sms}-SM GPU"),
            topology: Topology::monolithic(sms),
            caches: CacheHierarchy {
                l1_bytes_per_sm: 128 * KIB,
                l15_bytes_total: 0,
                l15_filter: AllocFilter::RemoteOnly,
                l2_bytes_total: ((units * 2.0 * MIB as f64) as u64).max(512 * KIB),
            },
            dram_total_gbps: 384.0 * units,
            dram_latency_ns: 100,
            placement: PlacementPolicy::Interleaved,
            scheduler: SchedulerPolicy::Centralized,
            ft_page_bytes: 64 * KIB,
            sm: SmConfig::pascal_like(),
        }
    }

    /// The largest buildable monolithic GPU (128 SMs, §2.1's reticle
    /// assumption).
    pub fn largest_buildable_monolithic() -> Self {
        let mut cfg = SystemConfig::monolithic(128);
        cfg.name = "Monolithic 128-SM GPU (largest buildable)".into();
        cfg
    }

    /// The hypothetical, unbuildable 256-SM monolithic GPU the paper
    /// compares against (within-10% target).
    pub fn hypothetical_monolithic_256() -> Self {
        let mut cfg = SystemConfig::monolithic(256);
        cfg.name = "Monolithic 256-SM GPU (unbuildable)".into();
        cfg
    }

    /// The §6 baseline multi-GPU: 2 × 128-SM GPUs, 1.5 TB/s DRAM and
    /// 8 MB L2 each, 256 GB/s aggregate board links, with distributed
    /// scheduling and first-touch placement applied (as §6.1 specifies).
    pub fn multi_gpu_baseline() -> Self {
        SystemConfig {
            name: "Multi-GPU baseline (2x128 SM)".into(),
            topology: Topology::multi_gpu(),
            caches: CacheHierarchy::baseline(),
            dram_total_gbps: 3072.0,
            dram_latency_ns: 100,
            placement: PlacementPolicy::FirstTouch,
            scheduler: SchedulerPolicy::Distributed,
            ft_page_bytes: 64 * KIB,
            sm: SmConfig::pascal_like(),
        }
    }

    /// The §6 optimized multi-GPU: baseline plus GPU-side remote caches
    /// (half the L2 capacity moved to remote-only L1.5s).
    pub fn multi_gpu_optimized() -> Self {
        let mut cfg = SystemConfig::multi_gpu_baseline();
        cfg.name = "Multi-GPU optimized (+ remote cache)".into();
        cfg.caches = CacheHierarchy::rebalanced(8, AllocFilter::RemoteOnly, cfg.topology.modules);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        let presets = [
            SystemConfig::baseline_mcm(),
            SystemConfig::mcm_with_link(384.0),
            SystemConfig::mcm_with_link(6144.0),
            SystemConfig::mcm_with_l15(8, AllocFilter::RemoteOnly),
            SystemConfig::mcm_with_l15(16, AllocFilter::All),
            SystemConfig::mcm_with_l15_32mb(AllocFilter::RemoteOnly),
            SystemConfig::mcm_l15_ds(),
            SystemConfig::optimized_mcm(),
            SystemConfig::optimized_mcm_16mb_l15(),
            SystemConfig::monolithic(32),
            SystemConfig::largest_buildable_monolithic(),
            SystemConfig::hypothetical_monolithic_256(),
            SystemConfig::multi_gpu_baseline(),
            SystemConfig::multi_gpu_optimized(),
            SystemConfig::mcm_n_gpms(2),
            SystemConfig::mcm_n_gpms(8),
            SystemConfig::optimized_mcm_dynamic(8),
            SystemConfig::optimized_mcm_chunked(32),
            SystemConfig::optimized_mcm_fully_connected(),
        ];
        for p in presets {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn baseline_matches_table3() {
        let cfg = SystemConfig::baseline_mcm();
        assert_eq!(cfg.topology.modules, 4);
        assert_eq!(cfg.topology.total_sms(), 256);
        assert_eq!(cfg.topology.link_gbps, 768.0);
        assert_eq!(cfg.topology.hop_cycles, 32);
        assert_eq!(cfg.caches.l1_bytes_per_sm, 128 * KIB);
        assert_eq!(cfg.caches.l2_bytes_total, 16 * MIB);
        assert_eq!(cfg.caches.l15_bytes_total, 0);
        assert_eq!(cfg.dram_total_gbps, 3072.0);
        assert_eq!(cfg.dram_latency_ns, 100);
        assert_eq!(cfg.sm.max_warps, 64);
        assert_eq!(cfg.scheduler, SchedulerPolicy::Centralized);
        assert_eq!(cfg.placement, PlacementPolicy::Interleaved);
    }

    #[test]
    fn rebalance_is_iso_transistor() {
        for mb in [8u64, 16] {
            let h = CacheHierarchy::rebalanced(mb, AllocFilter::RemoteOnly, 4);
            let total = h.l15_bytes_total + h.l2_bytes_total;
            // 16 MB case keeps the vestigial 32 KB per partition.
            assert!(
                (16 * MIB..=16 * MIB + 4 * 32 * KIB).contains(&total),
                "{mb} MB rebalance totals {total}"
            );
        }
        let h32 = SystemConfig::mcm_with_l15_32mb(AllocFilter::RemoteOnly).caches;
        assert_eq!(h32.l15_bytes_total, 32 * MIB, "32 MB point is non-iso");
    }

    #[test]
    fn monolithic_scaling_rule() {
        let g32 = SystemConfig::monolithic(32);
        assert_eq!(g32.dram_total_gbps, 384.0);
        assert_eq!(g32.caches.l2_bytes_total, 2 * MIB);
        let g256 = SystemConfig::monolithic(256);
        assert_eq!(g256.dram_total_gbps, 3072.0);
        assert_eq!(g256.caches.l2_bytes_total, 16 * MIB);
        assert_eq!(g256.topology.modules, 1);
    }

    #[test]
    fn multi_gpu_matches_section6() {
        let cfg = SystemConfig::multi_gpu_baseline();
        assert_eq!(cfg.topology.modules, 2);
        assert_eq!(cfg.topology.sms_per_module, 128);
        assert_eq!(cfg.topology.total_sms(), 256);
        // 256 GB/s aggregate across both directions.
        assert_eq!(cfg.topology.link_gbps, 256.0);
        assert_eq!(cfg.topology.link_tier, Tier::Board);
        // Per-GPU DRAM is 1.5 TB/s.
        assert_eq!(cfg.dram_gbps_per_module(), 1536.0);
        // §6.1: DS and FT are applied to the multi-GPU baseline.
        assert_eq!(cfg.scheduler, SchedulerPolicy::Distributed);
        assert_eq!(cfg.placement, PlacementPolicy::FirstTouch);
        let opt = SystemConfig::multi_gpu_optimized();
        assert_eq!(opt.caches.l15_bytes_total, 8 * MIB);
        assert_eq!(opt.caches.l2_bytes_total, 8 * MIB);
    }

    #[test]
    fn optimized_mcm_is_8_8_split_with_ds_ft() {
        let cfg = SystemConfig::optimized_mcm();
        assert_eq!(cfg.caches.l15_bytes_total, 8 * MIB);
        assert_eq!(cfg.caches.l2_bytes_total, 8 * MIB);
        assert_eq!(cfg.caches.l15_filter, AllocFilter::RemoteOnly);
        assert_eq!(cfg.scheduler, SchedulerPolicy::Distributed);
        assert_eq!(cfg.placement, PlacementPolicy::FirstTouch);
    }

    #[test]
    fn extension_presets_carry_their_policies() {
        use mcm_sm::SchedulerPolicy;
        assert_eq!(
            SystemConfig::optimized_mcm_dynamic(16).scheduler,
            SchedulerPolicy::Dynamic { group: 16 }
        );
        assert_eq!(
            SystemConfig::optimized_mcm_chunked(16).scheduler,
            SchedulerPolicy::Chunked { group: 16 }
        );
        assert_eq!(
            SystemConfig::optimized_mcm_fully_connected()
                .topology
                .network,
            NetworkKind::FullyConnected
        );
        // The extensions keep the optimized cache/placement recipe.
        let dynamic = SystemConfig::optimized_mcm_dynamic(16);
        assert_eq!(dynamic.caches, SystemConfig::optimized_mcm().caches);
        assert_eq!(dynamic.placement, SystemConfig::optimized_mcm().placement);
    }

    #[test]
    fn fingerprint_is_stable_and_equal_for_identical_configs() {
        let a = SystemConfig::optimized_mcm();
        let b = SystemConfig::optimized_mcm();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_separates_same_name_different_params() {
        // The memo-cache bug class: two configs sharing a display name
        // but differing in a tuned parameter must not alias.
        let a = SystemConfig::optimized_mcm();
        let mut b = SystemConfig::optimized_mcm();
        b.topology.link_gbps *= 2.0;
        assert_eq!(a.name, b.name);
        assert_ne!(a.fingerprint(), b.fingerprint());

        let mut c = SystemConfig::optimized_mcm();
        c.scheduler = SchedulerPolicy::Chunked { group: 32 };
        assert_ne!(a.fingerprint(), c.fingerprint());

        let mut d = SystemConfig::optimized_mcm();
        d.sm.mshr_entries += 1;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    fn fingerprinted_presets() -> [SystemConfig; 13] {
        [
            SystemConfig::baseline_mcm(),
            SystemConfig::mcm_with_link(384.0),
            SystemConfig::mcm_with_l15(8, AllocFilter::RemoteOnly),
            SystemConfig::mcm_l15_ds(),
            SystemConfig::optimized_mcm(),
            SystemConfig::monolithic(32),
            SystemConfig::largest_buildable_monolithic(),
            SystemConfig::hypothetical_monolithic_256(),
            SystemConfig::multi_gpu_baseline(),
            SystemConfig::multi_gpu_optimized(),
            SystemConfig::optimized_mcm_dynamic(8),
            SystemConfig::optimized_mcm_chunked(32),
            SystemConfig::optimized_mcm_fully_connected(),
        ]
    }

    #[test]
    fn fingerprints_of_all_presets_are_distinct() {
        let presets = fingerprinted_presets();
        let mut prints: Vec<u64> = presets.iter().map(SystemConfig::fingerprint).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), presets.len(), "preset fingerprints collide");
    }

    #[test]
    fn preset_fingerprints_do_not_move() {
        // `MCM_STORE` keys, serve keys and artifact stems hash these
        // values: a fingerprint that moves orphans every stored result
        // and renames every artifact.
        const PINNED: [u64; 13] = [
            0x87d0_a8be_561c_da86,
            0xc765_8e56_478a_0305,
            0xd756_8e4a_e46d_7d3a,
            0xbeac_d69d_04e9_288c,
            0xe59d_c2a0_f3d4_f9f7,
            0x2e1c_06b2_4154_7895,
            0xfe3e_269f_af13_716f,
            0xd9ec_fd90_9b62_c06c,
            0x58db_a01d_6c31_b05e,
            0x21fb_ec20_976c_4894,
            0x8b3e_8ae8_e47b_ec0f,
            0x4a21_70f9_b34e_f195,
            0xa581_2abd_0d66_da13,
        ];
        let prints: Vec<u64> = fingerprinted_presets()
            .iter()
            .map(SystemConfig::fingerprint)
            .collect();
        assert_eq!(prints, PINNED);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.dram_total_gbps = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.link_gbps = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::baseline_mcm();
        cfg.caches.l2_bytes_total = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_floats() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut cfg = SystemConfig::baseline_mcm();
            cfg.dram_total_gbps = bad;
            assert!(cfg.validate().is_err(), "DRAM bandwidth {bad} accepted");

            let mut cfg = SystemConfig::baseline_mcm();
            cfg.topology.link_gbps = bad;
            assert!(cfg.validate().is_err(), "link bandwidth {bad} accepted");

            let mut cfg = SystemConfig::baseline_mcm();
            cfg.sm.issue_ipc = bad;
            assert!(cfg.validate().is_err(), "issue IPC {bad} accepted");
        }
        // Monolithic machines keep their don't-care link defaults, and
        // even a single-module NaN is rejected (it would poison derived
        // configs).
        assert!(SystemConfig::monolithic(32).validate().is_ok());
        let mut cfg = SystemConfig::monolithic(32);
        cfg.topology.link_gbps = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_free_infinite_fabric() {
        // A multi-module machine whose links are both latency-free and
        // effectively infinite is a monolithic die in disguise.
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.hop_cycles = 0;
        cfg.topology.link_gbps = 1e12;
        assert!(cfg.validate().is_err());
        // Either a real hop latency or a finite link budget is fine.
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.hop_cycles = 0;
        assert!(cfg.validate().is_ok());
    }
}

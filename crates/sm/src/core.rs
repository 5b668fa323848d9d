//! The streaming multiprocessor execution model.
//!
//! An [`SmCore`] models one SM as an in-order, warp-parallel issue
//! engine (§4: "SMs are modeled as in-order execution processors that
//! accurately model warp-level parallelism"). Its two constraints are
//! *occupancy* — at most `max_warps` resident warps (64, Table 3) — and
//! *issue bandwidth* — a [`Resource`] serving `issue_ipc` instructions
//! per cycle shared by all resident warps. Latency hiding emerges: while
//! one warp waits on memory, others consume the issue resource.

use mcm_engine::stats::Counter;
use mcm_engine::{Cycle, Resource};

/// Static configuration of one SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// Maximum resident warps (Table 3: 64 per SM).
    pub max_warps: u32,
    /// Peak issue rate in instructions per cycle.
    pub issue_ipc: f64,
    /// Outstanding-miss entries in the SM's load/store unit MSHR.
    pub mshr_entries: usize,
    /// Independent loads a warp may keep in flight before blocking on
    /// the oldest (register-level memory parallelism; real SMs allow
    /// several).
    pub mlp_per_warp: u32,
}

impl SmConfig {
    /// The paper's baseline SM: 64 warps, dual issue, 64 MSHR entries.
    pub const fn pascal_like() -> Self {
        SmConfig {
            max_warps: 64,
            issue_ipc: 2.0,
            mshr_entries: 64,
            mlp_per_warp: 4,
        }
    }
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig::pascal_like()
    }
}

/// One SM's dynamic issue and occupancy state.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_sm::core::{SmConfig, SmCore};
///
/// let mut sm = SmCore::new(SmConfig::pascal_like());
/// assert!(sm.try_admit(4)); // one 4-warp CTA
/// let done = sm.issue(Cycle::ZERO, 100);
/// assert_eq!(done, Cycle::new(50)); // 100 insts at 2 IPC
/// sm.retire_warps(4);
/// assert_eq!(sm.resident_warps(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SmCore {
    config: SmConfig,
    issue: Resource,
    resident_warps: u32,
    resident_ctas: u32,
    instructions: Counter,
    mem_ops: Counter,
}

impl SmCore {
    /// Creates an idle SM.
    pub fn new(config: SmConfig) -> Self {
        assert!(config.max_warps > 0, "SM needs warp slots");
        assert!(config.issue_ipc > 0.0, "SM needs issue bandwidth");
        SmCore {
            config,
            issue: Resource::new("sm-issue", config.issue_ipc),
            resident_warps: 0,
            resident_ctas: 0,
            instructions: Counter::new(),
            mem_ops: Counter::new(),
        }
    }

    /// The SM's configuration.
    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    /// Admits a CTA of `warps` warps if occupancy allows; returns
    /// whether it was admitted.
    pub fn try_admit(&mut self, warps: u32) -> bool {
        if self.resident_warps + warps <= self.config.max_warps {
            self.resident_warps += warps;
            self.resident_ctas += 1;
            true
        } else {
            false
        }
    }

    /// Retires `warps` warps (a CTA completing).
    ///
    /// # Panics
    ///
    /// Panics if more warps retire than are resident — a scheduler bug.
    pub fn retire_warps(&mut self, warps: u32) {
        assert!(
            warps <= self.resident_warps,
            "retiring {warps} warps but only {} resident",
            self.resident_warps
        );
        self.resident_warps -= warps;
        self.resident_ctas = self.resident_ctas.saturating_sub(1);
    }

    /// Issues `insts` back-to-back instructions for one warp starting
    /// at `now`; returns when the burst has issued. Contention with
    /// other warps' bursts is captured by the shared issue resource.
    pub fn issue(&mut self, now: Cycle, insts: u32) -> Cycle {
        self.instructions.add(u64::from(insts));
        self.issue.service(now, u64::from(insts))
    }

    /// Records one memory operation issued (costs one issue slot).
    pub fn issue_mem_op(&mut self, now: Cycle) -> Cycle {
        self.mem_ops.inc();
        self.instructions.inc();
        self.issue.service(now, 1)
    }

    /// Currently resident warps.
    pub fn resident_warps(&self) -> u32 {
        self.resident_warps
    }

    /// Currently resident CTAs.
    pub fn resident_ctas(&self) -> u32 {
        self.resident_ctas
    }

    /// Whether any warps are resident.
    pub fn is_idle(&self) -> bool {
        self.resident_warps == 0
    }

    /// Total instructions issued.
    pub fn instructions(&self) -> u64 {
        self.instructions.get()
    }

    /// Total memory operations issued.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limits_admission() {
        let mut sm = SmCore::new(SmConfig {
            max_warps: 8,
            issue_ipc: 2.0,
            mshr_entries: 4,
            mlp_per_warp: 4,
        });
        assert!(sm.try_admit(4));
        assert!(sm.try_admit(4));
        assert!(!sm.try_admit(1), "9th warp must be rejected");
        assert_eq!(sm.resident_warps(), 8);
        assert_eq!(sm.resident_ctas(), 2);
        sm.retire_warps(4);
        assert!(sm.try_admit(4));
    }

    #[test]
    fn issue_bandwidth_is_shared() {
        let mut sm = SmCore::new(SmConfig::pascal_like());
        sm.try_admit(2);
        // Two warps each issuing 100 instructions at the same time share
        // the 2-IPC pipe: 100 cycles total, not 50.
        let a = sm.issue(Cycle::ZERO, 100);
        let b = sm.issue(Cycle::ZERO, 100);
        assert_eq!(a, Cycle::new(50));
        assert_eq!(b, Cycle::new(100));
        assert_eq!(sm.instructions(), 200);
    }

    #[test]
    fn mem_ops_cost_an_issue_slot_and_are_counted() {
        let mut sm = SmCore::new(SmConfig::pascal_like());
        sm.try_admit(1);
        sm.issue_mem_op(Cycle::ZERO);
        assert_eq!(sm.mem_ops(), 1);
        assert_eq!(sm.instructions(), 1);
    }

    #[test]
    fn idle_tracking() {
        let mut sm = SmCore::new(SmConfig::pascal_like());
        assert!(sm.is_idle());
        sm.try_admit(4);
        assert!(!sm.is_idle());
        sm.retire_warps(4);
        assert!(sm.is_idle());
    }

    #[test]
    #[should_panic(expected = "retiring")]
    fn over_retirement_panics() {
        let mut sm = SmCore::new(SmConfig::pascal_like());
        sm.try_admit(2);
        sm.retire_warps(3);
    }

    #[test]
    fn utilization_reflects_issue_pressure() {
        let mut sm = SmCore::new(SmConfig::pascal_like());
        sm.try_admit(1);
        sm.issue(Cycle::ZERO, 100); // busy 50 cycles
        assert!((sm.issue.utilization(Cycle::new(100)) - 0.5).abs() < 1e-9);
    }
}

//! Trace capture and replay.
//!
//! The paper's evaluation is *trace-driven*: the authors replay memory
//! traces of real CUDA applications through their simulator. The
//! synthetic [`crate::stream::WarpStream`] substitutes for
//! those proprietary traces, but the simulator itself is agnostic —
//! this module lets a user capture any stream into a concrete
//! [`Trace`], inspect or transform it, serialize it, and replay it as a
//! warp's instruction source.
//!
//! A [`Trace`] stores one warp's dynamic instructions. A
//! [`TraceSet`] holds the full grid (every kernel x CTA x warp) and can
//! be built from a [`WorkloadSpec`] or assembled by hand from real
//! application traces.

use std::collections::HashMap;

use crate::spec::WorkloadSpec;
use crate::stream::{WarpOp, WarpStream};
use mcm_mem::addr::{AccessKind, MemAddr};

/// One warp's captured instruction stream.
///
/// # Example
///
/// ```
/// use mcm_workloads::spec::WorkloadSpec;
/// use mcm_workloads::trace::Trace;
///
/// let spec = WorkloadSpec::template("t");
/// let trace = Trace::capture(&spec, 0, 0, 0);
/// assert_eq!(trace.instructions(), u64::from(spec.insts_per_warp));
/// // Replaying yields exactly the captured operations.
/// let replayed: Vec<_> = trace.replay().collect();
/// assert_eq!(replayed.len(), trace.ops().len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

/// One serializable trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A burst of back-to-back non-memory instructions.
    Compute(u32),
    /// A load from the given byte address.
    Load(u64),
    /// A store to the given byte address.
    Store(u64),
}

impl TraceOp {
    fn from_warp_op(op: WarpOp) -> TraceOp {
        match op {
            WarpOp::Compute(n) => TraceOp::Compute(n),
            WarpOp::Access { addr, kind } => match kind {
                AccessKind::Read => TraceOp::Load(addr.as_u64()),
                AccessKind::Write => TraceOp::Store(addr.as_u64()),
            },
        }
    }

    fn to_warp_op(self) -> WarpOp {
        match self {
            TraceOp::Compute(n) => WarpOp::Compute(n),
            TraceOp::Load(addr) => WarpOp::Access {
                addr: MemAddr::new(addr),
                kind: AccessKind::Read,
            },
            TraceOp::Store(addr) => WarpOp::Access {
                addr: MemAddr::new(addr),
                kind: AccessKind::Write,
            },
        }
    }
}

impl Trace {
    /// Captures the synthetic stream of one warp.
    pub fn capture(spec: &WorkloadSpec, kernel: u32, cta: u32, warp: u32) -> Trace {
        Trace {
            ops: WarpStream::new(spec, kernel, cta, warp)
                .map(TraceOp::from_warp_op)
                .collect(),
        }
    }

    /// Builds a trace directly from records (e.g. parsed from a real
    /// application's log).
    pub fn from_ops(ops: Vec<TraceOp>) -> Trace {
        Trace { ops }
    }

    /// The raw records.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Total warp instructions the trace represents.
    pub fn instructions(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Compute(n) => u64::from(*n),
                _ => 1,
            })
            .sum()
    }

    /// Memory operations in the trace.
    pub fn mem_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| !matches!(op, TraceOp::Compute(_)))
            .count() as u64
    }

    /// Iterates the trace as simulator-consumable warp operations.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            ops: &self.ops,
            next: 0,
        }
    }
}

/// Iterator over a [`Trace`]'s operations (see [`Trace::replay`]).
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    ops: &'a [TraceOp],
    next: usize,
}

impl Iterator for Replay<'_> {
    type Item = WarpOp;

    fn next(&mut self) -> Option<WarpOp> {
        let op = self.ops.get(self.next)?;
        self.next += 1;
        Some(op.to_warp_op())
    }
}

/// A whole grid's traces, keyed by `(kernel, cta, warp)`.
///
/// # Example
///
/// ```
/// use mcm_workloads::spec::WorkloadSpec;
/// use mcm_workloads::trace::TraceSet;
///
/// let mut spec = WorkloadSpec::template("t");
/// spec.ctas = 4;
/// spec.kernel_iters = 1;
/// let set = TraceSet::capture(&spec);
/// assert_eq!(set.len(), 4 * 4); // 4 CTAs x 4 warps
/// assert!(set.get(0, 3, 2).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    traces: HashMap<(u32, u32, u32), Trace>,
}

impl TraceSet {
    /// Captures the full grid of a workload (every kernel launch, CTA
    /// and warp). Memory use is proportional to the workload's total
    /// dynamic instruction count — scale the spec down first for large
    /// grids.
    pub fn capture(spec: &WorkloadSpec) -> TraceSet {
        let mut traces = HashMap::new();
        for kernel in 0..spec.kernel_iters {
            for cta in 0..spec.ctas {
                for warp in 0..spec.warps_per_cta {
                    traces.insert((kernel, cta, warp), Trace::capture(spec, kernel, cta, warp));
                }
            }
        }
        TraceSet { traces }
    }

    /// Inserts or replaces one warp's trace.
    pub fn insert(&mut self, kernel: u32, cta: u32, warp: u32, trace: Trace) {
        self.traces.insert((kernel, cta, warp), trace);
    }

    /// Looks up one warp's trace.
    pub fn get(&self, kernel: u32, cta: u32, warp: u32) -> Option<&Trace> {
        self.traces.get(&(kernel, cta, warp))
    }

    /// Number of captured warp traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total dynamic instructions across the set.
    pub fn instructions(&self) -> u64 {
        self.traces.values().map(Trace::instructions).sum()
    }

    /// The set's unique byte addresses — the measured footprint, which
    /// for a captured synthetic workload is bounded by the spec's
    /// declared footprint.
    pub fn touched_footprint_bytes(&self) -> u64 {
        let mut lines = std::collections::HashSet::new();
        for trace in self.traces.values() {
            for op in trace.ops() {
                match op {
                    TraceOp::Load(a) | TraceOp::Store(a) => {
                        lines.insert(MemAddr::new(*a).line());
                    }
                    TraceOp::Compute(_) => {}
                }
            }
        }
        lines.len() as u64 * mcm_mem::addr::LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::template("trace-test");
        spec.ctas = 2;
        spec.warps_per_cta = 2;
        spec.insts_per_warp = 64;
        spec.kernel_iters = 2;
        spec
    }

    #[test]
    fn capture_replay_round_trip() {
        let spec = small_spec();
        let trace = Trace::capture(&spec, 1, 1, 0);
        let direct: Vec<WarpOp> = WarpStream::new(&spec, 1, 1, 0).collect();
        let replayed: Vec<WarpOp> = trace.replay().collect();
        assert_eq!(direct, replayed);
    }

    #[test]
    fn instruction_accounting_matches_stream() {
        let spec = small_spec();
        let trace = Trace::capture(&spec, 0, 0, 1);
        assert_eq!(trace.instructions(), u64::from(spec.insts_per_warp));
        assert!(trace.mem_ops() > 0);
        assert!(trace.mem_ops() <= trace.instructions());
    }

    #[test]
    fn trace_set_covers_the_grid() {
        let spec = small_spec();
        let set = TraceSet::capture(&spec);
        assert_eq!(set.len(), 2 * 2 * 2);
        assert_eq!(set.instructions(), spec.approx_instructions());
        assert!(set.get(1, 1, 1).is_some());
        assert!(set.get(2, 0, 0).is_none());
    }

    #[test]
    fn touched_footprint_is_bounded_by_declared() {
        let spec = small_spec();
        let set = TraceSet::capture(&spec);
        let touched = set.touched_footprint_bytes();
        assert!(touched > 0);
        assert!(touched <= spec.footprint_bytes);
    }

    #[test]
    fn hand_built_traces_replay() {
        let trace = Trace::from_ops(vec![
            TraceOp::Compute(10),
            TraceOp::Load(0x1000),
            TraceOp::Store(0x2000),
        ]);
        let ops: Vec<WarpOp> = trace.replay().collect();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], WarpOp::Compute(10)));
        assert!(matches!(
            ops[1],
            WarpOp::Access {
                kind: AccessKind::Read,
                ..
            }
        ));
        assert_eq!(trace.instructions(), 12);
    }

    #[test]
    fn empty_set_reports_empty() {
        let set = TraceSet::default();
        assert!(set.is_empty());
        assert_eq!(set.instructions(), 0);
        assert_eq!(set.touched_footprint_bytes(), 0);
    }
}

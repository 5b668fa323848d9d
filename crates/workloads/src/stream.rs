//! Per-warp synthetic instruction/address streams.
//!
//! A warp's stream deterministically generates the alternating
//! compute-burst / memory-operation sequence one warp executes, with
//! addresses drawn according to the workload's
//! [`LocalityProfile`](crate::spec::LocalityProfile):
//!
//! * The footprint's first `shared_region_frac` is a **globally shared
//!   region** all CTAs sample uniformly (graph structure, lookup
//!   tables).
//! * The remainder is partitioned into equal **CTA slices**. A warp
//!   mostly walks its CTA's slice — streaming forward or revisiting a
//!   recent reuse window — and occasionally reaches into the *adjacent*
//!   CTA's slice (halo exchange), which is the inter-CTA spatial
//!   locality distributed CTA scheduling exploits (§5.2, Fig. 8).
//!
//! Streams are pure functions of `(spec.seed, kernel, cta, warp)`, so
//! repeated kernel launches re-walk the same data — the cross-kernel
//! page locality of §5.3 (Fig. 12).
//!
//! A stream splits in two. A [`StreamPlan`] holds everything that
//! depends only on the spec and the kernel launch: the validated spec,
//! the footprint geometry, the burst divisor and the launch's seed
//! prefix. A [`WarpCursor`] holds one warp's position: its generator,
//! its walk through the CTA slice and its remaining budget. The
//! simulator builds one plan per launch and one small cursor per warp;
//! [`WarpStream`] bundles the two into a self-contained iterator.

use mcm_engine::rng::Xoshiro256;
use mcm_mem::addr::{AccessKind, MemAddr, LINE_BYTES};

use crate::spec::WorkloadSpec;

/// One dynamic warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// A burst of `n` non-memory instructions issued back to back.
    Compute(u32),
    /// One (already coalesced) memory operation for the whole warp.
    Access {
        /// Byte address touched; the memory system fetches its line.
        addr: MemAddr,
        /// Load or store.
        kind: AccessKind,
    },
}

/// Instructions warp `w` of CTA `cta` executes in one kernel launch,
/// including the spec's deterministic per-CTA imbalance.
///
/// Imbalance is a *gradient*: work grows linearly with the CTA index
/// (up to `1 + imbalance` times the base), the shape of triangular
/// loops and frontier phases. A gradient — unlike random per-CTA noise,
/// which averages out inside the distributed scheduler's large chunks —
/// concentrates extra work in one GPM's chunk, reproducing the §5.4
/// load-imbalance pathology.
pub fn cta_insts(spec: &WorkloadSpec, cta: u32) -> u32 {
    if spec.imbalance == 0.0 {
        return spec.insts_per_warp;
    }
    let frac = if spec.ctas <= 1 {
        0.0
    } else {
        f64::from(cta) / f64::from(spec.ctas - 1)
    };
    let scale = 1.0 + spec.imbalance * frac;
    ((f64::from(spec.insts_per_warp) * scale).round() as u32).max(1)
}

/// The part of every warp stream that one kernel launch shares: built
/// once per launch, read by each [`WarpCursor`] of that launch.
///
/// # Example
///
/// ```
/// use mcm_workloads::spec::WorkloadSpec;
/// use mcm_workloads::stream::{StreamPlan, WarpOp, WarpStream};
///
/// let spec = WorkloadSpec::template("demo");
/// let plan = StreamPlan::new(&spec, 1);
/// let mut cursor = plan.cursor(3, 2);
/// let ops: Vec<WarpOp> = std::iter::from_fn(|| cursor.next_op(&plan)).collect();
/// // The same ops the self-contained stream emits.
/// assert_eq!(ops, WarpStream::new(&spec, 1, 3, 2).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// The validated spec (a plain copy: it owns no heap data).
    spec: WorkloadSpec,
    /// `[spec.seed, kernel]` hashed once; each cursor extends it with
    /// its `[cta, warp]`.
    seed_prefix: u64,
    // Geometry, in lines.
    footprint_lines: u64,
    shared_lines: u64,
    /// One CTA's slice (also the halo's extent).
    slice: u64,
    /// The reuse window, clamped to the slice.
    reuse_window: u64,
    /// `ln(1 - mem_ratio)`, the geometric burst divisor; `None` when
    /// every instruction is a memory operation.
    burst_divisor: Option<f64>,
    /// `shared_frac + cold_shared_frac`: draws below it that miss the
    /// hot region go cold.
    cold_below: f64,
    /// `cold_below + neighbor_frac`: draws below it (and above the
    /// others) reach into a neighbour's slice.
    neighbor_below: f64,
}

impl StreamPlan {
    /// Plans kernel launch `kernel` of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`WorkloadSpec::validate`]).
    pub fn new(spec: &WorkloadSpec, kernel: u32) -> Self {
        spec.validate().expect("invalid workload spec");
        let loc = &spec.locality;
        let footprint_lines = spec.footprint_lines();
        let shared_lines = ((footprint_lines as f64) * loc.shared_region_frac) as u64;
        let slice = ((footprint_lines - shared_lines) / u64::from(spec.ctas)).max(1);
        let cold_below = loc.shared_frac + loc.cold_shared_frac;
        StreamPlan {
            spec: spec.clone(),
            seed_prefix: Xoshiro256::seed_prefix(&[spec.seed, u64::from(kernel)]),
            footprint_lines,
            shared_lines,
            slice,
            reuse_window: u64::from(loc.reuse_window_lines).min(slice),
            burst_divisor: (spec.mem_ratio < 1.0).then(|| (1.0 - spec.mem_ratio).ln()),
            cold_below,
            neighbor_below: cold_below + loc.neighbor_frac,
        }
    }

    /// The cursor of warp `warp` of CTA `cta`, at its first op.
    ///
    /// # Panics
    ///
    /// Panics if `cta` or `warp` is out of range.
    pub fn cursor(&self, cta: u32, warp: u32) -> WarpCursor {
        assert!(cta < self.spec.ctas, "CTA index out of range");
        assert!(warp < self.spec.warps_per_cta, "warp index out of range");
        let seed = Xoshiro256::extend_seed(self.seed_prefix, &[u64::from(cta), u64::from(warp)]);
        WarpCursor {
            rng: Xoshiro256::new(seed),
            // Warps start phase-shifted through the slice so a CTA's
            // warps cover its slice cooperatively.
            cursor: (u64::from(warp) * self.slice) / u64::from(self.spec.warps_per_cta),
            cta,
            remaining: cta_insts(&self.spec, cta),
            emit_mem_next: false,
            pending_gather: 0,
        }
    }

    /// First line of CTA `cta`'s slice.
    #[inline]
    fn slice_start(&self, cta: u32) -> u64 {
        self.shared_lines + u64::from(cta) * self.slice
    }
}

/// One warp's position in its stream: everything that differs between
/// the warps of a launch. Drawing an op needs the launch's
/// [`StreamPlan`].
#[derive(Debug, Clone)]
pub struct WarpCursor {
    rng: Xoshiro256,
    /// Offset of the warp's walk within its CTA's slice.
    cursor: u64,
    cta: u32,
    remaining: u32,
    emit_mem_next: bool,
    /// Remaining transactions of an in-progress divergent gather.
    pending_gather: u8,
}

impl WarpCursor {
    /// Instructions not yet emitted.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// The warp's next op under `plan` (the plan that built this
    /// cursor), or `None` once its budget is spent.
    #[inline]
    pub fn next_op(&mut self, plan: &StreamPlan) -> Option<WarpOp> {
        if self.remaining == 0 {
            return None;
        }
        if self.pending_gather > 0 {
            // Finish the divergent gather before anything else.
            return Some(self.emit_access(plan));
        }
        if self.emit_mem_next {
            self.emit_mem_next = false;
            return Some(self.emit_access(plan));
        }
        // Compute burst: geometric with success probability `mem_ratio`,
        // so the long-run instruction mix matches the spec.
        let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let burst = match plan.burst_divisor {
            None => 0,
            Some(divisor) => (u.ln() / divisor) as u64,
        };
        let burst = burst.min(u64::from(self.remaining.saturating_sub(1))) as u32;
        Some(if burst == 0 {
            self.emit_mem_next = false;
            self.emit_access(plan)
        } else {
            self.emit_mem_next = true;
            self.remaining -= burst;
            WarpOp::Compute(burst)
        })
    }

    fn pick_line(&mut self, plan: &StreamPlan) -> u64 {
        let loc = &plan.spec.locality;
        let r = self.rng.next_f64();
        if r < loc.shared_frac && plan.shared_lines > 0 {
            return self.rng.next_range(plan.shared_lines);
        }
        if r < plan.cold_below {
            // Cold shared: a uniform gather over the whole footprint —
            // too large to cache, owned by no CTA.
            return self.rng.next_range(plan.footprint_lines);
        }
        if r < plan.neighbor_below {
            // Halo exchange: stencil-style kernels read the region of
            // the *adjacent* CTA that corresponds to their own current
            // sweep position. Because neighbouring CTAs sweep their
            // slices in lockstep, this access lands where the neighbour
            // is working *right now* — the temporal alignment that
            // makes distributed CTA scheduling (§5.2) profitable.
            let ctas = plan.spec.ctas;
            let neighbor = if self.rng.chance(0.5) {
                if self.cta == 0 {
                    ctas - 1
                } else {
                    self.cta - 1
                }
            } else if self.cta + 1 == ctas {
                0
            } else {
                self.cta + 1
            };
            let jitter = self.rng.next_range(64);
            return plan.slice_start(neighbor) + (self.cursor + jitter) % plan.slice;
        }
        let own_start = plan.slice_start(self.cta);
        if self.rng.chance(loc.streaming) {
            self.cursor = (self.cursor + 1) % plan.slice;
            own_start + self.cursor
        } else {
            let back = self.rng.next_range(plan.reuse_window);
            own_start + (self.cursor + plan.slice - back) % plan.slice
        }
    }

    /// Emits one memory transaction, arming further gather
    /// transactions when a divergent instruction begins.
    fn emit_access(&mut self, plan: &StreamPlan) -> WarpOp {
        self.remaining -= 1;
        if self.pending_gather > 0 {
            self.pending_gather -= 1;
        } else if let Some(d) = plan.spec.locality.divergence {
            if self.rng.chance(d.frac) {
                self.pending_gather = d.degree - 1;
            }
        }
        let line = self.pick_line(plan);
        let kind = if self.rng.chance(plan.spec.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        WarpOp::Access {
            addr: MemAddr::new(line * LINE_BYTES),
            kind,
        }
    }
}

/// The deterministic instruction stream of one warp in one kernel
/// launch: a [`StreamPlan`] and the warp's [`WarpCursor`] in one
/// self-contained iterator.
///
/// # Example
///
/// ```
/// use mcm_workloads::spec::WorkloadSpec;
/// use mcm_workloads::stream::{WarpOp, WarpStream};
///
/// let spec = WorkloadSpec::template("demo");
/// let ops: Vec<WarpOp> = WarpStream::new(&spec, 0, 0, 0).collect();
/// let again: Vec<WarpOp> = WarpStream::new(&spec, 0, 0, 0).collect();
/// assert_eq!(ops, again); // bit-reproducible
/// ```
#[derive(Debug, Clone)]
pub struct WarpStream {
    plan: StreamPlan,
    cursor: WarpCursor,
}

impl WarpStream {
    /// Creates the stream for warp `warp` of CTA `cta` in kernel launch
    /// `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`WorkloadSpec::validate`]) or
    /// `cta`/`warp` are out of range.
    pub fn new(spec: &WorkloadSpec, kernel: u32, cta: u32, warp: u32) -> Self {
        let plan = StreamPlan::new(spec, kernel);
        let cursor = plan.cursor(cta, warp);
        WarpStream { plan, cursor }
    }

    /// Instructions not yet emitted.
    pub fn remaining(&self) -> u32 {
        self.cursor.remaining()
    }
}

impl Iterator for WarpStream {
    type Item = WarpOp;

    fn next(&mut self) -> Option<WarpOp> {
        self.cursor.next_op(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LocalityProfile;
    use mcm_mem::addr::LINES_PER_PAGE;

    fn spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::template("t");
        s.insts_per_warp = 2000;
        s
    }

    fn mem_ops(stream: WarpStream) -> Vec<(u64, AccessKind)> {
        stream
            .filter_map(|op| match op {
                WarpOp::Access { addr, kind } => Some((addr.line().index(), kind)),
                WarpOp::Compute(_) => None,
            })
            .collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let s = spec();
        let a: Vec<WarpOp> = WarpStream::new(&s, 1, 5, 2).collect();
        let b: Vec<WarpOp> = WarpStream::new(&s, 1, 5, 2).collect();
        assert_eq!(a, b);
        // A different warp gets a different stream.
        let c: Vec<WarpOp> = WarpStream::new(&s, 1, 5, 3).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_budget_is_exact() {
        let s = spec();
        let total: u64 = WarpStream::new(&s, 0, 0, 0)
            .map(|op| match op {
                WarpOp::Compute(n) => u64::from(n),
                WarpOp::Access { .. } => 1,
            })
            .sum();
        assert_eq!(total, u64::from(s.insts_per_warp));
    }

    #[test]
    fn mem_ratio_is_respected_in_the_long_run() {
        let mut s = spec();
        s.insts_per_warp = 50_000;
        s.mem_ratio = 0.3;
        let ops: Vec<WarpOp> = WarpStream::new(&s, 0, 0, 0).collect();
        let mem = ops
            .iter()
            .filter(|o| matches!(o, WarpOp::Access { .. }))
            .count() as f64;
        let ratio = mem / f64::from(s.insts_per_warp);
        assert!(
            (ratio - 0.3).abs() < 0.03,
            "observed mem ratio {ratio} far from 0.3"
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut s = spec();
        s.insts_per_warp = 50_000;
        s.write_frac = 0.4;
        let ops = mem_ops(WarpStream::new(&s, 0, 0, 0));
        let writes = ops.iter().filter(|(_, k)| k.is_write()).count() as f64;
        let frac = writes / ops.len() as f64;
        assert!((frac - 0.4).abs() < 0.05, "observed write frac {frac}");
    }

    #[test]
    fn addresses_stay_inside_footprint() {
        let s = spec();
        let max_line = s.footprint_lines();
        for cta in [0u32, 1, 127, 255] {
            for (line, _) in mem_ops(WarpStream::new(&s, 0, cta, 0)) {
                assert!(line < max_line, "line {line} outside footprint");
            }
        }
    }

    #[test]
    fn ctas_mostly_touch_their_own_slice() {
        let mut s = spec();
        s.locality = LocalityProfile {
            streaming: 0.8,
            reuse_window_lines: 256,
            neighbor_frac: 0.1,
            shared_frac: 0.1,
            shared_region_frac: 0.1,
            cold_shared_frac: 0.0,
            divergence: None,
        };
        s.insts_per_warp = 20_000;
        let total = s.footprint_lines();
        let shared = (total as f64 * 0.1) as u64;
        let slice = (total - shared) / u64::from(s.ctas);
        let cta = 100u32;
        let own_start = shared + u64::from(cta) * slice;
        let ops = mem_ops(WarpStream::new(&s, 0, cta, 0));
        let own = ops
            .iter()
            .filter(|(l, _)| (own_start..own_start + slice).contains(l))
            .count() as f64;
        let frac = own / ops.len() as f64;
        assert!(frac > 0.7, "own-slice fraction {frac} too low");
    }

    #[test]
    fn same_cta_same_pages_across_kernels() {
        // The §5.3 cross-kernel property: the set of pages CTA c touches
        // is stable across kernel launches (streams differ but the slice
        // is the same).
        let mut s = spec();
        s.locality.shared_frac = 0.0;
        s.locality.neighbor_frac = 0.0;
        let pages = |kernel: u32| -> std::collections::HashSet<u64> {
            mem_ops(WarpStream::new(&s, kernel, 7, 0))
                .into_iter()
                .map(|(l, _)| l / LINES_PER_PAGE)
                .collect()
        };
        let k0 = pages(0);
        let k1 = pages(1);
        let overlap = k0.intersection(&k1).count() as f64 / k0.len().max(1) as f64;
        assert!(overlap > 0.8, "cross-kernel page overlap {overlap} too low");
    }

    #[test]
    fn imbalance_varies_cta_instruction_counts() {
        let mut s = spec();
        s.imbalance = 0.5;
        let counts: Vec<u32> = (0..16).map(|c| cta_insts(&s, c)).collect();
        assert!(counts.iter().any(|&c| c != counts[0]));
        assert!(counts
            .iter()
            .all(|&c| c >= s.insts_per_warp && c <= (s.insts_per_warp * 3) / 2 + 1));
        // Deterministic.
        assert_eq!(cta_insts(&s, 3), cta_insts(&s, 3));
    }

    #[test]
    fn divergence_raises_memory_transaction_share() {
        let mut coalesced = spec();
        coalesced.insts_per_warp = 20_000;
        let mut divergent = coalesced.clone();
        divergent.locality = divergent.locality.with_divergence(0.5, 4);
        let mem_share = |s: &WorkloadSpec| {
            let ops: Vec<WarpOp> = WarpStream::new(s, 0, 0, 0).collect();
            ops.iter()
                .filter(|o| matches!(o, WarpOp::Access { .. }))
                .count() as f64
                / f64::from(s.insts_per_warp)
        };
        let base = mem_share(&coalesced);
        let div = mem_share(&divergent);
        assert!(
            div > base * 1.5,
            "divergent gathers must multiply memory transactions              ({div:.3} vs {base:.3})"
        );
        // Budget is still exact.
        let total: u64 = WarpStream::new(&divergent, 0, 0, 0)
            .map(|op| match op {
                WarpOp::Compute(n) => u64::from(n),
                WarpOp::Access { .. } => 1,
            })
            .sum();
        assert_eq!(total, u64::from(divergent.insts_per_warp));
    }

    #[test]
    fn divergence_validation() {
        let mut s = spec();
        s.locality = s.locality.with_divergence(0.5, 1);
        assert!(s.validate().is_err(), "degree 1 is not divergent");
        s.locality = s.locality.with_divergence(1.5, 4);
        assert!(s.validate().is_err());
        s.locality = s.locality.with_divergence(0.3, 8);
        assert!(s.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "CTA index out of range")]
    fn cta_out_of_range_panics() {
        let s = spec();
        WarpStream::new(&s, 0, s.ctas, 0);
    }
}

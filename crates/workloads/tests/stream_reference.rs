//! The split stream against the single-struct generator it replaced.
//!
//! [`UnsplitStream`] is the per-warp generator as it stood before the
//! stream split into a per-launch [`StreamPlan`] and a per-warp
//! [`WarpCursor`]: every warp validated the spec, hashed its full seed
//! and derived the footprint geometry and burst divisor itself. It is
//! kept here, verbatim apart from its name, as the reference: the split
//! must emit exactly the same ops for every warp of every launch.

use mcm_engine::rng::Xoshiro256;
use mcm_mem::addr::{AccessKind, MemAddr, LINE_BYTES};
use mcm_testkit::prelude::*;
use mcm_workloads::spec::{Divergence, LocalityProfile, WorkloadSpec};
use mcm_workloads::stream::{cta_insts, StreamPlan, WarpOp, WarpStream};

struct UnsplitStream {
    rng: Xoshiro256,
    remaining: u32,
    emit_mem_next: bool,
    shared_lines: u64,
    own_start: u64,
    own_lines: u64,
    left_start: u64,
    right_start: u64,
    neighbor_lines: u64,
    cursor: u64,
    mem_ratio: f64,
    write_frac: f64,
    streaming: f64,
    reuse_window: u64,
    neighbor_frac: f64,
    shared_frac: f64,
    cold_shared_frac: f64,
    footprint_lines: u64,
    divergence: Option<Divergence>,
    pending_gather: u8,
}

impl UnsplitStream {
    fn new(spec: &WorkloadSpec, kernel: u32, cta: u32, warp: u32) -> Self {
        spec.validate().expect("invalid workload spec");
        assert!(cta < spec.ctas, "CTA index out of range");
        assert!(warp < spec.warps_per_cta, "warp index out of range");

        let total_lines = spec.footprint_lines();
        let shared_lines = ((total_lines as f64) * spec.locality.shared_region_frac) as u64;
        let region_lines = total_lines - shared_lines;
        let slice = (region_lines / u64::from(spec.ctas)).max(1);
        let slice_of = |c: u32| shared_lines + u64::from(c) * slice;
        let left = if cta == 0 { spec.ctas - 1 } else { cta - 1 };
        let right = if cta + 1 == spec.ctas { 0 } else { cta + 1 };
        let warp_origin = (u64::from(warp) * slice) / u64::from(spec.warps_per_cta);

        UnsplitStream {
            rng: Xoshiro256::seeded(&[
                spec.seed,
                u64::from(kernel),
                u64::from(cta),
                u64::from(warp),
            ]),
            remaining: cta_insts(spec, cta),
            emit_mem_next: false,
            shared_lines,
            own_start: slice_of(cta),
            own_lines: slice,
            left_start: slice_of(left),
            right_start: slice_of(right),
            neighbor_lines: slice,
            cursor: warp_origin,
            mem_ratio: spec.mem_ratio,
            write_frac: spec.write_frac,
            streaming: spec.locality.streaming,
            reuse_window: u64::from(spec.locality.reuse_window_lines),
            neighbor_frac: spec.locality.neighbor_frac,
            shared_frac: spec.locality.shared_frac,
            cold_shared_frac: spec.locality.cold_shared_frac,
            footprint_lines: total_lines,
            divergence: spec.locality.divergence,
            pending_gather: 0,
        }
    }

    fn pick_line(&mut self) -> u64 {
        let r = self.rng.next_f64();
        if r < self.shared_frac && self.shared_lines > 0 {
            return self.rng.next_range(self.shared_lines);
        }
        if r < self.shared_frac + self.cold_shared_frac {
            return self.rng.next_range(self.footprint_lines);
        }
        if r < self.shared_frac + self.cold_shared_frac + self.neighbor_frac {
            let base = if self.rng.chance(0.5) {
                self.left_start
            } else {
                self.right_start
            };
            let jitter = self.rng.next_range(64);
            return base + (self.cursor + jitter) % self.neighbor_lines;
        }
        if self.rng.chance(self.streaming) {
            self.cursor = (self.cursor + 1) % self.own_lines;
            self.own_start + self.cursor
        } else {
            let window = self.reuse_window.min(self.own_lines);
            let back = self.rng.next_range(window);
            self.own_start + (self.cursor + self.own_lines - back) % self.own_lines
        }
    }

    fn emit_access(&mut self) -> WarpOp {
        self.remaining -= 1;
        if self.pending_gather > 0 {
            self.pending_gather -= 1;
        } else if let Some(d) = self.divergence {
            if self.rng.chance(d.frac) {
                self.pending_gather = d.degree - 1;
            }
        }
        let line = self.pick_line();
        let kind = if self.rng.chance(self.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        WarpOp::Access {
            addr: MemAddr::new(line * LINE_BYTES),
            kind,
        }
    }

    fn next_op(&mut self) -> WarpOp {
        if self.pending_gather > 0 {
            return self.emit_access();
        }
        if self.emit_mem_next {
            self.emit_mem_next = false;
            return self.emit_access();
        }
        let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let burst = if self.mem_ratio >= 1.0 {
            0
        } else {
            (u.ln() / (1.0 - self.mem_ratio).ln()) as u64
        };
        let burst = burst.min(u64::from(self.remaining.saturating_sub(1))) as u32;
        if burst == 0 {
            self.emit_mem_next = false;
            self.emit_access()
        } else {
            self.emit_mem_next = true;
            self.remaining -= burst;
            WarpOp::Compute(burst)
        }
    }
}

impl Iterator for UnsplitStream {
    type Item = WarpOp;

    fn next(&mut self) -> Option<WarpOp> {
        if self.remaining == 0 {
            None
        } else {
            Some(self.next_op())
        }
    }
}

/// Spec fields, locality fields, divergence, and a bit mask forcing the
/// edge shapes: bit 0 `mem_ratio` 1.0, bit 1 no imbalance, bit 2 a
/// divergent profile, bit 3 `shared_region_frac` 0, bit 4 one CTA.
type Params = (
    (u32, u32, u32, f64, f64, u64, u64, f64),
    (f64, u32, f64, f64, f64, f64),
    (f64, u8),
    u8,
);

fn params() -> impl Gen<Value = Params> {
    (
        (
            u32s(1..48),     // ctas
            u32s(1..6),      // warps per CTA
            u32s(1..300),    // insts per warp
            f64s(0.01..1.0), // mem ratio
            f64s(0.0..1.0),  // write frac
            u64s(18..26),    // footprint = 2^n bytes
            any_u64(),       // seed
            f64s(0.0..1.0),  // imbalance
        ),
        (
            f64s(0.0..1.0),  // streaming
            u32s(1..20_000), // reuse window
            f64s(0.0..0.4),  // neighbor frac
            f64s(0.0..0.4),  // shared frac
            f64s(0.0..0.5),  // shared region frac
            f64s(0.0..0.2),  // cold shared frac
        ),
        (f64s(0.0..1.0), u8s(2..9)), // divergence frac, degree
        u8s(0..32),
    )
}

fn build(p: &Params) -> WorkloadSpec {
    let (
        (ctas, warps, insts, mem, write, fp, seed, imbalance),
        (streaming, window, neighbor, shared, region, cold),
        (div_frac, degree),
        edges,
    ) = *p;
    let bit = |i: u8| edges & (1 << i) != 0;
    WorkloadSpec {
        name: "reference",
        category: mcm_workloads::Category::MemoryIntensive,
        footprint_bytes: 1 << fp,
        ctas: if bit(4) { 1 } else { ctas },
        warps_per_cta: warps,
        insts_per_warp: insts,
        mem_ratio: if bit(0) { 1.0 } else { mem },
        write_frac: write,
        kernel_iters: 3,
        locality: LocalityProfile {
            streaming,
            reuse_window_lines: window,
            neighbor_frac: neighbor,
            shared_frac: shared,
            shared_region_frac: if bit(3) { 0.0 } else { region },
            cold_shared_frac: cold,
            divergence: bit(2).then_some(Divergence {
                frac: div_frac,
                degree,
            }),
        },
        imbalance: if bit(1) { 0.0 } else { imbalance },
        seed,
    }
}

/// Every warp of every sampled launch: the plan's cursors, and the
/// self-contained [`WarpStream`], emit the reference's ops exactly.
#[test]
fn split_stream_matches_the_unsplit_generator() {
    check("split_stream_matches_unsplit", &params(), |p| {
        let spec = build(p);
        assume!(spec.validate().is_ok());
        let last_cta = spec.ctas - 1;
        let last_warp = spec.warps_per_cta - 1;
        for kernel in [0, 1, 7] {
            let plan = StreamPlan::new(&spec, kernel);
            for cta in [0, last_cta / 2, last_cta] {
                for warp in [0, last_warp] {
                    let want: Vec<WarpOp> = UnsplitStream::new(&spec, kernel, cta, warp).collect();
                    let mut cursor = plan.cursor(cta, warp);
                    assert_eq!(cursor.remaining(), cta_insts(&spec, cta));
                    let got: Vec<WarpOp> = std::iter::from_fn(|| cursor.next_op(&plan)).collect();
                    assert_eq!(got, want, "kernel {kernel}, CTA {cta}, warp {warp}");
                    assert_eq!(cursor.remaining(), 0);
                    assert_eq!(cursor.next_op(&plan), None, "a spent cursor stays spent");
                    let stream: Vec<WarpOp> = WarpStream::new(&spec, kernel, cta, warp).collect();
                    assert_eq!(stream, want);
                }
            }
        }
    });
}

#[test]
#[should_panic(expected = "warp index out of range")]
fn plan_rejects_out_of_range_warps() {
    let spec = WorkloadSpec::template("t");
    StreamPlan::new(&spec, 0).cursor(0, spec.warps_per_cta);
}

#[test]
#[should_panic(expected = "invalid workload spec")]
fn plan_rejects_invalid_specs() {
    let mut spec = WorkloadSpec::template("t");
    spec.mem_ratio = 0.0;
    StreamPlan::new(&spec, 0);
}

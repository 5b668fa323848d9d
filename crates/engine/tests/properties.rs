//! Property-based tests for the discrete-event kernel invariants,
//! running on the in-repo `mcm-testkit` harness.

use mcm_engine::rng::Xoshiro256;
use mcm_engine::stats::{geomean, Ratio};
use mcm_engine::{Cycle, EventQueue, Resource};
use mcm_testkit::prelude::*;

/// Service completion never precedes arrival, and never precedes the
/// pure transmission time of the request.
#[test]
fn resource_completion_lower_bounds() {
    check(
        "resource_completion_lower_bounds",
        &(
            u64s(1..1024),
            vecs((u64s(0..10_000), u64s(1..100_000)), 1..64),
        ),
        |&(bw, ref reqs)| {
            let mut r = Resource::new("p", bw as f64);
            let mut times: Vec<u64> = reqs.iter().map(|&(t, _)| t).collect();
            times.sort_unstable();
            for (&arrival, &(_, bytes)) in times.iter().zip(reqs.iter()) {
                let now = Cycle::new(arrival);
                let done = r.service(now, bytes);
                assert!(done >= now);
                let min_dur = bytes / bw; // floor; true duration is >= this
                assert!(done.as_u64() >= arrival + min_dur);
            }
        },
    );
}

/// Completion times are nondecreasing when arrivals are nondecreasing
/// (the server is FIFO).
#[test]
fn resource_fifo_monotone() {
    check(
        "resource_fifo_monotone",
        &(
            u64s(1..512),
            vecs(u64s(0..10_000), 2..64),
            vecs(u64s(1..10_000), 64..65),
        ),
        |&(bw, ref arrivals, ref bytes)| {
            let mut arrivals = arrivals.clone();
            arrivals.sort_unstable();
            let mut r = Resource::new("p", bw as f64);
            let mut last = Cycle::ZERO;
            for (&a, &b) in arrivals.iter().zip(bytes.iter()) {
                let done = r.service(Cycle::new(a), b);
                assert!(done >= last);
                last = done;
            }
        },
    );
}

/// Utilization over a horizon covering all work never exceeds 1.
#[test]
fn resource_utilization_bounded() {
    check(
        "resource_utilization_bounded",
        &(u64s(1..256), vecs((u64s(0..1_000), u64s(1..10_000)), 1..32)),
        |&(bw, ref reqs)| {
            let mut r = Resource::new("p", bw as f64);
            let mut times: Vec<u64> = reqs.iter().map(|&(t, _)| t).collect();
            times.sort_unstable();
            let mut horizon = Cycle::ZERO;
            for (&a, &(_, b)) in times.iter().zip(reqs.iter()) {
                horizon = horizon.max(r.service(Cycle::new(a), b));
            }
            let u = r.utilization(horizon);
            assert!(u <= 1.0 + 1e-9, "utilization {u} exceeds 1");
            assert!(u >= 0.0);
        },
    );
}

/// The event queue is a total order: pops are sorted by (time, key).
#[test]
fn event_queue_total_order() {
    check(
        "event_queue_total_order",
        &vecs(u64s(0..1_000), 0..256),
        |times: &Vec<u64>| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Cycle::new(t), i as u64, (t, i));
            }
            let mut popped = Vec::new();
            while let Some((at, (t, i))) = q.pop() {
                assert_eq!(at.as_u64(), t);
                popped.push((t, i));
            }
            let mut expected = popped.clone();
            expected.sort();
            assert_eq!(popped, expected);
        },
    );
}

/// Ratio merge is equivalent to recording both streams into one.
#[test]
fn ratio_merge_associative() {
    check(
        "ratio_merge_associative",
        &(vecs(bools(), 0..64), vecs(bools(), 0..64)),
        |(xs, ys)| {
            let mut merged = Ratio::new();
            let mut a = Ratio::new();
            let mut b = Ratio::new();
            for &x in xs {
                a.record(x);
                merged.record(x);
            }
            for &y in ys {
                b.record(y);
                merged.record(y);
            }
            a.merge(b);
            assert_eq!(a, merged);
        },
    );
}

/// Geomean lies between min and max of its inputs.
#[test]
fn geomean_bounded() {
    check(
        "geomean_bounded",
        &vecs(f64s(0.01..100.0), 1..32),
        |values: &Vec<f64>| {
            let g = geomean(values);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(0.0f64, f64::max);
            assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
        },
    );
}

/// Identically seeded generators produce identical streams; the
/// stream stays in range.
#[test]
fn rng_reproducible() {
    check(
        "rng_reproducible",
        &(any_u64(), u64s(1..1_000_000)),
        |&(seed, bound)| {
            let mut a = Xoshiro256::new(seed);
            let mut b = Xoshiro256::new(seed);
            for _ in 0..32 {
                let x = a.next_range(bound);
                assert_eq!(x, b.next_range(bound));
                assert!(x < bound);
            }
        },
    );
}

//! Bandwidth-limited servers with next-free-time queuing.

use crate::Cycle;

/// `x.ceil() as u64` as a cycle, with integer arithmetic: on baseline
/// x86-64 `f64::ceil` is a library call, and every bandwidth server
/// rounds once per request. Exact for every `f64` — fractions round up,
/// integral values (all values from 2^53 on) stay put, and the cast
/// saturates exactly as `ceil() as u64` does (negatives and NaN to 0,
/// beyond `u64::MAX` to `u64::MAX`).
#[inline]
fn ceil_cycle(x: f64) -> Cycle {
    let whole = x as u64;
    Cycle::new(whole.saturating_add(u64::from((whole as f64) < x)))
}

/// A bandwidth server: a shared facility that moves `bytes_per_cycle`
/// bytes of traffic per cycle, serializing overlapping requests.
///
/// `Resource` implements the classic *next-free-time* queuing model. A
/// request of `n` bytes arriving at time `t` begins service at
/// `max(t, next_free)`, occupies the server for `n / bytes_per_cycle`
/// cycles, and completes at the end of that occupancy. Requests that
/// arrive while the server is busy therefore see queuing delay — which is
/// exactly the phenomenon the MCM-GPU paper attributes the low-bandwidth
/// slowdowns to (§3.3.2: "increased queuing delays ... in the low
/// bandwidth scenarios").
///
/// Everything contended-for in the simulator is a `Resource`: inter-GPM
/// link segments, DRAM channels, cache banks, and SM instruction issue
/// slots (where "bytes" are issue slots instead).
///
/// Internal bookkeeping is in fractional cycles so that sub-cycle
/// occupancies accumulate correctly; completion times are rounded up to
/// whole cycles on return.
///
/// # Example
///
/// ```
/// use mcm_engine::{Cycle, Resource};
///
/// // A DRAM channel moving 32 bytes per cycle.
/// let mut chan = Resource::new("dram-ch0", 32.0);
/// assert_eq!(chan.service(Cycle::new(0), 128), Cycle::new(4));
/// // Arrives at cycle 2, but the channel is busy until 4.
/// assert_eq!(chan.service(Cycle::new(2), 128), Cycle::new(8));
/// assert_eq!(chan.total_bytes(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    bytes_per_cycle: f64,
    /// Fractional-cycle time at which the server next becomes idle.
    next_free: f64,
    busy_cycles: f64,
    total_bytes: u64,
    requests: u64,
    queued_cycles: f64,
}

impl Resource {
    /// Creates a server with the given capacity in bytes per cycle.
    ///
    /// An infinite capacity gives a facility whose bandwidth never
    /// constrains the simulation: requests complete instantly and
    /// never queue, but traffic is still counted.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    pub fn new(name: &'static str, bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle > 0.0,
            "resource {name:?} must have positive bandwidth"
        );
        Resource {
            name,
            bytes_per_cycle,
            next_free: 0.0,
            busy_cycles: 0.0,
            total_bytes: 0,
            requests: 0,
            queued_cycles: 0.0,
        }
    }

    /// Creates a server from a bandwidth expressed in GB/s at the 1 GHz
    /// core clock (1 GB/s = 1 byte/cycle).
    pub fn from_gbps(name: &'static str, gigabytes_per_second: f64) -> Self {
        Resource::new(name, gigabytes_per_second)
    }

    /// Submits a request of `bytes` arriving at `now`; returns the cycle
    /// at which the request finishes transiting this server.
    ///
    /// A zero-byte request completes immediately at `now` and is not
    /// counted.
    #[inline]
    pub fn service(&mut self, now: Cycle, bytes: u64) -> Cycle {
        // Multiplying the duration by exactly 1.0 is a bit-exact IEEE
        // identity, so the unstretched path stays cycle-identical.
        self.service_stretched(now, bytes, 1.0)
    }

    /// Like [`service`](Resource::service), but the occupancy is
    /// multiplied by `stretch` — the degraded-service primitive the
    /// fault layer uses to model a thermally throttled facility.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `stretch` is not a finite factor `>= 1.0`.
    #[inline]
    pub fn service_stretched(&mut self, now: Cycle, bytes: u64, stretch: f64) -> Cycle {
        debug_assert!(
            stretch.is_finite() && stretch >= 1.0,
            "stretch must be a finite factor >= 1.0, got {stretch}"
        );
        if bytes == 0 {
            return now;
        }
        let arrival = now.as_u64() as f64;
        let start = if self.next_free > arrival {
            self.queued_cycles += self.next_free - arrival;
            self.next_free
        } else {
            arrival
        };
        let duration = if self.bytes_per_cycle.is_infinite() {
            0.0
        } else {
            bytes as f64 / self.bytes_per_cycle * stretch
        };
        let end = start + duration;
        self.next_free = end;
        self.busy_cycles += duration;
        self.total_bytes += bytes;
        self.requests += 1;
        ceil_cycle(end)
    }

    /// The earliest cycle at which a request arriving now would begin
    /// service.
    pub fn next_free(&self) -> Cycle {
        ceil_cycle(self.next_free)
    }

    /// The server's capacity in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Total bytes that have transited the server.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of (non-empty) requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Cumulative cycles requests spent waiting for the server.
    pub fn queued_cycles(&self) -> f64 {
        self.queued_cycles
    }

    /// Fraction of `elapsed` the server spent busy, in `[0, 1]` for any
    /// horizon that covers all submitted work.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == Cycle::ZERO {
            0.0
        } else {
            self.busy_cycles / elapsed.as_u64() as f64
        }
    }

    /// Achieved throughput in GB/s over `elapsed` (1 byte/cycle = 1 GB/s
    /// at the 1 GHz clock).
    pub fn achieved_gbps(&self, elapsed: Cycle) -> f64 {
        if elapsed == Cycle::ZERO {
            0.0
        } else {
            self.total_bytes as f64 / elapsed.as_u64() as f64
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Resets queue state and statistics, keeping the configured
    /// bandwidth.
    pub fn reset(&mut self) {
        self.next_free = 0.0;
        self.busy_cycles = 0.0;
        self.total_bytes = 0;
        self.requests = 0;
        self.queued_cycles = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_latency_is_bytes_over_bandwidth() {
        let mut r = Resource::new("r", 16.0);
        assert_eq!(r.service(Cycle::new(100), 64), Cycle::new(104));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::new("r", 8.0);
        let a = r.service(Cycle::new(0), 64); // 8 cycles
        let b = r.service(Cycle::new(0), 64); // queues behind a
        assert_eq!(a, Cycle::new(8));
        assert_eq!(b, Cycle::new(16));
        assert!(r.queued_cycles() >= 8.0);
    }

    #[test]
    fn idle_gap_resets_queuing() {
        let mut r = Resource::new("r", 8.0);
        r.service(Cycle::new(0), 64);
        // Arrives long after the first finished: no queuing.
        let done = r.service(Cycle::new(1000), 64);
        assert_eq!(done, Cycle::new(1008));
    }

    #[test]
    fn unlimited_resource_is_instant_but_counts() {
        let mut r = Resource::new("xbar", f64::INFINITY);
        assert_eq!(r.service(Cycle::new(7), 1 << 30), Cycle::new(7));
        assert_eq!(r.service(Cycle::new(7), 128), Cycle::new(7));
        assert_eq!(r.total_bytes(), (1 << 30) + 128);
        assert_eq!(r.utilization(Cycle::new(100)), 0.0);
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut r = Resource::new("r", 1.0);
        assert_eq!(r.service(Cycle::new(3), 0), Cycle::new(3));
        assert_eq!(r.requests(), 0);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn fractional_occupancy_accumulates() {
        let mut r = Resource::new("r", 3.0);
        // Each 1-byte request occupies 1/3 cycle; three of them fill one
        // cycle exactly.
        let mut last = Cycle::ZERO;
        for _ in 0..3 {
            last = r.service(Cycle::new(0), 1);
        }
        assert_eq!(last, Cycle::new(1));
        assert!((r.utilization(Cycle::new(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_and_throughput() {
        let mut r = Resource::new("r", 10.0);
        r.service(Cycle::new(0), 50); // busy 5 cycles
        assert!((r.utilization(Cycle::new(10)) - 0.5).abs() < 1e-9);
        assert!((r.achieved_gbps(Cycle::new(10)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn from_gbps_maps_one_to_one_at_1ghz() {
        let r = Resource::from_gbps("link", 768.0);
        assert!((r.bytes_per_cycle() - 768.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r", 4.0);
        r.service(Cycle::new(0), 400);
        r.reset();
        assert_eq!(r.total_bytes(), 0);
        assert_eq!(r.next_free(), Cycle::ZERO);
        assert_eq!(r.service(Cycle::new(0), 4), Cycle::new(1));
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = Resource::new("bad", 0.0);
    }

    #[test]
    fn stretched_service_takes_longer_and_queues() {
        let mut r = Resource::new("r", 16.0);
        // 64 bytes at ×2 occupy 8 cycles instead of 4.
        assert_eq!(r.service_stretched(Cycle::new(0), 64, 2.0), Cycle::new(8));
        // The stretched occupancy also delays the next request.
        assert_eq!(r.service(Cycle::new(0), 64), Cycle::new(12));
    }

    #[test]
    fn integer_round_up_matches_f64_ceil() {
        let two53 = (1u64 << 53) as f64;
        let specials = [
            0.0,
            -0.0,
            0.25,
            1.0,
            1.5,
            7.999_999_999,
            -0.5,
            -3.0,
            two53 - 0.5,
            two53,
            two53 + 2.0,
            (1u64 << 63) as f64,
            u64::MAX as f64,
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for x in specials {
            assert_eq!(ceil_cycle(x).as_u64(), x.ceil() as u64, "x = {x:e}");
        }
        let mut rng = crate::rng::Xoshiro256::new(0xCE11);
        for _ in 0..100_000 {
            let x = f64::from_bits(rng.next_u64());
            assert_eq!(ceil_cycle(x).as_u64(), x.ceil() as u64, "x = {x:e}");
            let y = rng.next_f64() * 1e6;
            assert_eq!(ceil_cycle(y).as_u64(), y.ceil() as u64, "y = {y}");
        }
    }

    /// The fractional next-free-time model as it stood with `f64::ceil`
    /// rounding every finish time.
    struct CeilReference {
        bytes_per_cycle: f64,
        next_free: f64,
        busy: f64,
        queued: f64,
    }

    impl CeilReference {
        fn service(&mut self, now: u64, bytes: u64, stretch: f64) -> u64 {
            if bytes == 0 {
                return now;
            }
            let arrival = now as f64;
            let start = if self.next_free > arrival {
                self.queued += self.next_free - arrival;
                self.next_free
            } else {
                arrival
            };
            let duration = if self.bytes_per_cycle.is_infinite() {
                0.0
            } else {
                bytes as f64 / self.bytes_per_cycle * stretch
            };
            let end = start + duration;
            self.next_free = end;
            self.busy += duration;
            end.ceil() as u64
        }
    }

    /// Generated request scripts against the `f64::ceil` reference:
    /// bandwidths that divide request sizes (finish times land on exact
    /// integers) and that do not, infinite bandwidth, unit and fault
    /// stretches, and clocks from zero up past 2^53 (where every finish
    /// time is integral).
    #[test]
    fn service_matches_the_ceil_reference() {
        use mcm_testkit::prelude::*;
        let bandwidths = [1.0, 3.0, 16.0, 32.0, 768.0, 0.7, 5.5, f64::INFINITY];
        check(
            "service_matches_ceil_reference",
            &(
                u8s(0..8),
                u8s(0..4),
                vecs((u64s(0..40), u64s(0..4096), u8s(0..4)), 1..200),
            ),
            |&(bw, epoch, ref script)| {
                let bandwidth = bandwidths[usize::from(bw)];
                let mut r = Resource::new("r", bandwidth);
                let mut reference = CeilReference {
                    bytes_per_cycle: bandwidth,
                    next_free: 0.0,
                    busy: 0.0,
                    queued: 0.0,
                };
                let mut now = [0, 1000, 1 << 53, (1 << 53) + 12_345][usize::from(epoch)];
                for &(gap, bytes, stretch) in script {
                    now += gap;
                    let stretch = [1.0, 1.0, 2.0, 1.37][usize::from(stretch)];
                    let got = if stretch == 1.0 {
                        r.service(Cycle::new(now), bytes)
                    } else {
                        r.service_stretched(Cycle::new(now), bytes, stretch)
                    };
                    assert_eq!(got.as_u64(), reference.service(now, bytes, stretch));
                    assert_eq!(r.next_free().as_u64(), reference.next_free.ceil() as u64);
                }
                assert_eq!(r.queued_cycles(), reference.queued);
                assert_eq!(r.busy_cycles, reference.busy);
            },
        );
    }

    #[test]
    fn unit_stretch_matches_plain_service() {
        let mut a = Resource::new("a", 7.0);
        let mut b = Resource::new("b", 7.0);
        for i in 0..32u64 {
            let x = a.service(Cycle::new(i * 3), 13 + i);
            let y = b.service_stretched(Cycle::new(i * 3), 13 + i, 1.0);
            assert_eq!(x, y);
        }
        assert_eq!(a.queued_cycles(), b.queued_cycles());
    }
}

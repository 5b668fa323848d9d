//! The intra-GPM crossbar connecting SMs to the local memory subsystem
//! (the "GPM-Xbar" of Fig. 3).

use mcm_engine::{Cycle, Resource};
use mcm_fault::{FaultPlan, Hooks};
use mcm_probe::Probe;

use crate::energy::Tier;

/// An on-die crossbar: high-bandwidth, low-latency, chip-tier energy.
///
/// On a monolithic die the crossbar is engineered to never be the
/// bottleneck; the model gives it generous bandwidth by default but
/// still counts traffic (and chip-tier energy) through it, and lets
/// experiments constrain it to study on-die fabric pressure.
///
/// # Example
///
/// ```
/// use mcm_engine::Cycle;
/// use mcm_interconnect::xbar::Crossbar;
///
/// let mut xbar = Crossbar::new("gpm0-xbar", 8192.0, Cycle::new(4));
/// let done = xbar.transfer(Cycle::ZERO, 128);
/// assert_eq!(done, Cycle::new(5));
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    fabric: Resource,
    latency: Cycle,
}

impl Crossbar {
    /// Creates a crossbar with `gbps` aggregate bandwidth and a fixed
    /// traversal `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive (propagated from
    /// [`Resource::new`]).
    pub fn new(name: &'static str, gbps: f64, latency: Cycle) -> Self {
        Crossbar {
            fabric: Resource::from_gbps(name, gbps),
            latency,
        }
    }

    /// Moves `bytes` across the crossbar starting at `now`; returns
    /// delivery time.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.fabric.service(now, bytes) + self.latency
    }

    /// Like [`Crossbar::transfer`], additionally reporting the traffic
    /// on `module`'s crossbar to the probe. The crossbar never faults.
    pub fn transfer_hooked<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        bytes: u64,
        module: u32,
        hooks: &mut Hooks<P, F>,
    ) -> Cycle {
        let done = self.transfer(now, bytes);
        if P::ACTIVE {
            hooks.probe.xbar_transfer(module, now, bytes);
        }
        done
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.fabric.total_bytes()
    }

    /// Chip-tier energy dissipated so far, in joules.
    pub fn joules(&self) -> f64 {
        Tier::Chip.joules_for_bytes(self.total_bytes())
    }

    /// Fraction of `elapsed` the fabric spent busy.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        self.fabric.utilization(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_latency() {
        let mut x = Crossbar::new("x", 128.0, Cycle::new(4));
        assert_eq!(x.transfer(Cycle::ZERO, 128), Cycle::new(5));
        assert_eq!(x.total_bytes(), 128);
    }

    #[test]
    fn saturating_the_fabric_queues() {
        let mut x = Crossbar::new("x", 10.0, Cycle::ZERO);
        let a = x.transfer(Cycle::ZERO, 100);
        let b = x.transfer(Cycle::ZERO, 100);
        assert_eq!(a, Cycle::new(10));
        assert_eq!(b, Cycle::new(20));
        assert!((x.utilization(Cycle::new(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probed_transfer_reports_module_bytes() {
        #[derive(Default)]
        struct Log(Vec<(u32, u64)>);
        impl Probe for Log {
            fn xbar_transfer(&mut self, module: u32, _now: Cycle, bytes: u64) {
                self.0.push((module, bytes));
            }
        }
        let mut hooks = Hooks::new(Log::default(), mcm_fault::NullFaultPlan);
        let mut x = Crossbar::new("x", 128.0, Cycle::new(4));
        assert_eq!(
            x.transfer_hooked(Cycle::ZERO, 128, 2, &mut hooks),
            Cycle::new(5)
        );
        assert_eq!(hooks.probe.0, vec![(2, 128)]);
    }

    #[test]
    fn chip_tier_energy() {
        let mut x = Crossbar::new("x", 1000.0, Cycle::ZERO);
        x.transfer(Cycle::ZERO, 1_000_000);
        let expect = Tier::Chip.joules_for_bytes(1_000_000);
        assert!((x.joules() - expect).abs() < 1e-15);
    }
}

//! Deterministic runtime fault injection for the MCM-GPU simulator.
//!
//! The simulator threads a generic [`FaultPlan`] through the same
//! contended components that carry a `Probe`: inter-module links, DRAM
//! partitions, the MSHR fill path, and the CTA scheduler. Unlike a
//! probe, a fault plan *does* influence timing — that is its job — so
//! the disabled case must vanish completely. [`NullFaultPlan`] declares
//! `ACTIVE = false` and every call site guards on the const, so a
//! simulator monomorphized over `NullFaultPlan` compiles to exactly the
//! fault-free code and reproduces every golden cycle count bit-exactly.
//!
//! [`SeededFaultPlan`] compiles a [`FaultConfig`] into concrete events.
//! Every decision is a pure function of `(seed, salt, site, counter)`
//! hashed through [`mcm_engine::rng::Xoshiro256`], so the schedule is
//! independent of event interleaving and identical across runs with the
//! same seed — the degradation curves it produces are byte-reproducible.
//!
//! The fault taxonomy (see DESIGN.md § Resilience):
//!
//! * **Transient link errors** — a transfer is accepted by the link's
//!   bandwidth queue but fails CRC on arrival; the sender retransmits
//!   after a capped exponential backoff. Models GRS bit-error bursts.
//! * **DRAM thermal throttle** — a partition's service time is
//!   stretched for a window of cycles, modeling a thermally throttled
//!   memory stack under one GPM.
//! * **Hard GPM degradation** — a module's SM pool goes offline from a
//!   given kernel on; the scheduler resteals its pending CTAs to the
//!   survivors while first-touch pages stay put, exposing the true NUMA
//!   penalty of failover.
//! * **MSHR poisoning** — a fill is delivered corrupted and the request
//!   replays once from the top of the hierarchy (bounded replay).
//!
//! # Example
//!
//! ```
//! use mcm_fault::{FaultConfig, FaultPlan, NullFaultPlan, SeededFaultPlan};
//! use mcm_probe::LinkId;
//!
//! assert!(!<NullFaultPlan as FaultPlan>::ACTIVE);
//!
//! let mut plan = SeededFaultPlan::new(FaultConfig::with_rate(7, 0.5));
//! // Decisions are deterministic: the same site and attempt sequence
//! // always yields the same error pattern.
//! let a: Vec<bool> = (0..8).map(|i| plan.link_error(LinkId::RingCw(0), i)).collect();
//! let mut again = SeededFaultPlan::new(FaultConfig::with_rate(7, 0.5));
//! let b: Vec<bool> = (0..8).map(|i| again.link_error(LinkId::RingCw(0), i)).collect();
//! assert_eq!(a, b);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod inject;

use std::collections::HashMap;
use std::sync::OnceLock;

use mcm_engine::rng::Xoshiro256;
use mcm_engine::Cycle;
use mcm_probe::LinkId;
use mcm_telemetry::{global, Class, Counter};

/// Pre-registered per-kind injection counters. The schedule is a pure
/// function of the seed, so these are deterministic — they count the
/// same faults at every `MCM_JOBS` — and strictly out-of-band: timing
/// never reads them.
struct FaultTele {
    link_errors: Counter,
    dram_throttled: Counter,
    mshr_poisoned: Counter,
}

fn tele() -> &'static FaultTele {
    static TELE: OnceLock<FaultTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let reg = global();
        FaultTele {
            link_errors: reg.counter("fault.link.errors_injected", Class::Deterministic),
            dram_throttled: reg.counter("fault.dram.throttled_draws", Class::Deterministic),
            mshr_poisoned: reg.counter("fault.mshr.fills_poisoned", Class::Deterministic),
        }
    })
}

/// Domain-separation salts so the four fault families draw from
/// decorrelated streams even under one seed.
const LINK_SALT: u64 = 0x6C69_6E6B; // "link"
const DRAM_SALT: u64 = 0x6472_616D; // "dram"
const POISON_SALT: u64 = 0x6D73_6872; // "mshr"

/// One uniform draw in `[0, 1)`, fully determined by its identifiers.
fn draw(parts: &[u64]) -> f64 {
    Xoshiro256::seeded(parts).next_f64()
}

/// A runtime fault schedule consulted by the simulator's contended
/// components.
///
/// Every hook has an inlined fault-free default, and call sites guard
/// on [`ACTIVE`](FaultPlan::ACTIVE), so an inactive plan monomorphizes
/// to the unperturbed simulator. Implementations must be deterministic:
/// the same call sequence must produce the same decisions, regardless
/// of wall clock or map iteration order.
pub trait FaultPlan {
    /// Whether this plan can inject anything. Call sites skip the fault
    /// path entirely when `false`, which also guarantees bit-exact
    /// timing (not merely "no faults fired").
    const ACTIVE: bool = true;

    /// Whether transfer attempt `attempt` (0-based) on `link` is hit by
    /// a transient error and must retransmit.
    fn link_error(&mut self, link: LinkId, attempt: u32) -> bool {
        let _ = (link, attempt);
        false
    }

    /// Backoff delay inserted before retransmit attempt `attempt + 1`.
    fn link_backoff(&self, attempt: u32) -> Cycle {
        let _ = attempt;
        Cycle::ZERO
    }

    /// Retransmit budget per transfer; after this many consecutive
    /// errors the transfer is forced through (the hardware analogue:
    /// the link retrains and the packet eventually lands).
    fn link_max_retries(&self) -> u32 {
        0
    }

    /// Service-time stretch factor (`>= 1.0`) for DRAM partition
    /// `module` at `now`. `1.0` means unthrottled.
    fn dram_stretch(&mut self, module: u32, now: Cycle) -> f64 {
        let _ = (module, now);
        1.0
    }

    /// Whether the fill for request `id` arrives poisoned and must
    /// replay. Consulted at most once per request (bounded replay).
    fn poison_fill(&mut self, id: u64) -> bool {
        let _ = id;
        false
    }

    /// Whether module `module`'s SM pool is offline during `kernel`.
    fn module_disabled(&self, module: usize, kernel: u32) -> bool {
        let _ = (module, kernel);
        false
    }
}

/// A plan behind a mutable reference: every hook forwards to the
/// referent. This lets a run loop *own* its plan generically (`F:
/// FaultPlan`) while the caller keeps the concrete plan and observes
/// its mutated counters afterwards — instantiate the loop with
/// `F = &mut ConcretePlan`.
impl<F: FaultPlan> FaultPlan for &mut F {
    const ACTIVE: bool = F::ACTIVE;

    fn link_error(&mut self, link: LinkId, attempt: u32) -> bool {
        (**self).link_error(link, attempt)
    }

    fn link_backoff(&self, attempt: u32) -> Cycle {
        (**self).link_backoff(attempt)
    }

    fn link_max_retries(&self) -> u32 {
        (**self).link_max_retries()
    }

    fn dram_stretch(&mut self, module: u32, now: Cycle) -> f64 {
        (**self).dram_stretch(module, now)
    }

    fn poison_fill(&mut self, id: u64) -> bool {
        (**self).poison_fill(id)
    }

    fn module_disabled(&self, module: usize, kernel: u32) -> bool {
        (**self).module_disabled(module, kernel)
    }
}

/// The do-nothing plan: `ACTIVE = false`, so every fault call site
/// disappears at monomorphization and timing is bit-identical to a
/// build without the fault layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullFaultPlan;

impl FaultPlan for NullFaultPlan {
    const ACTIVE: bool = false;
}

/// A hard GPM loss: module `module` stops admitting CTAs from kernel
/// `from_kernel` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadModule {
    /// The module whose SM pool goes offline.
    pub module: u8,
    /// First kernel index (0-based) during which it is offline.
    pub from_kernel: u32,
}

/// Knobs for [`SeededFaultPlan`]. Rates are per-decision probabilities
/// in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Root seed; all fault families derive their streams from it.
    pub seed: u64,
    /// Probability that one link transfer attempt takes a CRC error.
    pub link_error_rate: f64,
    /// Retransmit budget per transfer (see
    /// [`FaultPlan::link_max_retries`]).
    pub link_max_retries: u32,
    /// Backoff before the first retransmit; doubles per attempt, capped
    /// at `base << 6`.
    pub backoff_base_cycles: u64,
    /// Probability that a DRAM partition is throttled during any one
    /// throttle window.
    pub dram_throttle_rate: f64,
    /// Length of one throttle window in cycles.
    pub dram_window_cycles: u64,
    /// Service-time stretch while throttled (`>= 1.0`).
    pub dram_throttle_stretch: f64,
    /// Probability that a fill arrives poisoned and replays once.
    pub mshr_poison_rate: f64,
    /// Optional hard GPM loss.
    pub dead_module: Option<DeadModule>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x5EED,
            link_error_rate: 0.0,
            link_max_retries: 4,
            backoff_base_cycles: 8,
            dram_throttle_rate: 0.0,
            dram_window_cycles: 8192,
            dram_throttle_stretch: 2.0,
            mshr_poison_rate: 0.0,
            dead_module: None,
        }
    }
}

impl FaultConfig {
    /// A config with all three transient-fault rates set to `rate` (no
    /// hard GPM loss) — the knob the `resilience` sweep turns.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            link_error_rate: rate,
            dram_throttle_rate: rate,
            mshr_poison_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Checks the config for NaN and out-of-range knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("link_error_rate", self.link_error_rate),
            ("dram_throttle_rate", self.dram_throttle_rate),
            ("mshr_poison_rate", self.mshr_poison_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "{name} must be a probability in [0, 1], got {rate}"
                ));
            }
        }
        if !self.dram_throttle_stretch.is_finite() || self.dram_throttle_stretch < 1.0 {
            return Err(format!(
                "dram_throttle_stretch must be a finite factor >= 1.0, got {}",
                self.dram_throttle_stretch
            ));
        }
        if self.dram_window_cycles == 0 {
            return Err("dram_window_cycles must be nonzero".into());
        }
        Ok(())
    }
}

/// A fault schedule compiled from a [`FaultConfig`].
///
/// Decisions hash `(seed, family salt, site, counter)` through the
/// workspace RNG, so they depend only on the identifiers — never on map
/// iteration order or call interleaving across sites. The per-link
/// attempt counters live in a `HashMap` that is keyed, not iterated.
#[derive(Debug, Clone)]
pub struct SeededFaultPlan {
    cfg: FaultConfig,
    /// Per-link count of transfer attempts, the per-site counter that
    /// decorrelates successive draws on the same link.
    link_draws: HashMap<u64, u64>,
}

/// Collapses a [`LinkId`] to a stable integer key.
fn link_key(link: LinkId) -> u64 {
    match link {
        LinkId::RingCw(i) => (1 << 32) | u64::from(i),
        LinkId::RingCcw(i) => (2 << 32) | u64::from(i),
        LinkId::Mesh { from, to } => (3 << 32) | (u64::from(from) << 8) | u64::from(to),
    }
}

impl SeededFaultPlan {
    /// Compiles `cfg` into a plan.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FaultConfig::validate`].
    pub fn new(cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        SeededFaultPlan {
            cfg,
            link_draws: HashMap::new(),
        }
    }

    /// The config this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }
}

impl FaultPlan for SeededFaultPlan {
    fn link_error(&mut self, link: LinkId, _attempt: u32) -> bool {
        if self.cfg.link_error_rate <= 0.0 {
            return false;
        }
        let key = link_key(link);
        let counter = self.link_draws.entry(key).or_insert(0);
        let n = *counter;
        *counter += 1;
        let hit = draw(&[self.cfg.seed, LINK_SALT, key, n]) < self.cfg.link_error_rate;
        if hit {
            tele().link_errors.inc();
        }
        hit
    }

    fn link_backoff(&self, attempt: u32) -> Cycle {
        Cycle::new(
            self.cfg
                .backoff_base_cycles
                .saturating_mul(1 << attempt.min(6)),
        )
    }

    fn link_max_retries(&self) -> u32 {
        self.cfg.link_max_retries
    }

    fn dram_stretch(&mut self, module: u32, now: Cycle) -> f64 {
        if self.cfg.dram_throttle_rate <= 0.0 {
            return 1.0;
        }
        let window = now.as_u64() / self.cfg.dram_window_cycles;
        if draw(&[self.cfg.seed, DRAM_SALT, u64::from(module), window])
            < self.cfg.dram_throttle_rate
        {
            tele().dram_throttled.inc();
            self.cfg.dram_throttle_stretch
        } else {
            1.0
        }
    }

    fn poison_fill(&mut self, id: u64) -> bool {
        let hit = self.cfg.mshr_poison_rate > 0.0
            && draw(&[self.cfg.seed, POISON_SALT, id]) < self.cfg.mshr_poison_rate;
        if hit {
            tele().mshr_poisoned.inc();
        }
        hit
    }

    fn module_disabled(&self, module: usize, kernel: u32) -> bool {
        self.cfg
            .dead_module
            .is_some_and(|d| usize::from(d.module) == module && kernel >= d.from_kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active<F: FaultPlan>() -> bool {
        F::ACTIVE
    }

    #[test]
    fn null_plan_is_inactive_and_faultless() {
        assert!(!active::<NullFaultPlan>());
        let mut p = NullFaultPlan;
        assert!(!p.link_error(LinkId::RingCw(0), 0));
        assert_eq!(p.link_backoff(3), Cycle::ZERO);
        assert_eq!(p.link_max_retries(), 0);
        assert_eq!(p.dram_stretch(0, Cycle::new(100)), 1.0);
        assert!(!p.poison_fill(42));
        assert!(!p.module_disabled(1, 0));
    }

    #[test]
    fn seeded_plan_is_reproducible() {
        let run = |seed| {
            let mut p = SeededFaultPlan::new(FaultConfig::with_rate(seed, 0.3));
            let links: Vec<bool> = (0..64)
                .map(|i| p.link_error(LinkId::Mesh { from: 0, to: 1 }, i))
                .collect();
            let drams: Vec<f64> = (0..16)
                .map(|w| p.dram_stretch(2, Cycle::new(w * 10_000)))
                .collect();
            let poisons: Vec<bool> = (0..64).map(|id| p.poison_fill(id)).collect();
            (links, drams, poisons)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn mut_ref_forwards_and_mirrors_active() {
        assert!(active::<&mut SeededFaultPlan>());
        assert!(!active::<&mut NullFaultPlan>());
        let mut owned = SeededFaultPlan::new(FaultConfig::with_rate(9, 0.3));
        let mut direct = SeededFaultPlan::new(FaultConfig::with_rate(9, 0.3));
        {
            let fwd: &mut SeededFaultPlan = &mut owned;
            for i in 0..32 {
                assert_eq!(
                    fwd.link_error(LinkId::RingCw(0), i),
                    direct.link_error(LinkId::RingCw(0), i)
                );
            }
            assert_eq!(fwd.link_backoff(2), direct.link_backoff(2));
            assert_eq!(fwd.link_max_retries(), direct.link_max_retries());
            assert!(!fwd.module_disabled(0, 0));
        }
        // The forwarded calls mutated the owned plan's counters.
        assert_eq!(
            owned.link_draws.get(&link_key(LinkId::RingCw(0))),
            Some(&32)
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = SeededFaultPlan::new(FaultConfig::with_rate(1, 0.25));
        let n = 4000;
        let hits = (0..n)
            .filter(|&i| p.link_error(LinkId::RingCw(1), i))
            .count();
        let frac = hits as f64 / f64::from(n);
        assert!((0.2..0.3).contains(&frac), "rate drifted: {frac}");
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = SeededFaultPlan::new(FaultConfig::with_rate(5, 0.0));
        assert!((0..256).all(|i| !p.link_error(LinkId::RingCcw(0), i)));
        assert!((0..256).all(|w| p.dram_stretch(0, Cycle::new(w * 8192)) == 1.0));
        assert!((0..256).all(|id| !p.poison_fill(id)));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = SeededFaultPlan::new(FaultConfig::with_rate(0, 0.1));
        assert_eq!(p.link_backoff(0), Cycle::new(8));
        assert_eq!(p.link_backoff(1), Cycle::new(16));
        assert_eq!(p.link_backoff(3), Cycle::new(64));
        // Capped: attempts past 6 stop doubling.
        assert_eq!(p.link_backoff(6), p.link_backoff(20));
    }

    #[test]
    fn dead_module_respects_kernel_onset() {
        let cfg = FaultConfig {
            dead_module: Some(DeadModule {
                module: 2,
                from_kernel: 1,
            }),
            ..FaultConfig::default()
        };
        let p = SeededFaultPlan::new(cfg);
        assert!(!p.module_disabled(2, 0));
        assert!(p.module_disabled(2, 1));
        assert!(p.module_disabled(2, 7));
        assert!(!p.module_disabled(1, 1));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(FaultConfig::with_rate(0, f64::NAN).validate().is_err());
        assert!(FaultConfig::with_rate(0, -0.5).validate().is_err());
        assert!(FaultConfig::with_rate(0, 1.5).validate().is_err());
        let mut c = FaultConfig {
            dram_throttle_stretch: 0.5,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        c.dram_throttle_stretch = f64::INFINITY;
        assert!(c.validate().is_err());
        let c = FaultConfig {
            dram_window_cycles: 0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(FaultConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid FaultConfig")]
    fn plan_construction_panics_on_bad_config() {
        let _ = SeededFaultPlan::new(FaultConfig::with_rate(0, 2.0));
    }

    #[test]
    fn injections_are_counted_per_kind() {
        let reg = mcm_telemetry::global();
        let links = reg.counter("fault.link.errors_injected", Class::Deterministic);
        let poisons = reg.counter("fault.mshr.fills_poisoned", Class::Deterministic);
        let (l0, p0) = (links.get(), poisons.get());
        let mut p = SeededFaultPlan::new(FaultConfig::with_rate(3, 0.5));
        let fired_links = (0..200)
            .filter(|&i| p.link_error(LinkId::RingCw(7), i))
            .count() as u64;
        let fired_poisons = (1000..1200).filter(|&id| p.poison_fill(id)).count() as u64;
        assert!(fired_links > 0 && fired_poisons > 0, "rate 0.5 must fire");
        // Lower bounds: other tests in the binary share the registry.
        assert!(links.get() - l0 >= fired_links);
        assert!(poisons.get() - p0 >= fired_poisons);
    }
}

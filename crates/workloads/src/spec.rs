//! Workload specifications: the static description of one benchmark.

use std::fmt;

use mcm_engine::rng::StableHasher;

/// The paper's three workload categories (§4).
///
/// High-parallelism applications (parallel efficiency ≥ 25 %) are split
/// into memory-intensive (> 20 % slowdown when DRAM bandwidth is halved)
/// and compute-intensive; the rest are limited-parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// High parallelism, memory intensive ("M-Intensive").
    MemoryIntensive,
    /// High parallelism, compute intensive ("C-Intensive").
    ComputeIntensive,
    /// Insufficient parallelism to fill a 256-SM GPU ("Lim. Parallel").
    LimitedParallelism,
}

impl Category {
    /// All categories in the paper's reporting order.
    pub const ALL: [Category; 3] = [
        Category::MemoryIntensive,
        Category::ComputeIntensive,
        Category::LimitedParallelism,
    ];

    /// The paper's abbreviation for the category.
    pub const fn label(self) -> &'static str {
        match self {
            Category::MemoryIntensive => "M-Intensive",
            Category::ComputeIntensive => "C-Intensive",
            Category::LimitedParallelism => "Lim. Parallel",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The locality knobs of a workload's synthetic address stream.
///
/// Together these reproduce the access-pattern *properties* the paper's
/// proprietary traces exhibit; see DESIGN.md for the substitution
/// argument. All fractions are probabilities in `[0, 1]` over memory
/// operations; `streaming`, `neighbor_frac` and `shared_frac` partition
/// an access's target region (own slice stream/reuse, adjacent CTA's
/// slice, globally shared data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityProfile {
    /// Of own-slice accesses, the fraction that advance sequentially
    /// (streaming); the rest revisit the reuse window (temporal reuse).
    pub streaming: f64,
    /// Size of the temporal-reuse window in cache lines. Small windows
    /// cache well; windows larger than the per-GPM cache defeat it.
    pub reuse_window_lines: u32,
    /// Fraction of accesses that touch an adjacent CTA's data slice —
    /// the inter-CTA spatial locality distributed scheduling exploits
    /// (§5.2).
    pub neighbor_frac: f64,
    /// Fraction of accesses that touch the *hot* shared region
    /// (read-mostly tables, frontiers): traffic no placement policy can
    /// localize, but small enough that a GPM-side cache can capture it.
    pub shared_frac: f64,
    /// The hot shared region's size as a fraction of the footprint.
    pub shared_region_frac: f64,
    /// Fraction of accesses that touch the *whole footprint* uniformly
    /// (pointer chasing, irregular gathers): irreducibly remote traffic
    /// that neither caches nor placement can absorb.
    pub cold_shared_frac: f64,
    /// Memory divergence: when present, a fraction of memory
    /// instructions are uncoalesced gathers that issue several distinct
    /// line transactions (each costing an issue slot, as real SMs
    /// replay divergent accesses). `None` models fully coalesced code.
    pub divergence: Option<Divergence>,
}

/// Uncoalesced-gather behaviour for [`LocalityProfile::divergence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Fraction of memory instructions that diverge.
    pub frac: f64,
    /// Line transactions a divergent instruction issues (including the
    /// primary one).
    pub degree: u8,
}

impl Divergence {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.frac) {
            return Err(format!(
                "divergence frac must be in [0,1], got {}",
                self.frac
            ));
        }
        if self.degree < 2 {
            return Err("divergent gathers need degree >= 2".to_string());
        }
        Ok(())
    }
}

impl LocalityProfile {
    /// A balanced default: mostly streaming over the CTA's own slice
    /// with a modest reuse window and small neighbor/shared components.
    pub const fn balanced() -> Self {
        LocalityProfile {
            streaming: 0.7,
            reuse_window_lines: 4096,
            neighbor_frac: 0.05,
            shared_frac: 0.05,
            shared_region_frac: 0.05,
            cold_shared_frac: 0.0,
            divergence: None,
        }
    }

    /// Returns a copy with the given cold-shared fraction — the
    /// irreducibly remote traffic component.
    pub const fn with_cold_shared(mut self, frac: f64) -> Self {
        self.cold_shared_frac = frac;
        self
    }

    /// Returns a copy where `frac` of memory instructions are
    /// uncoalesced gathers of `degree` lines.
    pub const fn with_divergence(mut self, frac: f64, degree: u8) -> Self {
        self.divergence = Some(Divergence { frac, degree });
        self
    }

    /// Validates that all fractions are within range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0,1], got {v}"))
            }
        };
        unit("streaming", self.streaming)?;
        unit("neighbor_frac", self.neighbor_frac)?;
        unit("shared_frac", self.shared_frac)?;
        unit("shared_region_frac", self.shared_region_frac)?;
        unit("cold_shared_frac", self.cold_shared_frac)?;
        let sum = self.neighbor_frac + self.shared_frac + self.cold_shared_frac;
        if sum > 1.0 {
            return Err(format!(
                "neighbor_frac + shared_frac + cold_shared_frac must not exceed 1, got {sum}"
            ));
        }
        if self.reuse_window_lines == 0 {
            return Err("reuse_window_lines must be nonzero".to_string());
        }
        if let Some(d) = self.divergence {
            d.validate()?;
        }
        Ok(())
    }
}

impl Default for LocalityProfile {
    fn default() -> Self {
        LocalityProfile::balanced()
    }
}

/// The full static description of one benchmark in the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Reporting category.
    pub category: Category,
    /// Memory footprint in bytes (Table 4 values for the M-Intensive
    /// set).
    pub footprint_bytes: u64,
    /// CTAs per kernel launch.
    pub ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Warp instructions each warp executes per kernel launch.
    pub insts_per_warp: u32,
    /// Fraction of warp instructions that are memory operations.
    pub mem_ratio: f64,
    /// Fraction of memory operations that are stores.
    pub write_frac: f64,
    /// Number of times the kernel is launched (convergence loops; §5.3's
    /// cross-kernel locality exists only when this exceeds 1).
    pub kernel_iters: u32,
    /// Address-stream locality knobs.
    pub locality: LocalityProfile,
    /// Per-CTA work imbalance: CTA `c` executes up to `1 + imbalance`
    /// times the base instruction count (0 = perfectly uniform).
    pub imbalance: f64,
    /// Base RNG seed; every derived stream hashes this with kernel, CTA
    /// and warp ids.
    pub seed: u64,
}

// Sweep executors hand specs to worker threads by reference; keep the
// thread-safety a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorkloadSpec>();
    assert_send_sync::<LocalityProfile>();
};

impl WorkloadSpec {
    /// A template spec used by tests and as a starting point for custom
    /// workloads: 256 CTAs × 4 warps, 64 MiB footprint, 30 % memory
    /// operations, balanced locality, 2 kernel iterations.
    pub fn template(name: &'static str) -> Self {
        WorkloadSpec {
            name,
            category: Category::MemoryIntensive,
            footprint_bytes: 64 << 20,
            ctas: 256,
            warps_per_cta: 4,
            insts_per_warp: 512,
            mem_ratio: 0.3,
            write_frac: 0.25,
            kernel_iters: 2,
            locality: LocalityProfile::balanced(),
            imbalance: 0.0,
            seed: 0xC0FFEE,
        }
    }

    /// Total warps per kernel launch.
    pub fn total_warps(&self) -> u64 {
        u64::from(self.ctas) * u64::from(self.warps_per_cta)
    }

    /// Approximate total warp instructions across all kernel launches
    /// (ignoring imbalance).
    pub fn approx_instructions(&self) -> u64 {
        self.total_warps() * u64::from(self.insts_per_warp) * u64::from(self.kernel_iters)
    }

    /// Footprint in cache lines.
    pub fn footprint_lines(&self) -> u64 {
        (self.footprint_bytes / mcm_mem::addr::LINE_BYTES).max(1)
    }

    /// Returns a copy with the instruction count per warp scaled by
    /// `factor` (at least one instruction), for quick-running tests and
    /// smoke benches.
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        let mut spec = self.clone();
        spec.insts_per_warp = ((f64::from(self.insts_per_warp) * factor).round() as u32).max(1);
        spec
    }

    /// A stable 64-bit digest of every field, for cache keys: specs
    /// that differ in any field (a suite entry edited under its old
    /// name included) get different fingerprints, across processes and
    /// machines.
    ///
    /// # Example
    ///
    /// ```
    /// use mcm_workloads::WorkloadSpec;
    ///
    /// let spec = WorkloadSpec::template("demo");
    /// let mut edited = spec.clone();
    /// edited.locality.neighbor_frac += 0.01;
    /// assert_eq!(spec.fingerprint(), spec.clone().fingerprint());
    /// assert_ne!(spec.fingerprint(), edited.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructures, no `..`: a field added to any of
        // these structs fails to compile here until it is hashed.
        let WorkloadSpec {
            name,
            category,
            footprint_bytes,
            ctas,
            warps_per_cta,
            insts_per_warp,
            mem_ratio,
            write_frac,
            kernel_iters,
            locality,
            imbalance,
            seed,
        } = self;
        let LocalityProfile {
            streaming,
            reuse_window_lines,
            neighbor_frac,
            shared_frac,
            shared_region_frac,
            cold_shared_frac,
            divergence,
        } = locality;
        let mut h = StableHasher::new();
        h.write_str(name);
        h.write_str(category.label());
        h.write_u64(*footprint_bytes);
        h.write_u32(*ctas);
        h.write_u32(*warps_per_cta);
        h.write_u32(*insts_per_warp);
        h.write_f64(*mem_ratio);
        h.write_f64(*write_frac);
        h.write_u32(*kernel_iters);
        h.write_f64(*streaming);
        h.write_u32(*reuse_window_lines);
        h.write_f64(*neighbor_frac);
        h.write_f64(*shared_frac);
        h.write_f64(*shared_region_frac);
        h.write_f64(*cold_shared_frac);
        match divergence {
            None => h.write_u8(0),
            Some(Divergence { frac, degree }) => {
                h.write_u8(1);
                h.write_f64(*frac);
                h.write_u8(*degree);
            }
        }
        h.write_f64(*imbalance);
        h.write_u64(*seed);
        h.finish()
    }

    /// Validates the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ctas == 0 || self.warps_per_cta == 0 || self.insts_per_warp == 0 {
            return Err(format!("{}: ctas/warps/insts must be nonzero", self.name));
        }
        if self.kernel_iters == 0 {
            return Err(format!("{}: kernel_iters must be nonzero", self.name));
        }
        if !(0.0..=1.0).contains(&self.mem_ratio) || self.mem_ratio == 0.0 {
            return Err(format!(
                "{}: mem_ratio must be in (0,1], got {}",
                self.name, self.mem_ratio
            ));
        }
        if !(0.0..=1.0).contains(&self.write_frac) {
            return Err(format!("{}: write_frac must be in [0,1]", self.name));
        }
        if !(0.0..=1.0).contains(&self.imbalance) {
            return Err(format!("{}: imbalance must be in [0,1]", self.name));
        }
        if self.footprint_lines() < u64::from(self.ctas) {
            return Err(format!(
                "{}: footprint has fewer lines than CTAs",
                self.name
            ));
        }
        self.locality
            .validate()
            .map_err(|e| format!("{}: {e}", self.name))
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} MiB, {} CTAs x {} warps, {}% mem",
            self.name,
            self.category,
            self.footprint_bytes >> 20,
            self.ctas,
            self.warps_per_cta,
            (self.mem_ratio * 100.0).round()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_is_valid() {
        WorkloadSpec::template("t").validate().unwrap();
    }

    #[test]
    fn totals() {
        let spec = WorkloadSpec::template("t");
        assert_eq!(spec.total_warps(), 1024);
        assert_eq!(spec.approx_instructions(), 1024 * 512 * 2);
        assert_eq!(spec.footprint_lines(), (64 << 20) / 128);
    }

    #[test]
    fn scaled_rounds_and_clamps() {
        let spec = WorkloadSpec::template("t");
        assert_eq!(spec.scaled(0.5).insts_per_warp, 256);
        assert_eq!(spec.scaled(0.0).insts_per_warp, 1);
        assert_eq!(spec.scaled(2.0).insts_per_warp, 1024);
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut spec = WorkloadSpec::template("t");
        spec.mem_ratio = 0.0;
        assert!(spec.validate().is_err());
        spec.mem_ratio = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = WorkloadSpec::template("t");
        spec.locality.neighbor_frac = 0.7;
        spec.locality.shared_frac = 0.7;
        assert!(spec.validate().is_err());

        let mut spec = WorkloadSpec::template("t");
        spec.locality.reuse_window_lines = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_catches_degenerate_shapes() {
        let mut spec = WorkloadSpec::template("t");
        spec.ctas = 0;
        assert!(spec.validate().is_err());

        let mut spec = WorkloadSpec::template("t");
        spec.footprint_bytes = 128; // 1 line but 256 CTAs
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = WorkloadSpec::template("t");
        let edits: Vec<fn(&mut WorkloadSpec)> = vec![
            |s| s.name = "u",
            |s| s.category = Category::ComputeIntensive,
            |s| s.footprint_bytes += 128,
            |s| s.ctas += 1,
            |s| s.warps_per_cta += 1,
            |s| s.insts_per_warp += 1,
            |s| s.mem_ratio += 0.01,
            |s| s.write_frac += 0.01,
            |s| s.kernel_iters += 1,
            |s| s.locality.streaming += 0.01,
            |s| s.locality.reuse_window_lines += 1,
            |s| s.locality.neighbor_frac += 0.01,
            |s| s.locality.shared_frac += 0.01,
            |s| s.locality.shared_region_frac += 0.01,
            |s| s.locality.cold_shared_frac += 0.01,
            |s| s.locality = s.locality.with_divergence(0.5, 4),
            |s| s.imbalance += 0.01,
            |s| s.seed += 1,
        ];
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(base.fingerprint()));
        for (i, edit) in edits.iter().enumerate() {
            let mut spec = base.clone();
            edit(&mut spec);
            assert!(
                seen.insert(spec.fingerprint()),
                "edit {i} kept the fingerprint"
            );
        }
        // Divergence parameters count, not just its presence.
        let mut a = base.clone();
        a.locality = a.locality.with_divergence(0.5, 4);
        let mut b = a.clone();
        b.locality = b.locality.with_divergence(0.5, 5);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn category_labels_match_paper() {
        assert_eq!(Category::MemoryIntensive.label(), "M-Intensive");
        assert_eq!(Category::ComputeIntensive.label(), "C-Intensive");
        assert_eq!(Category::LimitedParallelism.label(), "Lim. Parallel");
    }
}

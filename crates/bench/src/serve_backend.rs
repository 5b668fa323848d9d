//! The production [`Backend`] for `mcm-serve`: paper configurations by
//! short name, the full 48-workload suite, and store keying that is
//! bit-for-bit the keying [`Memo`](crate::harness::Memo) uses — so a
//! served result, a warm restart, and a direct harness run all read and
//! write the same record.
//!
//! Reports are rendered to canonical JSON
//! ([`mcm_serve::protocol::render_report`]) exactly once per pair and
//! cached rendered, so every delivery path — store hit, fresh run, or
//! shared in-flight subscription — returns identical bytes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use mcm_gpu::SystemConfig;
use mcm_serve::protocol::render_report;
use mcm_serve::{Backend, PairKey};
use mcm_store::Store;
use mcm_workloads::{suite, WorkloadSpec};

use crate::harness::{pair_fingerprint, run_instrumented, scale, store_from_env};

/// The configurations a sweep request can name, keyed by short name.
/// Sorted (BTreeMap) so error messages and listings are deterministic.
pub fn preset_table() -> BTreeMap<&'static str, SystemConfig> {
    BTreeMap::from([
        ("baseline", SystemConfig::baseline_mcm()),
        ("l15-ds", SystemConfig::mcm_l15_ds()),
        ("mcm-2", SystemConfig::mcm_n_gpms(2)),
        ("mcm-8", SystemConfig::mcm_n_gpms(8)),
        ("mono-128", SystemConfig::largest_buildable_monolithic()),
        ("mono-256", SystemConfig::hypothetical_monolithic_256()),
        ("multi-gpu", SystemConfig::multi_gpu_baseline()),
        ("opt-fc", SystemConfig::optimized_mcm_fully_connected()),
        ("optimized", SystemConfig::optimized_mcm()),
    ])
}

/// [`Backend`] over the bench harness: resolves preset and Table 4
/// workload names, memoizes through the persistent [`Store`], and
/// simulates misses with [`run_instrumented`].
pub struct MemoBackend {
    scale: f64,
    presets: BTreeMap<&'static str, SystemConfig>,
    workloads: Vec<WorkloadSpec>,
    store: Option<Store>,
    /// Rendered-report cache, keyed by pair fingerprint.
    rendered: Mutex<HashMap<u64, String>>,
}

impl std::fmt::Debug for MemoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoBackend")
            .field("scale", &self.scale)
            .field("presets", &self.presets.len())
            .field("workloads", &self.workloads.len())
            .field("store", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl MemoBackend {
    /// A backend at `scale`, optionally over a persistent store.
    pub fn new(scale: f64, store: Option<Store>) -> Self {
        MemoBackend {
            scale,
            presets: preset_table(),
            workloads: suite::suite(),
            store,
            rendered: Mutex::new(HashMap::new()),
        }
    }

    /// Environment-configured backend: scale from `MCM_SCALE`, store
    /// from `MCM_STORE` — the same knobs, with the same semantics, as
    /// [`Memo::from_env`](crate::harness::Memo::from_env).
    ///
    /// # Panics
    ///
    /// Panics when `MCM_STORE` is set but the directory cannot be
    /// opened (mistyped knobs abort; see `Memo::from_env`).
    pub fn from_env() -> Self {
        MemoBackend::new(scale(), store_from_env())
    }

    /// The preset names this backend resolves, sorted.
    pub fn preset_names(&self) -> Vec<String> {
        self.presets.keys().map(|k| (*k).to_string()).collect()
    }

    fn spec(&self, workload: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == workload)
    }

    fn rendered_get(&self, fingerprint: u64) -> Option<String> {
        self.rendered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&fingerprint)
            .cloned()
    }

    fn rendered_put(&self, fingerprint: u64, rendered: String) -> String {
        self.rendered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(fingerprint)
            .or_insert(rendered)
            .clone()
    }
}

impl Backend for MemoBackend {
    fn resolve(&self, config: &str, workload: &str) -> Result<PairKey, String> {
        let Some(cfg) = self.presets.get(config) else {
            let known = self.preset_names().join(", ");
            return Err(format!("unknown config \"{config}\" (known: {known})"));
        };
        let Some(spec) = self.spec(workload) else {
            return Err(format!(
                "unknown workload \"{workload}\" (48 Table 4 names, or \"*\")"
            ));
        };
        Ok(PairKey {
            fingerprint: pair_fingerprint(self.scale, cfg, spec),
            config: config.to_string(),
            workload: workload.to_string(),
        })
    }

    fn lookup(&self, key: &PairKey) -> Option<String> {
        if let Some(r) = self.rendered_get(key.fingerprint) {
            return Some(r);
        }
        let report = self
            .store
            .as_ref()
            .and_then(|s| s.get(key.fingerprint, &key.workload))?;
        Some(self.rendered_put(key.fingerprint, render_report(&report)))
    }

    fn run(&self, key: &PairKey) -> String {
        let cfg = self
            .presets
            .get(key.config.as_str())
            .expect("resolve() vetted the config name");
        let spec = self
            .spec(&key.workload)
            .expect("resolve() vetted the workload name");
        let report = run_instrumented(cfg, &spec.scaled(self.scale));
        if let Some(store) = &self.store {
            store.put(key.fingerprint, spec.name, &report);
        }
        self.rendered_put(key.fingerprint, render_report(&report))
    }

    fn all_workloads(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Memo;

    #[test]
    fn resolve_rejects_unknown_names_with_suggestions() {
        let backend = MemoBackend::new(0.1, None);
        let err = backend.resolve("nope", "Stream").unwrap_err();
        assert!(err.contains("unknown config") && err.contains("baseline"));
        let err = backend.resolve("baseline", "nope").unwrap_err();
        assert!(err.contains("unknown workload"));
    }

    #[test]
    fn fingerprints_match_the_memo_store_keying() {
        // The whole warm-start story rests on this: a pair served today
        // must be the record a direct harness run wrote yesterday.
        let backend = MemoBackend::new(0.25, None);
        let key = backend.resolve("baseline", "Stream").unwrap();
        let cfg = SystemConfig::baseline_mcm();
        let spec = suite::by_name("Stream").unwrap();
        assert_eq!(key.fingerprint, pair_fingerprint(0.25, &cfg, &spec));
    }

    #[test]
    fn run_renders_exactly_what_a_direct_memo_run_produces() {
        let scale = 0.05;
        let backend = MemoBackend::new(scale, None);
        let key = backend.resolve("baseline", "Stream").unwrap();
        let served = backend.run(&key);
        let direct = Memo::new(scale).run(
            &SystemConfig::baseline_mcm(),
            &suite::by_name("Stream").unwrap(),
        );
        assert_eq!(served, render_report(&direct), "byte-identical reports");
        // And the second read is a rendered-cache hit with the same
        // bytes.
        assert_eq!(backend.lookup(&key).as_deref(), Some(served.as_str()));
    }
}

//! Deterministic disk- and task-level fault injection for the
//! crash-safety test suites.
//!
//! The runtime fault plans in the crate root perturb the *simulated*
//! machine. This module instead perturbs the *harness* — the layer the
//! persistent result store and the supervised executor defend:
//!
//! * [`DiskFaultInjector`] — seeded file corruption (torn-tail
//!   truncation, single-bit flips) driven by the simulator's own
//!   [`Xoshiro256`], so a corruption matrix replays byte-for-byte from
//!   its seed.
//! * [`scripted_task_panic`] — scripted worker panics (a
//!   [`TaskPanicScript`] names the target workload and how many
//!   attempts per pair fail before succeeding), the deterministic
//!   stand-in for a crashing simulation that the supervised executor
//!   retries and quarantines.

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

use mcm_engine::rng::Xoshiro256;

/// Seeded, replayable corruption of on-disk files. Every decision is a
/// pure function of the constructor seed and the call sequence, so a
/// test that fails can be re-run bit-identically from its seed alone.
#[derive(Debug)]
pub struct DiskFaultInjector {
    rng: Xoshiro256,
}

impl DiskFaultInjector {
    /// Creates an injector whose decisions derive from `seed`.
    pub fn new(seed: u64) -> DiskFaultInjector {
        DiskFaultInjector {
            rng: Xoshiro256::new(seed),
        }
    }

    /// Truncates `path` to a seeded length in `[min_keep, len - 1]` —
    /// a torn tail, as left by power loss mid-append. Returns the new
    /// length.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or truncated.
    ///
    /// # Panics
    ///
    /// Panics when the file is not longer than `min_keep` — there would
    /// be nothing to tear, and the test asking for it is broken.
    pub fn truncate_tail(&mut self, path: &Path, min_keep: usize) -> io::Result<u64> {
        let len = std::fs::metadata(path)?.len();
        assert!(
            len > min_keep as u64,
            "cannot tear {}: {len} bytes <= min_keep {min_keep}",
            path.display()
        );
        let keep = min_keep as u64 + self.rng.next_range(len - min_keep as u64);
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(keep)?;
        f.sync_all()?;
        Ok(keep)
    }

    /// Flips one seeded bit of one seeded byte inside `offsets` (a
    /// byte-offset range of the file). Returns `(offset, mask)` so the
    /// test can assert on — or undo — the exact damage.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or written.
    ///
    /// # Panics
    ///
    /// Panics when `offsets` is empty or reaches past the end of the
    /// file.
    pub fn flip_bit(&mut self, path: &Path, offsets: Range<usize>) -> io::Result<(usize, u8)> {
        let mut bytes = std::fs::read(path)?;
        assert!(
            !offsets.is_empty() && offsets.end <= bytes.len(),
            "bad flip range {offsets:?} for {} ({} bytes)",
            path.display(),
            bytes.len()
        );
        let offset =
            offsets.start + self.rng.next_range((offsets.end - offsets.start) as u64) as usize;
        let mask = 1u8 << self.rng.next_range(8);
        bytes[offset] ^= mask;
        std::fs::write(path, &bytes)?;
        Ok((offset, mask))
    }
}

/// A scripted worker fault: simulating `workload` panics on its first
/// `attempts` attempts per `(config, workload)` pair, then succeeds.
///
/// The script carries its own attempt counts. Clones share them, so the
/// workers of one run spend one budget; a script built with
/// [`TaskPanicScript::new`] starts with its full budget, whatever other
/// scripts in the process have fired. Equality compares the target and
/// the budget, not the counts.
#[derive(Debug, Clone)]
pub struct TaskPanicScript {
    /// The workload whose simulations panic (exact name match).
    pub workload: String,
    /// Panicking attempts per pair; `u64::MAX` panics on every one.
    pub attempts: u64,
    /// Scripted panics thrown so far per `(config, workload)` pair. The
    /// supervised executor retries on the same worker, so the counts
    /// sequence identically at any job count.
    fired: Arc<Mutex<HashMap<(String, String), u64>>>,
}

impl TaskPanicScript {
    /// A script that panics on the first `attempts` attempts of every
    /// pair running `workload`.
    pub fn new(workload: impl Into<String>, attempts: u64) -> TaskPanicScript {
        TaskPanicScript {
            workload: workload.into(),
            attempts,
            fired: Arc::default(),
        }
    }
}

impl PartialEq for TaskPanicScript {
    fn eq(&self, other: &Self) -> bool {
        (&self.workload, self.attempts) == (&other.workload, other.attempts)
    }
}

impl Eq for TaskPanicScript {}

/// Fires `script` for one simulation attempt of `(config, workload)`.
/// With a budget of 1 and one supervised retry, a sweep completes with
/// byte-identical output plus a retry notice — the tier-1 self-healing
/// smoke. Harness runners call this at the top of every simulation.
///
/// # Panics
///
/// Panics (that is the point) for the scripted pair while its attempt
/// budget lasts, naming the pair.
pub fn scripted_task_panic(script: &TaskPanicScript, config: &str, workload: &str) {
    if workload != script.workload {
        return;
    }
    let mut counts = script.fired.lock().expect("attempt counter poisoned");
    let n = counts
        .entry((config.to_string(), workload.to_string()))
        .or_insert(0);
    if *n < script.attempts {
        *n += 1;
        let attempt = *n;
        drop(counts);
        panic!(
            "scripted fault (MCM_FAULT_TASK_PANIC): ({config:?}, {workload:?}) attempt {attempt}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(tag: &str, content: &[u8]) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcm-inject-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn truncation_is_seeded_and_bounded() {
        let content = vec![7u8; 100];
        let a = temp_file("trunc-a", &content);
        let b = temp_file("trunc-b", &content);
        let la = DiskFaultInjector::new(42).truncate_tail(&a, 10).unwrap();
        let lb = DiskFaultInjector::new(42).truncate_tail(&b, 10).unwrap();
        assert_eq!(la, lb, "same seed, same tear");
        assert!((10..100).contains(&la));
        assert_eq!(std::fs::metadata(&a).unwrap().len(), la);
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn bit_flip_is_seeded_and_in_range() {
        let content: Vec<u8> = (0..64).collect();
        let a = temp_file("flip-a", &content);
        let b = temp_file("flip-b", &content);
        let (off_a, mask_a) = DiskFaultInjector::new(7).flip_bit(&a, 16..32).unwrap();
        let (off_b, mask_b) = DiskFaultInjector::new(7).flip_bit(&b, 16..32).unwrap();
        assert_eq!((off_a, mask_a), (off_b, mask_b));
        assert!((16..32).contains(&off_a));
        assert_eq!(mask_a.count_ones(), 1);
        let damaged = std::fs::read(&a).unwrap();
        assert_eq!(damaged[off_a], content[off_a] ^ mask_a);
        // Exactly one byte differs.
        let diffs = damaged.iter().zip(&content).filter(|(x, y)| x != y).count();
        assert_eq!(diffs, 1);
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn different_seeds_diverge() {
        let content = vec![0u8; 4096];
        let a = temp_file("seed-a", &content);
        let b = temp_file("seed-b", &content);
        let fa = DiskFaultInjector::new(1).flip_bit(&a, 0..4096).unwrap();
        let fb = DiskFaultInjector::new(2).flip_bit(&b, 0..4096).unwrap();
        assert_ne!(fa, fb, "distinct seeds must corrupt differently");
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn scripted_panic_fires_its_budget_per_pair_then_is_inert() {
        let script = TaskPanicScript::new("CFD", 2);
        let fires = |script: &TaskPanicScript, config: &str, workload: &str| {
            std::panic::catch_unwind(|| scripted_task_panic(script, config, workload)).is_err()
        };
        for config in ["a", "b"] {
            assert!(
                !fires(&script, config, "Stream"),
                "other workloads never fire"
            );
            assert!(fires(&script, config, "CFD") && fires(&script, config, "CFD"));
            assert!(
                !fires(&script, config, "CFD"),
                "{config}: the budget is spent"
            );
        }
        // A clone shares the spent budget; a script built anew has its own.
        assert!(!fires(&script.clone(), "a", "CFD"));
        let fresh = TaskPanicScript::new("CFD", 2);
        assert_eq!(fresh, script, "equality ignores the counts");
        assert!(fires(&fresh, "a", "CFD"));
    }
}

//! The run context: the fourteen `MCM_*` knobs that shape a harness
//! run, parsed once in a binary's `main` into one [`RunEnv`] and passed
//! down from there. Library code reads no environment, so a cache key,
//! a fault plan or a sink depends only on the value it is handed.
//! Parsing is loud: a non-Unicode, unparsable or out-of-range value
//! aborts the run naming the knob, even when its feature is off. Path
//! knobs take any bytes. The README's knob table lists every knob.

use std::ffi::{OsStr, OsString};
use std::path::PathBuf;

use mcm_fault::inject::TaskPanicScript;
use mcm_fault::FaultConfig;

/// The knobs of one harness run; each field names its knob.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnv {
    /// `MCM_SCALE`: multiplies per-warp instruction counts.
    pub scale: f64,
    /// `MCM_JOBS`: grid workers; 1 runs a grid in the caller's thread.
    pub jobs: usize,
    /// `MCM_SUPERVISED`: retry, then quarantine, a panicking pair.
    pub supervised: bool,
    /// `MCM_RETRIES`: re-attempts per pair under supervision.
    pub retries: u32,
    /// `MCM_FAULT_RATE`: per-site fault probability.
    pub fault_rate: f64,
    /// `MCM_FAULT_SEED`: the fault schedule's seed, in every store key.
    pub fault_seed: u64,
    /// `MCM_STORE`: the persistent result store's directory.
    pub store: Option<PathBuf>,
    /// `MCM_STORE_CRASH_AFTER`: commit `n` (0-based) tears and aborts.
    pub store_crash_after: Option<u64>,
    /// `MCM_TRACE`: directory for a Chrome trace per simulated pair.
    pub trace: Option<PathBuf>,
    /// `MCM_METRICS`: directory for a metrics CSV per simulated pair.
    pub metrics: Option<PathBuf>,
    /// `MCM_METRICS_BUCKET`: the metrics CSV's bucket width in cycles.
    pub metrics_bucket: u64,
    /// `MCM_FAULT_TASK_PANIC` and `MCM_FAULT_TASK_PANIC_ATTEMPTS`.
    /// Clones of this context share the script's attempt budget.
    pub task_panic: Option<TaskPanicScript>,
    /// `MCM_TELEMETRY`: where the telemetry snapshot goes at exit.
    pub telemetry: Option<PathBuf>,
}

impl RunEnv {
    /// Parses every run knob from the process environment. Each
    /// binary's `main` calls this once.
    ///
    /// # Panics
    ///
    /// Panics, naming the knob, on the first value that is non-Unicode
    /// (path knobs excepted), unparsable or out of range.
    pub fn from_env() -> RunEnv {
        RunEnv::from_lookup(|var| std::env::var_os(var))
    }

    /// [`RunEnv::from_env`] over `lookup`, which maps a knob's name to
    /// its raw value (`None`: unset).
    fn from_lookup(lookup: impl Fn(&str) -> Option<OsString>) -> RunEnv {
        let path = |var| lookup(var).map(PathBuf::from);
        let scale: f64 = parsed(&lookup, "MCM_SCALE").unwrap_or(0.5);
        assert!(
            scale.is_finite() && scale > 0.0,
            "MCM_SCALE must be finite and > 0, got {scale}"
        );
        let jobs = parsed(&lookup, "MCM_JOBS").unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        assert!(jobs >= 1, "MCM_JOBS must be >= 1, got {jobs}");
        let supervised = lookup("MCM_SUPERVISED").is_some_and(|raw| {
            let raw = unicode("MCM_SUPERVISED", &raw);
            match raw.trim() {
                "1" => true,
                "0" => false,
                _ => panic!("MCM_SUPERVISED must be 0 or 1, got {raw:?}"),
            }
        });
        let fault_rate: f64 = parsed(&lookup, "MCM_FAULT_RATE").unwrap_or(0.0);
        assert!(
            (0.0..=1.0).contains(&fault_rate),
            "MCM_FAULT_RATE must be in [0, 1], got {fault_rate}"
        );
        let metrics_bucket =
            parsed(&lookup, "MCM_METRICS_BUCKET").unwrap_or(mcm_probe::metrics::DEFAULT_BUCKET);
        assert!(
            metrics_bucket > 0,
            "MCM_METRICS_BUCKET must be > 0, got {metrics_bucket}"
        );
        // The attempt budget is checked even when no target is set.
        let attempts = parsed(&lookup, "MCM_FAULT_TASK_PANIC_ATTEMPTS").unwrap_or(u64::MAX);
        let target = lookup("MCM_FAULT_TASK_PANIC")
            .map(|raw| unicode("MCM_FAULT_TASK_PANIC", &raw).to_string());
        RunEnv {
            scale,
            jobs,
            supervised,
            retries: parsed(&lookup, "MCM_RETRIES").unwrap_or(1),
            fault_rate,
            fault_seed: parsed(&lookup, "MCM_FAULT_SEED").unwrap_or(FaultConfig::default().seed),
            store: path("MCM_STORE"),
            store_crash_after: parsed(&lookup, "MCM_STORE_CRASH_AFTER"),
            trace: path("MCM_TRACE"),
            metrics: path("MCM_METRICS"),
            metrics_bucket,
            task_panic: target.map(|workload| TaskPanicScript::new(workload, attempts)),
            telemetry: path("MCM_TELEMETRY"),
        }
    }

    /// The run context of an environment with only `MCM_JOBS=1` set, at
    /// `scale`: no faults, store, sinks, script or crash drill. Building
    /// one probes nothing on the host.
    pub fn at_scale(scale: f64) -> RunEnv {
        let one_job = |var: &str| (var == "MCM_JOBS").then(|| OsString::from("1"));
        RunEnv {
            scale,
            ..RunEnv::from_lookup(one_job)
        }
    }
}

/// Knob `var` from `lookup`, parsed; `None` when unset. A typo in a
/// knob aborts the run, naming the knob and the value.
fn parsed<T: std::str::FromStr>(
    lookup: &impl Fn(&str) -> Option<OsString>,
    var: &str,
) -> Option<T> {
    lookup(var).map(|raw| parse_checked(var, unicode(var, &raw)))
}

/// `raw`, the value of knob `var`, as Unicode. `std::env::var(..).ok()`
/// would read a non-Unicode value as unset and select the default.
fn unicode<'a>(var: &str, raw: &'a OsStr) -> &'a str {
    raw.to_str().unwrap_or_else(|| {
        panic!("{var} is set to non-Unicode bytes ({raw:?}); refusing to guess a default")
    })
}

/// Parses `raw`, the value of knob `var`, or panics naming both.
fn parse_checked<T: std::str::FromStr>(var: &str, raw: &str) -> T {
    raw.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{var} must be a valid {}, got {raw:?}",
            std::any::type_name::<T>()
        )
    })
}

/// Reads and parses environment variable `var`, as loudly as
/// [`RunEnv`]; `None` when unset. The serve binaries read their
/// `MCM_SERVE_*` knobs through this.
///
/// # Panics
///
/// Panics, naming the variable and the value, when the value is set but
/// non-Unicode or unparsable.
pub fn env_parsed<T: std::str::FromStr>(var: &str) -> Option<T> {
    parsed(&|var| std::env::var_os(var), var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Parses a `RunEnv` with only the knobs in `set` set.
    fn env_of(set: &[(&str, &OsStr)]) -> RunEnv {
        RunEnv::from_lookup(|var| set.iter().find(|(k, _)| *k == var).map(|(_, v)| v.into()))
    }

    /// The message of the panic `parse` raises.
    fn panic_of<T>(parse: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
        mcm_exec::pool::panic_message(catch_unwind(parse).err().expect("must panic").as_ref())
    }

    /// Regression: `std::env::var(..).ok()` conflated "unset" with
    /// "set to non-Unicode bytes", so a knob holding invalid UTF-8
    /// silently fell back to its default instead of aborting.
    #[test]
    #[cfg(unix)]
    fn env_values_parse_and_bad_values_panic_naming_the_variable() {
        use std::os::unix::ffi::OsStrExt;
        let of = |raw: &[u8]| OsStr::from_bytes(raw).to_os_string();
        assert_eq!(parsed::<u32>(&|_| None, "MCM_X"), None);
        assert_eq!(parsed::<u32>(&|_| Some(of(b" 42 ")), "MCM_X"), Some(42));
        assert_eq!(parse_checked::<f64>("MCM_SCALE", "0.25"), 0.25);
        assert_eq!(parse_checked::<u64>("MCM_FAULT_SEED", " 42 "), 42);
        let msg = panic_of(|| parsed::<u32>(&|_| Some(of(b"not-a-number")), "MCM_X"));
        assert!(msg.contains("MCM_X must be a valid"), "{msg}");
        let msg = panic_of(|| parsed::<f64>(&|_| Some(of(b"0.\xff5")), "MCM_X"));
        assert!(msg.contains("MCM_X is set to non-Unicode bytes"), "{msg}");
        let msg = panic_of(|| parse_checked::<f64>("MCM_SCALE", "fast"));
        assert!(msg.contains("MCM_SCALE must be a valid"), "{msg}");
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        let env = RunEnv::from_lookup(|_| None);
        // No fault injection, a reproducible seed, no supervision.
        assert_eq!(env.fault_rate, 0.0);
        assert_eq!(env.fault_seed, FaultConfig::default().seed);
        assert!(!env.supervised);
        assert_eq!(env.retries, 1);
        // MCM_JOBS defaults to the available parallelism, at least 1.
        assert!(env.jobs >= 1);
        assert_eq!((env.scale, env.metrics_bucket), (0.5, 1024));
        assert!(env.store.is_none() && env.store_crash_after.is_none() && env.task_panic.is_none());
        assert!(env.trace.is_none() && env.metrics.is_none() && env.telemetry.is_none());
        assert_eq!(RunEnv { jobs: 1, ..env }, RunEnv::at_scale(0.5));
    }

    #[test]
    fn set_knobs_parse_into_their_fields() {
        let set = [
            ("MCM_SCALE", "0.01"),
            ("MCM_JOBS", " 3 "),
            ("MCM_SUPERVISED", "1"),
            ("MCM_RETRIES", "0"),
            ("MCM_FAULT_RATE", "0.02"),
            ("MCM_FAULT_SEED", "42"),
            ("MCM_STORE_CRASH_AFTER", "2"),
            ("MCM_METRICS_BUCKET", "64"),
            ("MCM_FAULT_TASK_PANIC", "CFD"),
            ("MCM_FAULT_TASK_PANIC_ATTEMPTS", "1"),
        ];
        let env = env_of(&set.map(|(k, v)| (k, OsStr::new(v))));
        let script = TaskPanicScript::new("CFD", 1);
        assert_eq!(
            (env.scale, env.jobs, env.supervised, env.retries),
            (0.01, 3, true, 0)
        );
        assert_eq!(
            (env.fault_rate, env.fault_seed, env.store_crash_after),
            (0.02, 42, Some(2))
        );
        assert_eq!((env.metrics_bucket, env.task_panic), (64, Some(script)));
    }

    /// Every parsed knob panics naming itself on an unparsable, an
    /// out-of-range or a non-Unicode value, whether or not its feature
    /// is on; every path knob keeps non-Unicode bytes.
    #[test]
    #[cfg(unix)]
    fn bad_values_panic_naming_the_knob_and_paths_take_any_bytes() {
        use std::os::unix::ffi::OsStrExt;
        let non_unicode = OsStr::from_bytes(b"0.\xff5");
        for (knob, bad) in [
            ("MCM_SCALE", &["fast", "0", "-1", "inf", "NaN"][..]),
            ("MCM_JOBS", &["many", "0", "-2"]),
            ("MCM_SUPERVISED", &["yes", "2", "+1", "01", "00"]),
            ("MCM_RETRIES", &["-1", "once"]),
            ("MCM_FAULT_RATE", &["high", "1.5", "-0.1", "NaN"]),
            ("MCM_FAULT_SEED", &["-1", "0x2a"]),
            ("MCM_STORE_CRASH_AFTER", &["-1", "soon"]),
            ("MCM_METRICS_BUCKET", &["0", "wide"]),
            ("MCM_FAULT_TASK_PANIC", &[]),
            ("MCM_FAULT_TASK_PANIC_ATTEMPTS", &["-1", "all"]),
        ] {
            for value in bad.iter().map(OsStr::new).chain([non_unicode]) {
                let msg = panic_of(|| env_of(&[(knob, value)]));
                assert!(msg.contains(knob), "{knob}={value:?}: {msg}");
            }
        }
        let paths = ["MCM_STORE", "MCM_TRACE", "MCM_METRICS", "MCM_TELEMETRY"];
        let env = env_of(&paths.map(|knob| (knob, non_unicode)));
        let path = Some(PathBuf::from(non_unicode));
        assert_eq!(
            [env.store, env.trace, env.metrics, env.telemetry],
            [(); 4].map(|()| path.clone())
        );
    }
}

//! The seeded property runner.
//!
//! [`check`] generates deterministic cases from the workspace RNG,
//! executes the property under `catch_unwind` so plain `assert!`
//! macros work inside property bodies, and — on failure — greedily
//! shrinks the counterexample before panicking with a report that
//! includes the *case seed*. Re-running with that seed exported as
//! `MCM_PROP_SEED` replays exactly the failing case:
//!
//! ```text
//! MCM_PROP_SEED=0x1f3a... cargo test ring_hops_properties
//! ```
//!
//! Case counts default to [`DEFAULT_CASES`] and can be raised with
//! `MCM_PROP_CASES` for soak runs.

use std::ffi::OsStr;
use std::panic::{self, AssertUnwindSafe};

use mcm_engine::rng::{SplitMix64, Xoshiro256};

use crate::gen::Gen;

/// Cases per property when `MCM_PROP_CASES` is unset.
pub const DEFAULT_CASES: u32 = 64;

/// Panic payload that marks a case as discarded rather than failed
/// (emitted by the [`assume!`](crate::assume) macro).
#[derive(Debug, Clone, Copy)]
pub struct Discard;

/// Runner knobs; [`Config::default`] reads the environment and panics,
/// naming the knob, on a malformed `MCM_PROP_CASES`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of non-discarded cases to execute.
    pub cases: u32,
    /// Cap on shrink attempts after a failure.
    pub max_shrink_steps: u32,
    /// Base seed the per-case seed stream derives from.
    pub base_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: cases_from(std::env::var_os("MCM_PROP_CASES").as_deref()),
            max_shrink_steps: 512,
            base_seed: 0x6D63_6D5F_7465_7374, // "mcm_test"
        }
    }
}

/// Runs `prop` against [`Config::default`]-many generated cases.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when a case fails, with
/// the shrunk counterexample and its reproducing seed in the message.
pub fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    check_with(&Config::default(), name, gen, prop);
}

/// [`check`] with explicit knobs.
pub fn check_with<G, P>(cfg: &Config, name: &str, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    if let Some(seed) = seed_from(std::env::var_os("MCM_PROP_SEED").as_deref()) {
        run_seed(name, gen, &prop, seed, cfg.max_shrink_steps);
        return;
    }
    // A per-property seed stream: properties must not share case
    // streams, or every suite would explore correlated inputs.
    let mut master = SplitMix64::new(cfg.base_seed ^ fnv1a(name.as_bytes()));
    let mut executed = 0u32;
    let mut discards = 0u32;
    let max_discards = cfg.cases.saturating_mul(20).max(1000);
    while executed < cfg.cases {
        let case_seed = master.next_u64();
        match run_case(gen, &prop, case_seed) {
            CaseOutcome::Pass => executed += 1,
            CaseOutcome::Discard => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property '{name}': {discards} cases discarded before {} passed; \
                     loosen its assume! conditions or tighten its generators",
                    executed
                );
            }
            CaseOutcome::Fail(value, msg) => {
                report_failure(
                    cfg.max_shrink_steps,
                    name,
                    gen,
                    &prop,
                    value,
                    msg,
                    case_seed,
                );
            }
        }
    }
}

/// Replays exactly one case seed (the `MCM_PROP_SEED` path).
fn run_seed<G, P>(name: &str, gen: &G, prop: &P, seed: u64, max_shrink_steps: u32)
where
    G: Gen,
    P: Fn(&G::Value),
{
    match run_case(gen, prop, seed) {
        CaseOutcome::Pass => eprintln!("property '{name}': seed {seed:#x} passes"),
        CaseOutcome::Discard => eprintln!("property '{name}': seed {seed:#x} is discarded"),
        CaseOutcome::Fail(value, msg) => {
            report_failure(max_shrink_steps, name, gen, prop, value, msg, seed);
        }
    }
}

enum CaseOutcome<V> {
    Pass,
    Discard,
    Fail(V, String),
}

fn run_case<G, P>(gen: &G, prop: &P, case_seed: u64) -> CaseOutcome<G::Value>
where
    G: Gen,
    P: Fn(&G::Value),
{
    let mut rng = Xoshiro256::new(case_seed);
    let value = gen.generate(&mut rng);
    match execute(prop, &value) {
        Execution::Pass => CaseOutcome::Pass,
        Execution::Discard => CaseOutcome::Discard,
        Execution::Fail(msg) => CaseOutcome::Fail(value, msg),
    }
}

enum Execution {
    Pass,
    Discard,
    Fail(String),
}

fn execute<V, P: Fn(&V)>(prop: &P, value: &V) -> Execution {
    match panic::catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => Execution::Pass,
        Err(payload) => {
            if payload.is::<Discard>() {
                Execution::Discard
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Execution::Fail((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Execution::Fail(s.clone())
            } else {
                // Mirrors `mcm_exec::pool::panic_message` (testkit sits
                // below exec in the dependency order, so it cannot call
                // it): keep the payload's type and value instead of
                // flattening the cause to a generic placeholder.
                macro_rules! try_scalar {
                    ($($ty:ty),+) => {
                        $(if let Some(v) = payload.downcast_ref::<$ty>() {
                            return Execution::Fail(
                                format!("<{} panic payload: {v:?}>", stringify!($ty)),
                            );
                        })+
                    };
                }
                try_scalar!(i32, u32, i64, u64, usize, isize, bool, char);
                // `as_ref` first: `.type_id()` straight on the Box
                // would name the Box, not the payload.
                Execution::Fail(format!(
                    "<opaque panic payload: {:?}>",
                    payload.as_ref().type_id()
                ))
            }
        }
    }
}

/// Greedily shrinks a failing value, then panics with the report.
fn report_failure<G, P>(
    max_shrink_steps: u32,
    name: &str,
    gen: &G,
    prop: &P,
    value: G::Value,
    msg: String,
    case_seed: u64,
) -> !
where
    G: Gen,
    P: Fn(&G::Value),
{
    let mut current = value;
    let mut current_msg = msg;
    let mut budget = max_shrink_steps;
    let mut steps = 0u32;
    'outer: loop {
        for cand in gen.shrink(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Execution::Fail(m) = execute(prop, &cand) {
                current = cand;
                current_msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    panic!(
        "property '{name}' falsified\n\
         counterexample (after {steps} shrink steps): {current:?}\n\
         failure: {current_msg}\n\
         reproduce with: MCM_PROP_SEED={case_seed:#x} cargo test {name}"
    );
}

/// The raw value of knob `var` as text; `None` when unset.
///
/// # Panics
///
/// Panics, naming the knob, when the value is not valid Unicode rather
/// than treating it as unset.
fn knob<'a>(var: &str, raw: Option<&'a OsStr>) -> Option<&'a str> {
    let raw = raw?;
    Some(raw.to_str().unwrap_or_else(|| {
        panic!("{var} is set to non-Unicode bytes ({raw:?}); refusing to guess a default")
    }))
}

/// The case count from the raw value of `MCM_PROP_CASES`;
/// [`DEFAULT_CASES`] when unset. Panics, naming the knob, on a value
/// that is not a `u32`.
fn cases_from(raw: Option<&OsStr>) -> u32 {
    knob("MCM_PROP_CASES", raw).map_or(DEFAULT_CASES, |raw| {
        raw.trim().parse().unwrap_or_else(|_| {
            panic!("MCM_PROP_CASES must be a non-negative integer, got {raw:?}")
        })
    })
}

/// The replay seed from the raw value of `MCM_PROP_SEED`; `None` when
/// unset. Panics, naming the knob, on a value that is not a decimal or
/// `0x`-hex `u64`.
fn seed_from(raw: Option<&OsStr>) -> Option<u64> {
    let raw = knob("MCM_PROP_SEED", raw)?.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("MCM_PROP_SEED must be a decimal or 0x-hex u64, got '{raw}'"),
    }
}

/// FNV-1a over bytes: a tiny stable hash for per-property seed streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Discards the current case unless `cond` holds — the moral
/// equivalent of `prop_assume!`. Discarded cases are regenerated and
/// do not count toward the case budget.
#[macro_export]
macro_rules! assume {
    ($cond:expr) => {
        if !$cond {
            ::std::panic::panic_any($crate::runner::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{u64s, vecs};

    #[test]
    fn passing_property_runs_all_cases() {
        let config = Config {
            cases: 50,
            ..Config::default()
        };
        check_with(&config, "tautology", &u64s(0..100), |&v| assert!(v < 100));
    }

    #[test]
    fn failing_property_reports_a_reproducing_seed_and_shrinks() {
        let gen = vecs(u64s(0..1000), 0..20);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            check("sums_stay_small", &gen, |v: &Vec<u64>| {
                assert!(v.iter().sum::<u64>() < 500, "sum too big");
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have been falsified"),
            Err(payload) => *payload.downcast::<String>().expect("string panic"),
        };
        assert!(msg.contains("falsified"), "{msg}");
        assert!(msg.contains("MCM_PROP_SEED=0x"), "{msg}");
        // The shrunk counterexample should still violate the property
        // but be near-minimal: greedy shrinking on a sum bound lands
        // close to the 500 threshold, far below the ~10k worst case.
        let value_line = msg.lines().find(|l| l.contains("counterexample")).unwrap();
        assert!(value_line.contains('['), "{value_line}");

        // The printed seed reproduces the same failure end to end.
        let seed = msg
            .split("MCM_PROP_SEED=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .expect("seed in message");
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).unwrap();
        let replay = panic::catch_unwind(AssertUnwindSafe(|| {
            run_seed(
                "sums_stay_small",
                &gen,
                &|v: &Vec<u64>| {
                    assert!(v.iter().sum::<u64>() < 500, "sum too big");
                },
                seed,
                512,
            );
        }));
        let replay_msg = match replay {
            Ok(()) => panic!("replayed seed should fail again"),
            Err(payload) => *payload.downcast::<String>().expect("string panic"),
        };
        assert!(replay_msg.contains("falsified"), "{replay_msg}");
    }

    #[test]
    fn shrinking_minimizes_simple_counterexamples() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            check("all_below_700", &u64s(0..10_000), |&v| assert!(v < 700));
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Greedy halving toward the low bound must land exactly on the
        // boundary counterexample.
        assert!(
            msg.contains("counterexample (after") && msg.contains(": 700"),
            "expected fully shrunk value 700 in: {msg}"
        );
    }

    #[test]
    fn discarded_cases_do_not_count_and_excess_discards_abort() {
        let hits = std::cell::Cell::new(0u32);
        let config = Config {
            cases: 10,
            ..Config::default()
        };
        check_with(&config, "assume_filters", &u64s(0..100), |&v| {
            crate::assume!(v % 2 == 0);
            hits.set(hits.get() + 1);
            assert!(v % 2 == 0);
        });
        assert_eq!(hits.get(), 10, "every counted case survived the filter");

        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            check("assume_everything_away", &u64s(0..100), |&v| {
                crate::assume!(v > 100); // impossible
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("discarded"), "{msg}");
    }

    /// Regression: a property that fails via `panic_any` with a
    /// non-string payload must surface the payload's type and value in
    /// the report, not an anonymous placeholder.
    #[test]
    fn non_string_property_panics_keep_their_cause() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            check("typed_payload", &u64s(0..10), |&v| {
                if v < 10 {
                    panic::panic_any(v);
                }
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("<u64 panic payload:"),
            "typed payload missing from: {msg}"
        );
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"mcm"), fnv1a(b"mcm"));
    }

    #[test]
    fn knobs_parse_and_unset_defaults() {
        assert_eq!(cases_from(None), DEFAULT_CASES);
        assert_eq!(cases_from(Some(OsStr::new(" 200 "))), 200);
        assert_eq!(seed_from(None), None);
        assert_eq!(seed_from(Some(OsStr::new("0x1F"))), Some(0x1f));
        assert_eq!(seed_from(Some(OsStr::new("42"))), Some(42));
    }

    /// Regression: an unparsable case count used to fall back to
    /// [`DEFAULT_CASES`] silently.
    #[test]
    #[should_panic(expected = "MCM_PROP_CASES must be a non-negative integer")]
    fn unparsable_case_counts_panic() {
        cases_from(Some(OsStr::new("lots")));
    }

    /// Regression: a non-Unicode value read as unset, so the knob fell
    /// back to its default.
    #[test]
    #[cfg(unix)]
    #[should_panic(expected = "MCM_PROP_SEED is set to non-Unicode bytes")]
    fn non_unicode_seeds_panic() {
        use std::os::unix::ffi::OsStrExt;
        seed_from(Some(OsStr::from_bytes(b"0x\xff")));
    }
}

//! Smoke tests: every figure-harness binary runs to completion at a
//! tiny `MCM_SCALE`. These catch panics, broken CLI plumbing, and
//! accidental scale-insensitivity (a bin that ignores `MCM_SCALE`
//! makes this suite hang). Only `reproduce` asserts its numbers: one
//! digest pins the bytes of every exhibit it writes.
//!
//! Each binary runs in its own scratch directory so bins that write
//! `results/` (e.g. `reproduce`) never clobber the repo's checked-in
//! outputs.

use std::path::PathBuf;
use std::process::Command;

use mcm_engine::rng::StableHasher;
use mcm_telemetry::json::Json;

/// Tiny scale: big enough that every workload still has work to do,
/// small enough that the full sweep of a bin finishes in seconds.
const SMOKE_SCALE: &str = "0.01";

fn scratch_dir(bin: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcm-bin-smoke-{}-{bin}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_bin(bin: &str, exe: &str) {
    let dir = scratch_dir(bin);
    let out = Command::new(exe)
        .current_dir(&dir)
        .env("MCM_SCALE", SMOKE_SCALE)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    // `scorecard` exits 1 when a paper claim misses its acceptance
    // band — expected at smoke scale, where some effects don't have
    // enough work to amortize. Completing with a verdict is a pass
    // here; only crashes (panic = 101, signals = no code) fail.
    let ok = match out.status.code() {
        Some(0) => true,
        Some(1) => bin == "scorecard",
        _ => false,
    };
    assert!(
        ok,
        "{bin} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

macro_rules! bin_smoke {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                run_bin(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )*
    };
}

bin_smoke!(
    ablation_alloc_policy,
    ablation_gpm_count,
    ablation_page_size,
    ablation_scheduler,
    ablation_topology,
    efficiency,
    explore,
    fig02_scaling,
    fig04_link_sensitivity,
    fig06_l15_cache,
    fig07_l15_bandwidth,
    fig09_distributed_sched,
    fig10_ds_bandwidth,
    fig13_first_touch,
    fig14_ft_bandwidth,
    fig15_scurve,
    fig16_breakdown,
    fig17_multi_gpu,
    profile,
    resilience,
    scorecard,
    tables,
);

/// The digest of every exhibit `reproduce` writes at smoke scale: the
/// 22 files of `results/` in name order, each folded into one
/// [`StableHasher`] as its name, its length and its bytes. Tier-1 runs
/// this suite at `MCM_JOBS=1` and again at `4`, so the pin also holds
/// each exhibit's independence from the job count. A change that moves
/// a simulated result updates this pin the way it updates the golden
/// cycle counts.
const REPRODUCE_DIGEST: u64 = 0x7b33_bc73_d2e4_6293;

#[test]
fn reproduce_writes_the_pinned_exhibits() {
    let dir = scratch_dir("reproduce");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(&dir)
        .env("MCM_SCALE", SMOKE_SCALE)
        .output()
        .expect("spawn reproduce");
    assert!(
        out.status.success(),
        "reproduce failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("results"))
        .expect("read results/")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 22, "results/ holds {files:?}");
    let mut h = StableHasher::new();
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        h.write_str(&path.file_name().expect("file name").to_string_lossy());
        h.write_u64(bytes.len() as u64);
        h.write_bytes(&bytes);
    }
    assert_eq!(
        h.finish(),
        REPRODUCE_DIGEST,
        "exhibit bytes moved: digest {:#018x}",
        h.finish()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `mcm-exec` knob set to non-Unicode bytes aborts the sweep and
/// names the knob. `std::env::var` reports such a value as an error,
/// and the knobs used to read that as unset and run on their defaults.
#[test]
#[cfg(unix)]
fn non_unicode_exec_knobs_fail_loudly() {
    use std::os::unix::ffi::OsStrExt;
    let bad = std::ffi::OsStr::from_bytes(b"\xff");
    let dir = scratch_dir("non-unicode-knobs");
    for (knob, supervised) in [
        ("MCM_JOBS", "0"),
        ("MCM_SUPERVISED", "0"),
        // Only a supervised sweep reads its retry budget.
        ("MCM_RETRIES", "1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig09_distributed_sched"))
            .current_dir(&dir)
            .env("MCM_SCALE", SMOKE_SCALE)
            .env("MCM_SUPERVISED", supervised)
            .env(knob, bad)
            .output()
            .expect("spawn fig09_distributed_sched");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.contains(&format!("{knob} is set to non-Unicode")),
            "{knob}=\\xff must abort naming the knob; exited {:?}:\n{stderr}",
            out.status.code()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Structural well-formedness: balanced braces/brackets outside string
/// literals, with escape handling. Not a full parser, but enough to
/// catch truncated or mis-quoted output.
fn assert_well_formed_json(text: &str, what: &str) {
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "{what}: not a JSON object"
    );
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in trimmed.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "{what}: unbalanced closers");
                }
                _ => {}
            }
        }
    }
    assert!(!in_str, "{what}: unterminated string");
    assert_eq!(depth, 0, "{what}: unbalanced braces/brackets");
}

fn assert_well_formed_csv(text: &str, what: &str) {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_else(|| panic!("{what}: empty CSV"));
    assert_eq!(
        header, "bucket_start,metric,unit,value",
        "{what}: unexpected CSV header"
    );
    let cols = header.split(',').count();
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        assert_eq!(
            line.split(',').count(),
            cols,
            "{what}: ragged row {}: {line:?}",
            i + 2
        );
        let first = line.split(',').next().unwrap();
        assert!(
            first.parse::<u64>().is_ok(),
            "{what}: non-numeric bucket_start in row {}: {line:?}",
            i + 2
        );
        rows += 1;
    }
    assert!(rows > 0, "{what}: CSV has a header but no data rows");
}

/// The acceptance bar for the fault layer's determinism: two `resilience`
/// runs with the same `MCM_FAULT_SEED` (and scale) must write
/// byte-identical degradation-curve CSVs.
#[test]
fn resilience_csv_is_byte_identical_across_seeded_runs() {
    let exe = env!("CARGO_BIN_EXE_resilience");
    let mut csvs = Vec::new();
    for run in 0..2 {
        let dir = scratch_dir(&format!("resilience-determinism-{run}"));
        let out = Command::new(exe)
            .current_dir(&dir)
            .env("MCM_SCALE", SMOKE_SCALE)
            .env("MCM_FAULT_SEED", "42")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn resilience: {e}"));
        assert!(
            out.status.success(),
            "resilience run {run} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(dir.join("results/resilience.csv"))
            .expect("read results/resilience.csv");
        assert!(
            csv.lines().count() > 1,
            "resilience.csv has a header but no data rows"
        );
        csvs.push(csv);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        csvs[0], csvs[1],
        "same MCM_FAULT_SEED must reproduce the degradation CSV byte-for-byte"
    );
}

/// Multiplies the first `wall_ns_median` in a BENCH snapshot by 10 —
/// a synthetic 10x regression fixture for the comparator.
fn inflate_first_median(text: &str) -> String {
    let key = "\"wall_ns_median\":";
    let start = text.find(key).expect("snapshot has a median field") + key.len();
    let len = text[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number is delimited");
    let old: u64 = text[start..start + len]
        .parse()
        .expect("median is an integer");
    format!("{}{}{}", &text[..start], old * 10, &text[start + len..])
}

/// Adds an entry `text`'s snapshot lacks, as a later `perf` would.
fn add_entry(text: &str, name: &str) -> String {
    let key = "\"entries\":{";
    let at = text.find(key).expect("snapshot has an entries object") + key.len();
    format!(
        "{}\"{name}\":{{\"wall_ns_median\":7,\"wall_ns_min\":7,\"reps\":1}},{}",
        &text[..at],
        &text[at..]
    )
}

/// Every `perf` entry, in run order. Dropping or renaming one makes
/// every later `--compare` against an older snapshot fail on it.
const PERF_ENTRIES: [&str; 19] = [
    "micro.queue_hold256",
    "micro.queue_same_cycle_burst",
    "micro.warp_launch",
    "micro.mshr_churn",
    "micro.store_hit",
    "micro.analytic_point",
    "micro.machine_build.baseline",
    "micro.machine_build.l15-ds",
    "micro.kernel_flush",
    "macro.fig09_pair_base",
    "macro.fig09_pair_ds",
    "macro.optimized_stream",
    "macro.baseline_hotspot",
    "macro.baseline_dwt",
    "macro.monolithic256_cfd",
    "macro.multi_gpu_cfd",
    "micro.queue_hold256_far",
    "micro.queue_hold256_mixed",
    "micro.queue_burst_key_order",
];

/// Each `perf` macro entry's simulated cycles in smoke mode (scale
/// 0.01). The goldens pin only `baseline_mcm` and `optimized_mcm`, so
/// these are the gate's exact pins on `mcm_l15_ds`,
/// `hypothetical_monolithic_256` and `multi_gpu_baseline`.
const PERF_SMOKE_CYCLES: [(&str, u64); 7] = [
    ("macro.fig09_pair_base", 4628),
    ("macro.fig09_pair_ds", 6278),
    ("macro.optimized_stream", 1305),
    ("macro.baseline_hotspot", 1234),
    ("macro.baseline_dwt", 2169),
    ("macro.monolithic256_cfd", 1688),
    ("macro.multi_gpu_cfd", 3541),
];

/// The `perf` bin's `BENCH_*.json` snapshot is machine-readable: it
/// parses with the in-repo JSON reader, carries the schema tag, lists
/// exactly the pinned entries, and every duration is a positive integer
/// (never NaN, never negative — `Json::as_u64` rejects both).
#[test]
fn perf_snapshot_is_well_formed_and_comparator_catches_regressions() {
    let exe = env!("CARGO_BIN_EXE_perf");
    let dir = scratch_dir("perf");
    let out_path = dir.join("BENCH_smoke.json");
    let out = Command::new(exe)
        .args(["--smoke", "--label", "smoke", "--out"])
        .arg(&out_path)
        .current_dir(&dir)
        .output()
        .expect("spawn perf");
    assert!(
        out.status.success(),
        "perf --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&out_path).expect("read BENCH snapshot");
    let doc = Json::parse(&text).expect("BENCH snapshot must parse with the in-repo reader");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mcm-bench-v1")
    );
    assert_eq!(doc.get("label").and_then(Json::as_str), Some("smoke"));
    let entries = doc
        .get("entries")
        .and_then(Json::as_obj)
        .expect("entries object");
    let mut pinned = PERF_ENTRIES;
    pinned.sort_unstable();
    assert!(
        entries.keys().map(String::as_str).eq(pinned),
        "snapshot entries {:?} differ from the pinned suite {pinned:?}",
        entries.keys().collect::<Vec<_>>()
    );
    for (name, cycles) in PERF_SMOKE_CYCLES {
        assert_eq!(
            entries[name].get("cycles").and_then(Json::as_u64),
            Some(cycles),
            "{name}: smoke-mode cycles"
        );
    }
    for (name, entry) in entries {
        for field in ["wall_ns_median", "wall_ns_min", "reps"] {
            let v = entry
                .get(field)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name}.{field} missing, negative, or not an integer"));
            assert!(v >= 1, "{name}.{field} must be >= 1, got {v}");
        }
    }
    // The embedded telemetry delta is itself a schema'd snapshot.
    assert_eq!(
        doc.get("telemetry")
            .and_then(|t| t.get("schema"))
            .and_then(Json::as_str),
        Some("mcm-telemetry-v1")
    );

    // Comparator: self-diff is clean, a synthetic 10x regression on one
    // entry exits nonzero.
    let self_diff = Command::new(exe)
        .arg("--compare")
        .args([&out_path, &out_path])
        .output()
        .expect("spawn perf --compare");
    assert!(
        self_diff.status.success(),
        "self-compare must be zero-diff:\n{}",
        String::from_utf8_lossy(&self_diff.stdout)
    );

    let doctored_path = dir.join("BENCH_doctored.json");
    std::fs::write(&doctored_path, inflate_first_median(&text)).expect("write fixture");
    let regressed = Command::new(exe)
        .arg("--compare")
        .args([&out_path, &doctored_path])
        .output()
        .expect("spawn perf --compare");
    assert_eq!(
        regressed.status.code(),
        Some(1),
        "a 10x median inflation must be flagged:\n{}",
        String::from_utf8_lossy(&regressed.stdout)
    );
    let report = String::from_utf8_lossy(&regressed.stdout);
    assert!(
        report.contains("REGRESSION"),
        "comparator output names the regression:\n{report}"
    );

    // An entry only the new snapshot has is listed, and cannot fail.
    let grown_path = dir.join("BENCH_grown.json");
    std::fs::write(&grown_path, add_entry(&text, "micro.added_later")).expect("write fixture");
    let grown = Command::new(exe)
        .arg("--compare")
        .args([&out_path, &grown_path])
        .output()
        .expect("spawn perf --compare");
    let report = String::from_utf8_lossy(&grown.stdout);
    assert!(
        grown.status.success(),
        "a new entry must not fail the comparison:\n{report}"
    );
    assert!(
        report
            .lines()
            .any(|l| l.starts_with("micro.added_later") && l.ends_with("NEW")),
        "comparator output lists the new entry:\n{report}"
    );

    // The reverse: an entry the new snapshot dropped fails the
    // comparison, so a removed benchmark is never skipped silently.
    let shrunk = Command::new(exe)
        .arg("--compare")
        .args([&grown_path, &out_path])
        .output()
        .expect("spawn perf --compare");
    let report = String::from_utf8_lossy(&shrunk.stdout);
    assert_eq!(
        shrunk.status.code(),
        Some(1),
        "a removed entry must fail the comparison:\n{report}"
    );
    assert!(
        report
            .lines()
            .any(|l| l.starts_with("micro.added_later") && l.ends_with("MISSING in new snapshot")),
        "comparator output names the missing entry:\n{report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One artifact-writing run per entry point: a figure-harness binary
/// (whose runs flow through `Memo::run`) and the `profile` bin. With
/// `MCM_TRACE`/`MCM_METRICS` pointed at a scratch directory, both must
/// leave behind well-formed trace JSON and metrics CSV for every
/// simulated (config, workload) pair.
#[test]
fn observability_artifacts_are_written_and_well_formed() {
    for (bin, exe, args) in [
        (
            "fig16_breakdown",
            env!("CARGO_BIN_EXE_fig16_breakdown"),
            &[][..],
        ),
        (
            "profile",
            env!("CARGO_BIN_EXE_profile"),
            &["Stream", "baseline"][..],
        ),
    ] {
        let dir = scratch_dir(&format!("artifacts-{bin}"));
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .env("MCM_SCALE", SMOKE_SCALE)
            .env("MCM_TRACE", &dir)
            .env("MCM_METRICS", &dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} failed with artifacts enabled:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut traces = 0usize;
        let mut csvs = 0usize;
        for entry in std::fs::read_dir(&dir).expect("read scratch dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
            if name.ends_with(".trace.json") {
                assert_well_formed_json(&text, &name);
                traces += 1;
            } else if name.ends_with(".metrics.csv") {
                assert_well_formed_csv(&text, &name);
                csvs += 1;
            }
        }
        assert!(traces > 0, "{bin} wrote no trace JSON files");
        assert!(csvs > 0, "{bin} wrote no metrics CSV files");
        assert_eq!(traces, csvs, "{bin}: trace/metrics file counts differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

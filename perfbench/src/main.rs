//! The benchmark command.
//!
//! ```text
//! perfbench --workload <sim_serial|sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary, then as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits 1 when any
//! output check failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use mcm_perfbench::env::{self, TempDir};
use mcm_perfbench::inputs::Size;
use mcm_perfbench::metrics::{result_line, tail};
use mcm_perfbench::trace::Tracer;
use mcm_perfbench::{layers, run, Ctx, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Before any thread exists: the environment is process-global.
    let scrubbed = env::scrub();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <sim_serial|sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !scrubbed.is_empty() {
        eprintln!("perfbench: ignoring environment {}", scrubbed.join(", "));
    }
    let name = args.workload.name();
    let tmp = TempDir::new(
        &PathBuf::from(".bench_tmp"),
        &format!("{name}-{}", std::process::id()),
    );
    let size = Size::full();
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        size: &size,
        tracer: &tracer,
        tmp: tmp.path(),
    };

    let mut out = run(args.workload, &ctx);
    let metrics = if args.trace {
        let m = layers::layer_pass(&ctx, &mut out);
        let path = PathBuf::from(".bench_out").join(format!("spans-{name}-{}.jsonl", args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        m
    } else {
        out.end_to_end()
    };
    drop(tmp);

    let t = tail(&out.latencies());
    println!(
        "perfbench: {name} seed {}: {} attempted, {} failed; tail p{} over {} samples; {} distinct reports, digest {:#018x}",
        args.seed,
        out.attempted,
        out.failed,
        t.percentile * 100.0,
        t.samples,
        out.digest.len(),
        out.digest.value()
    );
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

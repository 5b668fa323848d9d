#!/usr/bin/env bash
# Tier-1 verification gate: the canonical "is the tree healthy" check.
# Everything here must pass before a change lands. Fully offline — the
# workspace has no external dependencies, so `--offline` is a
# guarantee, not an inconvenience.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

# Library code reads no environment: each binary's `main` parses every
# MCM_* run knob once into `mcm_bench::env::RunEnv`, and testkit's runner
# reads the two knobs that configure tests. Any other reader under
# crates/*/src fails here.
echo "== environment readers only in bench's env.rs and testkit's runner.rs =="
ENV_READERS="$(grep -rlE 'env::var|var_os' --include='*.rs' crates/*/src \
  | grep -vxE 'crates/bench/src/env\.rs|crates/testkit/src/runner\.rs' || true)"
if [[ -n "$ENV_READERS" ]]; then
  echo "tier-1: environment read outside the run-knob parser:" >&2
  # shellcheck disable=SC2086
  grep -nE 'env::var|var_os' $ENV_READERS >&2
  exit 1
fi

echo "== cargo clippy --workspace --all-targets --offline -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# Intra-doc links name methods and types; a rename or deletion that
# leaves a link dangling fails here instead of rotting silently.
echo "== RUSTDOCFLAGS=-D warnings cargo doc --workspace --no-deps --offline =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# perfbench builds the workspace crates through path dependencies from
# a workspace of its own, so an API change that breaks it passes every
# step above and fails only when the benchmark runs. Check it against
# this tree in a copy: cargo rewrites the copy's lock file, never the
# checkout's. The root manifest comes along because the crates inherit
# their package fields from it.
echo "== perfbench compiles against the working tree =="
TELEMETRY_TMP="$(mktemp -d -t mcm-telemetry.XXXXXX)"
trap 'rm -rf "$TELEMETRY_TMP"' EXIT
PERFBENCH_COPY="$TELEMETRY_TMP/perfbench-check"
mkdir "$PERFBENCH_COPY"
tar -c --exclude=perfbench/target Cargo.toml crates perfbench | tar -x -C "$PERFBENCH_COPY"
cargo check --offline --all-targets -q \
  --manifest-path "$PERFBENCH_COPY/perfbench/Cargo.toml" \
  --target-dir "$PERFBENCH_COPY/target"

echo "== cargo build --workspace --release --offline =="
cargo build --workspace --release --offline

# MCM_JOBS=1 pins the golden-comparison runs to the serial execution
# path: identical output is *guaranteed* by construction there, so a
# golden diff can only mean simulated behaviour changed — never thread
# scheduling. The parallel sweep path's equivalence is under test in
# crates/bench/tests/parallel_determinism.rs, which runs as part of
# this same workspace pass.
echo "== cargo test --workspace -q --offline (MCM_JOBS=1) =="
MCM_JOBS=1 cargo test --workspace -q --offline

# One smoke pass of every harness binary through the parallel
# executor, so the MCM_JOBS>1 path stays in the canonical gate end to
# end.
echo "== bin_smoke under MCM_JOBS=4 =="
MCM_JOBS=4 cargo test -p mcm-bench -q --offline --test bin_smoke

# Perf smoke: the engine-overhaul guarantees stay in the gate. The
# counting-allocator test asserts the run loop makes literally zero
# allocator calls in steady-state kernels (deterministic, so a
# regression fails exactly, not statistically). Every timed pattern
# (queue holds and bursts, whole runs per preset and workload class)
# runs in the `scripts/perf.sh --smoke` step at the end.
echo "== perf smoke: hot-loop allocation freedom =="
cargo test -p mcm-gpu -q --offline --test hot_loop_alloc

# Telemetry is strictly out-of-band: a release harness run must print
# byte-identical stdout and leave a well-formed snapshot behind with
# MCM_TELEMETRY set, vs nothing different with it unset. Uses the
# release binary built above; fig09 exercises the memo cache and the
# sweep executor.
echo "== telemetry on/off byte-identity (release fig09, tiny scale) =="
MCM_SCALE=0.01 MCM_JOBS=1 \
  target/release/fig09_distributed_sched >"$TELEMETRY_TMP/off.txt"
MCM_SCALE=0.01 MCM_JOBS=1 \
  MCM_TELEMETRY="$TELEMETRY_TMP/telemetry.json" \
  target/release/fig09_distributed_sched >"$TELEMETRY_TMP/on.txt"
diff "$TELEMETRY_TMP/off.txt" "$TELEMETRY_TMP/on.txt" \
  || { echo "tier-1: MCM_TELEMETRY changed harness stdout" >&2; exit 1; }
test -s "$TELEMETRY_TMP/telemetry.json" \
  || { echo "tier-1: MCM_TELEMETRY wrote no snapshot" >&2; exit 1; }

# Crash-recovery smoke for the persistent result store, end to end in
# a subprocess: (1) a run with MCM_STORE_CRASH_AFTER writes a torn
# record and aborts mid-sweep; (2) the rerun must break the dead
# owner's lock, quarantine the torn tail, re-simulate only the lost
# pair, and print stdout byte-identical to the storeless reference;
# (3) a third run is fully warm-started from disk and must again be
# byte-identical. off.txt from the telemetry step above is the
# reference — the store must never change simulated results.
echo "== store crash-recovery smoke (torn write, abort, rerun) =="
STORE_DIR="$TELEMETRY_TMP/store"
set +e
MCM_SCALE=0.01 MCM_JOBS=1 \
  MCM_STORE="$STORE_DIR" MCM_STORE_CRASH_AFTER=2 \
  target/release/fig09_distributed_sched \
  >"$TELEMETRY_TMP/crashed.txt" 2>"$TELEMETRY_TMP/crashed.err"
CRASH_RC=$?
set -e
if [[ $CRASH_RC -eq 0 ]]; then
  echo "tier-1: MCM_STORE_CRASH_AFTER did not crash the sweep" >&2
  exit 1
fi
grep -q "MCM_STORE_CRASH_AFTER tripped" "$TELEMETRY_TMP/crashed.err" \
  || { echo "tier-1: crashed run did not announce the scripted crash" >&2; exit 1; }
MCM_SCALE=0.01 MCM_JOBS=1 MCM_STORE="$STORE_DIR" \
  target/release/fig09_distributed_sched >"$TELEMETRY_TMP/recovered.txt"
diff "$TELEMETRY_TMP/off.txt" "$TELEMETRY_TMP/recovered.txt" \
  || { echo "tier-1: store recovery changed harness stdout" >&2; exit 1; }
MCM_SCALE=0.01 MCM_JOBS=1 MCM_STORE="$STORE_DIR" \
  target/release/fig09_distributed_sched >"$TELEMETRY_TMP/warm.txt"
diff "$TELEMETRY_TMP/off.txt" "$TELEMETRY_TMP/warm.txt" \
  || { echo "tier-1: warm-started run changed harness stdout" >&2; exit 1; }

# Lock contention: with a *live* process (this shell) holding LOCK, a
# second opener must degrade to read-only and still print identical
# results — never corrupt the directory, never deadlock, never panic.
echo "== store lock-contention smoke (live holder, read-only run) =="
echo "$$" >"$STORE_DIR/LOCK"
MCM_SCALE=0.01 MCM_JOBS=1 MCM_STORE="$STORE_DIR" \
  target/release/fig09_distributed_sched >"$TELEMETRY_TMP/readonly.txt" \
  2>"$TELEMETRY_TMP/readonly.err"
diff "$TELEMETRY_TMP/off.txt" "$TELEMETRY_TMP/readonly.txt" \
  || { echo "tier-1: read-only store run changed harness stdout" >&2; exit 1; }
grep -q "read-only" "$TELEMETRY_TMP/readonly.err" \
  || { echo "tier-1: contended open did not announce read-only mode" >&2; exit 1; }
rm -f "$STORE_DIR/LOCK"

# Supervised self-healing: a scripted worker panic on one workload,
# with an attempt budget of 1 and one retry, must heal in place — the
# sweep completes with byte-identical stdout and a retry notice on
# stderr. This is the executor's whole contract in one subprocess run.
echo "== supervised self-healing smoke (scripted panic + retry) =="
MCM_SCALE=0.01 MCM_JOBS=4 \
  MCM_SUPERVISED=1 MCM_RETRIES=1 \
  MCM_FAULT_TASK_PANIC=CFD MCM_FAULT_TASK_PANIC_ATTEMPTS=1 \
  target/release/fig09_distributed_sched \
  >"$TELEMETRY_TMP/healed.txt" 2>"$TELEMETRY_TMP/healed.err"
diff "$TELEMETRY_TMP/off.txt" "$TELEMETRY_TMP/healed.txt" \
  || { echo "tier-1: supervised retry changed harness stdout" >&2; exit 1; }
grep -q "retrying" "$TELEMETRY_TMP/healed.err" \
  || { echo "tier-1: supervised run did not report the retry" >&2; exit 1; }

# Fail-fast default: the same scripted panic on every attempt, without
# supervision, must fail the sweep at any job count, and the panic must
# name the same lowest failing grid index and pair serially and pooled.
echo "== fail-fast smoke (scripted panic, MCM_JOBS=1 vs 4) =="
FAILED_LINE='grid worker panicked at grid index 15: ("MCM-GPU baseline (768 GB/s)", "CFD")'
for jobs in 1 4; do
  set +e
  MCM_SCALE=0.01 MCM_JOBS=$jobs MCM_FAULT_TASK_PANIC=CFD \
    target/release/fig09_distributed_sched \
    >/dev/null 2>"$TELEMETRY_TMP/failfast-$jobs.err"
  FAIL_RC=$?
  set -e
  if [[ $FAIL_RC -eq 0 ]]; then
    echo "tier-1: fail-fast run at MCM_JOBS=$jobs exited 0 despite a panic" >&2
    exit 1
  fi
  grep -F "$FAILED_LINE" "$TELEMETRY_TMP/failfast-$jobs.err" \
    >"$TELEMETRY_TMP/failfast-$jobs.line" \
    || { echo "tier-1: fail-fast run at MCM_JOBS=$jobs did not name index 15" >&2; exit 1; }
done
diff "$TELEMETRY_TMP/failfast-1.line" "$TELEMETRY_TMP/failfast-4.line" \
  || { echo "tier-1: fail-fast panic differs between MCM_JOBS=1 and 4" >&2; exit 1; }

# Sweep-service smoke: a cold server run (misses + an in-flight
# duplicate via sweep2's concurrent twin connection) and a warm run
# over the same store (all hits) must print byte-identical pair
# reports; the cold server simulates each unique pair exactly once
# (runs=2: NN-Conv misses in the first sweep, Stream in sweep2 —
# NN-Conv is already in flight or stored by then), the warm server
# simulates nothing (runs=0). Each round's MCM_TELEMETRY snapshot must
# agree (serve.misses 2, then 0). Afterwards: no LOCK left behind and
# the port closed.
echo "== sweep service smoke (serve + scripted client, cold vs warm) =="
SERVE_STORE="$TELEMETRY_TMP/serve-store"
SERVE_SCRIPT='ping; sweep baseline:NN-Conv; sweep2 baseline:NN-Conv,Stream; stats; shutdown'
serve_round() { # $1: output tag
  MCM_SCALE=0.01 MCM_JOBS=1 \
    MCM_STORE="$SERVE_STORE" MCM_SERVE_ADDR=127.0.0.1:0 MCM_SERVE_WORKERS=2 \
    MCM_TELEMETRY="$TELEMETRY_TMP/serve-$1.json" \
    target/release/serve >"$TELEMETRY_TMP/serve-$1.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$TELEMETRY_TMP/serve-$1.log" 2>/dev/null && break
    sleep 0.1
  done
  SERVE_ADDR="$(sed -n 's/^mcm-serve: listening on //p' "$TELEMETRY_TMP/serve-$1.log")"
  test -n "$SERVE_ADDR" \
    || { echo "tier-1: serve ($1) printed no address" >&2; exit 1; }
  MCM_SERVE_ADDR="$SERVE_ADDR" MCM_SERVE_SCRIPT="$SERVE_SCRIPT" \
    target/release/serve_client >"$TELEMETRY_TMP/serve-client-$1.txt"
  wait "$SERVE_PID" \
    || { echo "tier-1: serve ($1) exited non-zero" >&2; exit 1; }
  SERVE_PORT="${SERVE_ADDR##*:}"
  test -s "$TELEMETRY_TMP/serve-$1.json" \
    || { echo "tier-1: serve ($1) wrote no MCM_TELEMETRY snapshot" >&2; exit 1; }
  if grep -q 'exec\.service_' "$TELEMETRY_TMP/serve-$1.json"; then
    echo "tier-1: serve ($1) snapshot still carries the deleted service-pool metrics" >&2
    exit 1
  fi
}
serve_round cold
grep -q '^runs=2$' "$TELEMETRY_TMP/serve-client-cold.txt" \
  || { echo "tier-1: cold serve did not run each unique pair exactly once" >&2; exit 1; }
grep -q '"serve.misses":2[,}]' "$TELEMETRY_TMP/serve-cold.json" \
  || { echo "tier-1: cold serve snapshot does not read serve.misses 2" >&2; exit 1; }
serve_round warm
grep -q '^runs=0$' "$TELEMETRY_TMP/serve-client-warm.txt" \
  || { echo "tier-1: warm serve re-simulated stored pairs" >&2; exit 1; }
grep -q '"serve.misses":0[,}]' "$TELEMETRY_TMP/serve-warm.json" \
  || { echo "tier-1: warm serve snapshot does not read serve.misses 0" >&2; exit 1; }
# Pair report bytes must not depend on cold vs warm (only the runs=
# stats line may differ).
diff <(grep -v '^runs=' "$TELEMETRY_TMP/serve-client-cold.txt") \
     <(grep -v '^runs=' "$TELEMETRY_TMP/serve-client-warm.txt") \
  || { echo "tier-1: served bytes differ between cold and warm servers" >&2; exit 1; }
test ! -e "$SERVE_STORE/LOCK" \
  || { echo "tier-1: serve left a stale store LOCK behind" >&2; exit 1; }
if (exec 3<>"/dev/tcp/127.0.0.1/$SERVE_PORT") 2>/dev/null; then
  exec 3>&- 3<&-
  echo "tier-1: serve port $SERVE_PORT still open after shutdown" >&2
  exit 1
fi

# Analytic exploration smoke: the planner scores the default grid with
# the calibrated model, prunes to the predicted Pareto frontier (plus
# the safety band), and confirms survivors with full simulation. A
# cold run populates MCM_STORE; a warm rerun in a fresh process must
# print byte-identical output (the confirmed frontier must not depend
# on cache state), and the bin exits 1 on any envelope violation.
echo "== analytic explore smoke (cold vs warm through MCM_STORE) =="
EXPLORE_STORE="$TELEMETRY_TMP/explore-store"
MCM_SCALE=0.01 MCM_JOBS=1 MCM_STORE="$EXPLORE_STORE" \
  target/release/explore >"$TELEMETRY_TMP/explore-cold.txt"
MCM_SCALE=0.01 MCM_JOBS=1 MCM_STORE="$EXPLORE_STORE" \
  target/release/explore >"$TELEMETRY_TMP/explore-warm.txt"
diff "$TELEMETRY_TMP/explore-cold.txt" "$TELEMETRY_TMP/explore-warm.txt" \
  || { echo "tier-1: explore frontier differs cold vs warm" >&2; exit 1; }
grep -q "envelope violations: 0" "$TELEMETRY_TMP/explore-cold.txt" \
  || { echo "tier-1: explore reported envelope violations" >&2; exit 1; }

# The pinned perf-trajectory suite at smoke scale: the BENCH snapshot
# must build, parse, and self-compare with zero diff (hermetic, offline).
echo "== scripts/perf.sh --smoke =="
scripts/perf.sh --smoke

echo "tier-1: all green"

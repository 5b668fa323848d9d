#!/usr/bin/env bash
# The pinned performance-trajectory suite. Builds the `perf` bin in
# release mode, runs it under a pinned environment (no trace probes, no
# metrics probes, serial defaults — the suite drives the simulator
# directly and must not inherit ambient knobs), writes a
# schema-versioned results/BENCH_<label>.json snapshot, and proves the
# snapshot round-trips through the comparator with zero self-diff.
#
#   scripts/perf.sh                  full suite -> results/BENCH_<host>.json
#   scripts/perf.sh --smoke          tiny pinned scale -> temp file (CI gate)
#   scripts/perf.sh --label mybox    override the snapshot label
#   scripts/perf.sh --compare A B    diff two snapshots (exit 1 on regression)
#
# Fully offline; no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# Strip ambient knobs so two runs of this script always measure the
# same work regardless of the caller's shell.
unset MCM_TRACE MCM_METRICS MCM_METRICS_BUCKET MCM_SCALE MCM_TELEMETRY \
  MCM_FAULT_SEED MCM_FAULT_RATE MCM_STORE MCM_STORE_CRASH_AFTER \
  MCM_SUPERVISED MCM_RETRIES MCM_FAULT_TASK_PANIC \
  MCM_FAULT_TASK_PANIC_ATTEMPTS 2>/dev/null || true
export MCM_JOBS=1

echo "== cargo build --release --offline -p mcm-bench --bin perf =="
cargo build --release --offline -p mcm-bench --bin perf
PERF=target/release/perf

if [[ "${1:-}" == "--compare" ]]; then
  shift
  exec "$PERF" --compare "$@"
fi

SMOKE=""
LABEL="${HOSTNAME:-local}"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE="--smoke" ;;
    --label)
      LABEL="$2"
      shift
      ;;
    *)
      echo "perf.sh: unknown argument $1" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ -n "$SMOKE" ]]; then
  OUT="$(mktemp -t BENCH_smoke.XXXXXX.json)"
  trap 'rm -f "$OUT"' EXIT
else
  mkdir -p results
  OUT="results/BENCH_${LABEL}.json"
fi

"$PERF" $SMOKE --label "$LABEL" --out "$OUT"

# A snapshot the comparator cannot read, or that diffs against itself,
# is useless as a trajectory point — fail loudly now, not at the next
# release.
echo "== self-compare (must be zero-diff) =="
"$PERF" --compare "$OUT" "$OUT"

#!/usr/bin/env bash
# Paired A/B runs of two perfbench `sim_serial` binaries on a 2-vCPU
# host.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN [ROUNDS] [SECONDS] [SEED]
#
# Each round runs the two binaries at once, one pinned to each vCPU
# with `taskset`, then again with the CPUs swapped, so both sides see
# the same host drift and neither keeps the faster core. A round's
# ratio per metric is the geometric mean of its two change/parent
# ratios. The script prints every round's ratios, each side's median
# and quartiles per metric over all its runs, the median ratio per
# metric, how many rounds the change won (in the metric's better
# direction), and every run's digest and failure count.
#
# Defaults: 10 rounds of 45 s, seed 1. The workload is always
# `sim_serial`: only a single-threaded workload pairs fairly this way,
# and `serve_mixed` (a two-worker daemon and two clients) and `sweep`
# (two jobs) are not.
#
# Build the binaries first, for example the parent in a clone:
#   git clone -q . /tmp/parent && (cd /tmp/parent && git checkout -q HEAD~1)
#   CARGO_TARGET_DIR=/tmp/parent-target cargo build --release --offline \
#     --manifest-path /tmp/parent/perfbench/Cargo.toml
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   scripts/ab.sh /tmp/parent-target/release/mcm-perfbench \
#     perfbench/target/release/mcm-perfbench 10 45
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  sed -n '5p' "$0" | sed 's/^#   /usage: /' >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
ROUNDS="${3:-10}"
SECONDS_PER_RUN="${4:-45}"
SEED="${5:-1}"
for bin in "$PARENT" "$CHANGE"; do
  [[ -x "$bin" ]] || { echo "ab.sh: $bin is not an executable" >&2; exit 2; }
done
PARENT="$(realpath "$PARENT")"
CHANGE="$(realpath "$CHANGE")"
command -v taskset >/dev/null || { echo "ab.sh: taskset not found" >&2; exit 2; }

# name:direction, in result-line order; `higher` metrics are better up.
METRICS="setup_s:lower p50_ms:lower tail_ms:lower sim_minst_per_s:higher pairs_per_s:higher peak_rss_mb:lower"

WORK="$(mktemp -d -t mcm-ab.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# run_pinned BIN CPU DIR: one benchmark run, pinned, in its own
# working directory (perfbench keeps its stores under the cwd).
run_pinned() {
  mkdir -p "$3"
  (cd "$3" && taskset -c "$2" "$1" --workload sim_serial --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 >out.txt 2>err.txt) || true
}

# metric FILE NAME: the metric's value from the result line.
metric() {
  tail -n 1 "$1/out.txt" | grep -o "\"$2\": {\"value\": [^,]*" | sed 's/.*: //'
}

# summary DIR: digest and failure count from the run's summary line.
summary() {
  local line
  line="$(grep "^perfbench: " "$1/out.txt" | tail -n 1 || true)"
  if [[ -z "$line" ]]; then
    echo "no summary line (see $(basename "$1")/err.txt)"
  else
    echo "$line" | sed -E 's/.*: ([0-9]+) attempted, ([0-9]+) failed;.*digest (0x[0-9a-f]+).*/attempted \1, failed \2, digest \3/'
  fi
}

printf 'ab.sh: sim_serial seed %s, %s rounds of 2 x %ss\n  parent %s\n  change %s\n' \
  "$SEED" "$ROUNDS" "$SECONDS_PER_RUN" "$PARENT" "$CHANGE"
RATIOS="$WORK/ratios.txt"
: >"$RATIOS"
for round in $(seq 1 "$ROUNDS"); do
  dir="$WORK/round$round"
  run_pinned "$PARENT" 0 "$dir/parent-cpu0" &
  run_pinned "$CHANGE" 1 "$dir/change-cpu1" &
  wait
  run_pinned "$PARENT" 1 "$dir/parent-cpu1" &
  run_pinned "$CHANGE" 0 "$dir/change-cpu0" &
  wait
  line="$round"
  for m in $METRICS; do
    name="${m%%:*}"
    vals=()
    for run in parent-cpu0 change-cpu1 parent-cpu1 change-cpu0; do
      v="$(metric "$dir/$run" "$name")"
      vals+=("${v:-nan}")
      echo "${v:-nan}" >>"$WORK/${run%%-*}-$name.txt"
    done
    # Geometric mean of the two placements' change/parent ratios.
    ratio="$(awk -v p0="${vals[0]}" -v c1="${vals[1]}" -v p1="${vals[2]}" -v c0="${vals[3]}" \
      'BEGIN { if (p0 > 0 && p1 > 0 && c0 > 0 && c1 > 0) printf "%.4f", sqrt((c1 / p0) * (c0 / p1)); else print "nan" }')"
    line="$line $ratio"
  done
  echo "$line" >>"$RATIOS"
  echo "round $round: $(cut -d' ' -f2- <<<"$line")"
  for run in parent-cpu0 change-cpu1 parent-cpu1 change-cpu0; do
    printf '  %-12s %s\n' "$run" "$(summary "$dir/$run")"
  done
done

# quartiles FILE: "median (Q1-Q3)" of the numbers in FILE, nearest rank.
quartiles() {
  grep -v nan "$1" | sort -g | awk '{ v[NR] = $1 }
    function at(q) { i = int(q * NR + 0.999999); return v[i < 1 ? 1 : i] }
    END { if (NR) printf "%.6g (%.6g-%.6g)", at(0.5), at(0.25), at(0.75); else print "no data" }'
}

echo
echo "each side over all its runs, median (Q1-Q3):"
for m in $METRICS; do
  name="${m%%:*}"
  printf '  %-16s parent %-34s change %s\n' "$name" \
    "$(quartiles "$WORK/parent-$name.txt")" "$(quartiles "$WORK/change-$name.txt")"
done

echo
echo "change/parent per metric (geometric mean of both placements per round):"
printf '  %-16s %8s %8s %8s %s\n' metric median min max "change better"
col=2
for m in $METRICS; do
  name="${m%%:*}"
  dir="${m##*:}"
  cut -d' ' -f"$col" "$RATIOS" | grep -v nan | sort -g >"$WORK/col.txt" || true
  n="$(wc -l <"$WORK/col.txt")"
  if [[ "$n" -eq 0 ]]; then
    printf '  %-16s %8s\n' "$name" "no data"
  else
    median="$(awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else printf "%.4f", (v[NR / 2] + v[NR / 2 + 1]) / 2 }' "$WORK/col.txt")"
    wins="$(awk -v d="$dir" '(d == "higher" && $1 > 1) || (d == "lower" && $1 < 1) { w++ } END { print w + 0 }' "$WORK/col.txt")"
    printf '  %-16s %8s %8s %8s %s/%s (%s is better)\n' "$name" "$median" \
      "$(head -n 1 "$WORK/col.txt")" "$(tail -n 1 "$WORK/col.txt")" "$wins" "$n" "$dir"
  fi
  col=$((col + 1))
done

#!/usr/bin/env bash
# Telemetry-overhead gate: proves that compiling the telemetry macros in
# (SEG_TELEMETRY=ON, the default) costs at most SEG_TELEMETRY_BUDGET_PCT
# (default 2%) on the hottest path while runtime-disabled.
#
# BENCH_core.json records the same ratio from a single build
# (BM_FlipTelemetry/0 vs BM_Flip/10); this script is the honest version
# for CI: it builds the benchmark twice, once with the macros compiled
# out entirely (SEG_TELEMETRY=OFF) and once with them in, then runs
# SEG_TELEMETRY_GATE_REPS (default 31) short rounds of BM_Flip/10, each
# round one OFF and one ON run back to back in alternating order. A
# shared host drifts by more than the budget between runs, so the gate
# reads the per-round ON/OFF ratio: it passes on the median ratio when
# the ratios' interquartile range is within the budget, and fails as
# "undecided" when the spread is too wide to tell.
set -euo pipefail
cd "$(dirname "$0")/.."
budget_pct=${SEG_TELEMETRY_BUDGET_PCT:-2}
rounds=${SEG_TELEMETRY_GATE_REPS:-31}

build_perf_core() {
  local build_dir=$1 telemetry=$2
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
      -DSEG_TELEMETRY="$telemetry" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" --target perf_core >/dev/null
}

# One short BM_Flip/10 run; prints its real_time in ns.
flip_ns() {
  "$1/perf_core" --benchmark_filter='^BM_Flip/10$' \
      --benchmark_min_time=0.05 --benchmark_format=json |
    python3 -c 'import json, sys
rows = [b["real_time"] for b in json.load(sys.stdin)["benchmarks"]
        if b.get("run_type") == "iteration"]
if not rows:
    sys.exit("telemetry gate: no BM_Flip/10 row")
print(rows[0])'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "telemetry gate: building with SEG_TELEMETRY=OFF (macro-free baseline)"
build_perf_core "$tmp/build-off" OFF
echo "telemetry gate: building with SEG_TELEMETRY=ON (runtime-disabled)"
build_perf_core "$tmp/build-on" ON

echo "telemetry gate: $rounds interleaved OFF/ON rounds of BM_Flip/10"
for ((round = 0; round < rounds; ++round)); do
  if ((round % 2 == 0)); then
    off=$(flip_ns "$tmp/build-off")
    on=$(flip_ns "$tmp/build-on")
  else
    on=$(flip_ns "$tmp/build-on")
    off=$(flip_ns "$tmp/build-off")
  fi
  echo "$off $on" >>"$tmp/pairs.txt"
done

python3 - "$tmp/pairs.txt" "$budget_pct" <<'EOF'
import statistics
import sys

pairs = [tuple(map(float, line.split())) for line in open(sys.argv[1])]
budget = float(sys.argv[2]) / 100.0
ratios = sorted(on / off for off, on in pairs)
q1, median, q3 = statistics.quantiles(ratios, n=4)
overhead = median - 1.0
spread = q3 - q1
print(f"telemetry gate: BM_Flip/10 ON(disabled)/OFF over {len(ratios)} "
      f"paired rounds: median overhead {overhead:+.2%}, "
      f"IQR {q1 - 1.0:+.2%} .. {q3 - 1.0:+.2%} (spread {spread:.2%}), "
      f"budget {budget:.0%}")
if spread > budget:
    sys.exit(f"telemetry gate: FAIL — undecided: spread {spread:.2%} of "
             f"the paired ratios exceeds the {budget:.0%} budget, so this "
             f"host cannot resolve the overhead")
if overhead > budget:
    sys.exit(f"telemetry gate: FAIL — disabled-telemetry overhead "
             f"{overhead:+.2%} exceeds the {budget:.0%} budget")
print("telemetry gate: PASS")
EOF

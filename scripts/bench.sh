#!/usr/bin/env bash
# Emits BENCH_core.json at the repo root: the core hot-path benchmarks
# (BM_Flip/<w> and BM_GlauberRun/<n>/<w>/<clock> at w in {2, 4, 10}, the
# BM_FlipGraphTorus/<w> graph-mode rows, the BM_GlauberSweep/<n>/<shards>
# giant-lattice scaling curve: serial engine vs 1/2/4/8 stripe shards at
# n in {1024, 2048, 4096}, the BM_AdaptiveCampaign fixed-vs-adaptive
# scheduling pair, and the BM_MeanMonoRegion region-measurement cost on
# four field shapes) in Google Benchmark's JSON format, annotated with
# the seed-implementation baselines, the sharded-vs-serial speedups, the
# speedup over the last recorded byte-storage engine, the torus-as-graph
# overhead, and the adaptive-campaign replica savings so the perf
# trajectory is tracked PR over PR.
#
# The sharded speedups are wall-clock flips/sec ratios and therefore
# bounded by the host's physical parallelism: on a 1-core container every
# shard count measures pure framework overhead (expect ~1.0x), and the
# scaling headroom only shows on multi-core hardware. The JSON records
# hardware_threads next to the curve so a reader can tell which regime a
# run measured.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j --target perf_core >/dev/null

if [[ ! -x build/perf_core ]]; then
  echo "perf_core was not built (is Google Benchmark installed?)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$tmp" && "$repo/build/perf_core" \
    --benchmark_filter='^BM_(AdaptiveCampaign|Flip|FlipGraphTorus|FlipTelemetry|GlauberRun|GlauberSweep|MeanMonoRegion|StreamingObservables)' \
    --benchmark_min_time=0.25 \
    --benchmark_format=json >raw.json)

# Dedicated repetitions for the telemetry-overhead annotation: a 2%
# budget cannot be resolved from single runs on a shared host (run-to-run
# spread on the same loop is >10%), so the overhead is computed from the
# min over 5 repetitions of each flip variant.
(cd "$tmp" && "$repo/build/perf_core" \
    --benchmark_filter='^(BM_Flip/10$|BM_FlipTelemetry)' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=false \
    --benchmark_format=json >flip_reps.json)

# Dedicated repetitions for the metrics-endpoint-overhead annotation:
# BM_GlauberRunScraped/{0,1} is the same full-run workload with live
# telemetry, without/with a ~10ms-cadence /metrics scraper thread. Same
# min-over-repetitions treatment as the telemetry overhead — the budget
# (<= 2% scrape overhead) is below single-run noise on a shared host —
# plus random interleaving: blocked repetitions alias slow host phases
# onto whichever variant runs inside them, which at this effect size
# flips the sign of the measured overhead run to run.
(cd "$tmp" && "$repo/build/perf_core" \
    --benchmark_filter='^BM_GlauberRunScraped' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=10 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=false \
    --benchmark_format=json >scrape_reps.json)

python3 - "$tmp/raw.json" "$repo/BENCH_core.json" "$tmp/flip_reps.json" \
    "$tmp/scrape_reps.json" <<'EOF'
import json
import sys

raw = json.load(open(sys.argv[1]))
# Pre-lattice-engine (seed) timings for the same workloads, measured at
# the start of the unified-engine PR on the reference container.
seed_ns = {
    "BM_Flip/2": 1020.0,
    "BM_Flip/4": 2643.0,
    "BM_Flip/10": 9309.0,
    "BM_GlauberRun/64/2": 724903.0,
    "BM_GlauberRun/128/2": 2806754.0,
}
# Byte-storage engine timings recorded on the reference container before
# bit-packing (the byte backend has since been deleted) — README.md's
# packed-storage speedup claims are measured against these, and
# scripts/audit.py cross-checks the claims.
prior_byte_ns = {
    "BM_Flip/10": 1522.1,
    "BM_GlauberRun/128/10": 10299211.8,
}
serial_rate = {}   # n -> serial-engine flips/sec
sweep_rows = []
recording = {}     # n -> {mode: real_time}; mode 0 = rescan, 1 = streaming
flip_ns = {}       # BM_Flip/<w> and BM_GlauberRun/<n>/<w> -> ns
graph_flip = {}    # w -> ns; BM_FlipGraphTorus (CSR graph engine on torus)
campaign = {}      # mode -> scheduled replicas; 0 = fixed, 1 = adaptive
region = {}        # field label -> ns; BM_MeanMonoRegion/256/<field>
for bench in raw.get("benchmarks", []):
    name = bench.get("name", "")
    parts = name.split("/")
    if name.startswith("BM_GlauberRun/") and not name.endswith("/1"):
        continue  # untimed row; the baselines all ran the clock
    if name.startswith(("BM_Flip/", "BM_GlauberRun/")) and \
            bench.get("real_time"):
        if name.startswith("BM_GlauberRun/"):
            name = name.rsplit("/", 1)[0]  # BM_GlauberRun/<n>/<w>/<clock>
        flip_ns[name] = bench["real_time"]
        baseline = seed_ns.get(name)
        if baseline is not None:
            bench["seed_baseline_ns"] = baseline
            bench["speedup_vs_seed"] = round(baseline / bench["real_time"], 2)
    if name.startswith("BM_GlauberSweep/"):
        # BM_GlauberSweep/<n>/<shards>/real_time
        n, shards = int(parts[1]), int(parts[2])
        if shards == 0:
            serial_rate[n] = bench["items_per_second"]
        sweep_rows.append((n, shards, bench))
    if name.startswith("BM_FlipGraphTorus/") and bench.get("real_time"):
        graph_flip[int(parts[1])] = bench["real_time"]
    if name.startswith("BM_StreamingObservables/"):
        n, mode = int(parts[1]), int(parts[2])
        recording.setdefault(n, {})[mode] = bench["real_time"]
    if name.startswith("BM_AdaptiveCampaign/") and bench.get("replicas"):
        campaign[int(parts[1])] = bench["replicas"]
    if name.startswith("BM_MeanMonoRegion/") and bench.get("real_time"):
        region[bench.get("label", parts[-1])] = round(bench["real_time"], 1)

scaling = {}
for n, shards, bench in sweep_rows:
    if shards == 0 or n not in serial_rate:
        continue
    speedup = bench["items_per_second"] / serial_rate[n]
    bench["speedup_vs_serial_engine"] = round(speedup, 3)
    scaling.setdefault(str(n), {})[str(shards)] = round(speedup, 3)

context = raw.setdefault("context", {})
context["streaming_observables"] = {
    "metric": "per-sweep observable recording (1024 flip pairs + one "
              "cluster/interface/correlation measurement): batch O(n^2) "
              "rescans vs the StreamingObservables engine (O(1)-ish per "
              "flip, O(1)/O(max_r) read)",
    "speedup_vs_rescan": {
        str(n): round(modes[0] / modes[1], 2)
        for n, modes in sorted(recording.items())
        if 0 in modes and 1 in modes and modes[1] > 0
    },
    "target": ">= 10x at n = 1024",
}
# Adaptive-campaign replica savings: the "replicas" counters of the two
# BM_AdaptiveCampaign modes (0 = fixed-replica engine, 1 = the
# empirical-Bernstein stopper at delta = 0.05 on the same variance-skewed
# 16-point grid, cap 3072/point). The counts are deterministic — the stop
# decisions depend only on the campaign seed, and claim run-ahead is
# windowed — so README.md quotes the savings and scripts/audit.py fails
# if the quote drifts from what is recorded here.
if 0 in campaign and 1 in campaign and campaign[0] > 0:
    context["adaptive_savings"] = {
        "metric": "replicas scheduled: empirical-Bernstein stopping "
                  "(delta=0.05, alpha=0.05, min 16) vs the fixed-replica "
                  "engine on the BM_AdaptiveCampaign grid (16 points, "
                  "metric sd ramping 0.02..0.25, cap 3072/point)",
        "fixed_replicas": int(campaign[0]),
        "adaptive_replicas": int(campaign[1]),
        "savings": round(1.0 - campaign[1] / campaign[0], 3),
        "target": ">= 0.30 at equal certified CI width "
                  "(tests/test_campaign_adaptive.cc pins the same grid)",
    }
# Region measurement: what one phase_diagram replica pays for E[M] (radius
# field, its tile index, 16 sampled queries) at n = 256 on a random, a
# segregated, a fully monochromatic and a single-minority field. In the
# monochromatic row every query returns at once (radius(u) is the top);
# the single-minority row is the query's worst case, with the top at the
# (n-1)/2 cap while most samples sit below it.
if region:
    context["region_measurement"] = {
        "metric": "BM_MeanMonoRegion/256/<field>: mono_region_field + "
                  "mean_mono_region_size over 16 sampled queries, ns per "
                  "call",
        "ns_by_field": region,
    }
context["sharded_scaling"] = {
    "metric": "wall-clock flips/sec, sharded sweep engine vs serial "
              "run_glauber at the same n (w=4, tau=0.45)",
    "hardware_threads": context.get("num_cpus"),
    "speedup_vs_serial": scaling,
    "note": "speedups are bounded by hardware_threads; a 1-core host "
            "measures framework overhead only (the >=3x target at "
            "n=2048/8 shards needs >=4 physical cores)",
}
# Packed storage vs the last recorded byte-storage engine: README.md's
# claims quote these speedups, and scripts/audit.py fails if they drift
# from what is recorded here.
vs_prior = {
    wl: {
        "prior_byte_ns": prior,
        "packed_ns": round(flip_ns[wl], 1),
        "speedup": round(prior / flip_ns[wl], 2),
    }
    for wl, prior in prior_byte_ns.items()
    if flip_ns.get(wl)
}
context["packed_storage"] = {
    "metric": "bit-packed engine (one bit/site, int16 counts, AVX-512 flip "
              "kernel where the CPU has it) vs the byte-storage engine "
              "timings recorded before packing",
    "packed_vs_prior_recorded_byte": vs_prior,
}

# Generic-graph dispatch overhead: BM_FlipGraphTorus/<w> drives the exact
# BM_Flip loop through the CSR GraphTopology engine path on the torus the
# native fast path was built for, on the same bit storage, so its ratio
# to BM_Flip/<w> is the pure cost of the indirection: CSR row walk +
# per-node class tables instead of the span kernels. README.md quotes the
# factor and scripts/audit.py fails if the quote drifts from what is
# recorded here.
# The context entry is self-contained (both ns values plus the factor,
# like telemetry_overhead's baseline): the ratio only means something
# same-run, so scripts/audit.py recomputes it from the pair recorded
# here rather than from raw rows that may come from another run.
graph_overhead = {}
for w, t in sorted(graph_flip.items()):
    native = flip_ns.get(f"BM_Flip/{w}")
    if native:
        graph_overhead[str(w)] = {
            "graph_ns": round(t, 1),
            "native_ns": round(native, 1),
            "factor": round(t / native, 2),
        }
if graph_overhead:
    context["graph_overhead"] = {
        "metric": "BM_FlipGraphTorus/<w> (torus expressed as a CSR "
                  "GraphTopology, engine graph mode) vs BM_Flip/<w> "
                  "(native span engine), same flip/flip-back loop at "
                  "n = 128, same run",
        "overhead_factor_by_w": graph_overhead,
    }

# Telemetry overhead: BM_FlipTelemetry/{0,1} is the BM_Flip/10 loop with
# the runtime telemetry switch off/on. The disabled ratio is the cost the
# instrumentation macros impose on every un-instrumented run; the
# acceptance budget is <= 2% (scripts/telemetry_gate.sh enforces it
# against a SEG_TELEMETRY=OFF build as well). Computed from the min over
# 5 repetitions (cleanest sample each variant gets) — single runs on a
# shared host spread by >10%, far beyond the budget being resolved.
reps = json.load(open(sys.argv[3]))
flip_times = {}
for bench in reps.get("benchmarks", []):
    if bench.get("run_type") != "iteration" or not bench.get("real_time"):
        continue
    name = bench["name"].split("/repeats:")[0]
    prev = flip_times.get(name)
    flip_times[name] = min(prev, bench["real_time"]) if prev else \
        bench["real_time"]
base = flip_times.get("BM_Flip/10")
if base:
    overhead = {}
    for arg, label in ((0, "disabled"), (1, "enabled")):
        t = flip_times.get(f"BM_FlipTelemetry/{arg}")
        if t:
            overhead[label] = {
                "real_time_ns": round(t, 2),
                "overhead_vs_BM_Flip_10": round(t / base - 1.0, 4),
            }
    context["telemetry_overhead"] = {
        "metric": "BM_Flip/10 flip loop with telemetry runtime-disabled / "
                  "runtime-enabled, vs the uninstrumented-path baseline "
                  "BM_Flip/10; min over 5 repetitions of each, same run",
        "baseline_BM_Flip_10_ns": round(base, 2),
        "budget": "disabled overhead <= 2%",
        **overhead,
    }

# Metrics-endpoint overhead under load: BM_GlauberRunScraped/0 (live
# telemetry, no endpoint) vs /1 (same workload with a /metrics scrape
# every ~10ms from another thread). The exporter reads registry
# snapshots only, so the ratio is the full cost a scraped production run
# pays over an unscraped one. README.md's "Observability endpoint"
# section quotes the recorded overhead and scripts/audit.py fails if the
# quote drifts or the number leaves the <= 2% budget.
scrape_reps = json.load(open(sys.argv[4]))
scrape_times = {}
for bench in scrape_reps.get("benchmarks", []):
    if bench.get("run_type") != "iteration" or not bench.get("real_time"):
        continue
    name = bench["name"].split("/repeats:")[0]
    prev = scrape_times.get(name)
    scrape_times[name] = min(prev, bench["real_time"]) if prev else \
        bench["real_time"]
unscraped = scrape_times.get("BM_GlauberRunScraped/0")
scraped = scrape_times.get("BM_GlauberRunScraped/1")
if unscraped and scraped:
    context["metrics_endpoint_overhead"] = {
        "metric": "BM_GlauberRunScraped: full Glauber run (n=128, w=10) "
                  "with live telemetry, with vs without a concurrent "
                  "/metrics scraper polling the embedded endpoint every "
                  "~10ms; min over 10 random-interleaved repetitions of "
                  "each, same run",
        "unscraped_ns": round(unscraped, 1),
        "scraped_ns": round(scraped, 1),
        "overhead": round(scraped / unscraped - 1.0, 4),
        "budget": "scrape overhead <= 2%",
    }

# Single-core hosts cannot exercise real parallelism: flag every
# wall-clock-parallel number so downstream readers (and scripts/audit.py)
# treat them as framework-overhead measurements, not scaling results.
if context.get("num_cpus") == 1:
    raw["caveats"] = [
        "hardware_threads == 1: sharded/threaded speedups measure "
        "framework overhead only, not parallel scaling",
    ]
json.dump(raw, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]}")
EOF

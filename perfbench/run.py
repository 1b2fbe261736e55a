#!/usr/bin/env python3
"""Campaign-replica benchmark: build the harness, run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase_diagram --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/replica_bench (CMake, Release) into $CARGO_TARGET_DIR
or .bench_build, runs the workload, and prints the harness's result as
the last line of stdout: one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer split. Build output and the harness's
report go to stderr. Exits 2 without a result if the checkout has no
sources to build.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("phase_diagram", "region_size", "sharded", "graph_adaptive")
# Workloads whose CSV bytes are frozen per seed in digests.json. sharded is
# not one: its 4-shard trajectory is expected to be re-frozen, so it checks
# thread invariance and termination instead.
FROZEN = ("phase_diagram", "region_size", "graph_adaptive")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HARNESS_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the harness; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} missing from {ROOT}; nothing to build")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "replica_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "replica_bench")


def frozen_digest(workload, seed):
    """The recorded CSV digest for this workload and seed, or None."""
    if workload not in FROZEN:
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def run_harness(binary, args, extra=()):
    """Runs the harness in a private work directory; returns the parsed
    last stdout line, or exits non-zero."""
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: harness exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"run.py: malformed harness result {lines[-1]!r}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    binary = build()
    digest = frozen_digest(args.workload, args.seed)
    extra = ["--expect-digest", digest] if digest else []
    print(json.dumps(run_harness(binary, args, extra)))


if __name__ == "__main__":
    main()

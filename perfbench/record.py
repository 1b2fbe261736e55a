#!/usr/bin/env python3
"""Records the benchmark's frozen digests and baseline numbers.

    python3 perfbench/record.py digests --seeds 0-63
        Runs each workload in run.FROZEN once per seed and writes the
        FNV-1a digest of its CsvSink::render output to
        perfbench/digests.json, which run.py checks every run against.

    python3 perfbench/record.py baseline --seed 1 --unseen-seed 7919
        Runs every workload end to end (--trace 0) and traced (--trace 1)
        on --seed, and end to end on --unseen-seed, and writes the
        numbers, the host and build facts, the traced phase_diagram split
        and the layer -> metric -> workload map to perfbench/baseline.json.

Run from the root of a source checkout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

import run

# Which end-to-end metric each layer's metrics should move, and where they
# should not (the workload that bypasses the layer predicts no change).
LAYERS = {
    "campaign engine (campaign/campaign.cc)": {
        "metrics": ["campaign.worker_busy_frac", "campaign.tail_s",
                    "campaign.replicas_wasted"],
        "moves": "replicas_per_s on graph_adaptive (per-replica "
                 "scheduling cost; the timed run has one worker, so "
                 "pool balance shows only in the traced nproc campaigns)",
        "still": "phase_diagram",
    },
    "checkpoint (campaign/checkpoint.cc)": {
        "metrics": ["checkpoint.save_ms", "checkpoint.bytes",
                    "checkpoint.mb_written"],
        "moves": "campaign_s on graph_adaptive",
        "still": "all others (they do not checkpoint)",
    },
    "setup (core/model, lattice/engine)": {
        "metrics": ["setup.model_ms_p50", "setup.share"],
        "moves": "replicas_per_s on phase_diagram, sharded",
        "still": "graph_adaptive",
    },
    "graph (graph/topology, engine graph mode)": {
        "metrics": ["graph.build_ms_p50", "graph.share", "graph.ns_per_flip"],
        "moves": "replicas_per_s on graph_adaptive",
        "still": "all torus workloads",
    },
    "serial dynamics (core/dynamics, lattice)": {
        "metrics": ["dynamics.ns_per_flip", "dynamics.share",
                    "dynamics.flips"],
        "moves": "replicas_per_s on region_size, phase_diagram",
        "still": "sharded",
    },
    "sharded dynamics (core/parallel_dynamics, lattice/sharded)": {
        "metrics": ["sharded.ns_per_flip", "sharded.share",
                    "sharded.flips_per_sweep", "sharded.deferred_frac",
                    "sharded.reconcile_yield", "sharded.thread_speedup"],
        "moves": "flips_per_s, replicas_per_s on sharded",
        "still": "the three unsharded workloads",
    },
    "measurement (analysis/regions, almost, clusters)": {
        "metrics": ["measure.mono_field_ms_p50", "measure.mono_sample_ms_p50",
                    "measure.almost_field_ms_p50",
                    "measure.almost_sample_ms_p50",
                    "measure.snapshot_ms_p50", "measure.share"],
        "moves": "replicas_per_s on phase_diagram (mono), "
                 "region_size (almost)",
        "still": "sharded, graph_adaptive",
    },
    "streaming (analysis/streaming)": {
        "metrics": ["streaming.ns_per_flip", "streaming.share"],
        "moves": "replicas_per_s on region_size",
        "still": "all others",
    },
    "attribution": {
        "metrics": ["trace.unattributed_frac"],
        "moves": "none; it shows what the split misses",
        "still": "-",
    },
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(args):
    binary = run.build()
    path = os.path.join(run.HERE, "digests.json")
    with open(path) as f:
        digests = json.load(f)
    work = os.path.join(run.build_dir(), f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for workload in run.FROZEN:
            for seed in parse_seeds(args.seeds):
                out = subprocess.run(
                    [binary, "--workload", workload, "--seed", str(seed),
                     "--work-dir", work, "--digest-only"],
                    stdout=subprocess.PIPE, text=True, check=True).stdout
                result = json.loads(out.strip().splitlines()[-1])
                if not result["complete"]:
                    sys.exit(f"{workload} seed {seed}: campaign incomplete")
                digests.setdefault(workload, {})[str(seed)] = result["digest"]
                print(workload, seed, result["digest"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def bench(workload, seed, seconds, trace):
    """One run.py invocation: (result, host facts, stderr report)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
    report = [line for line in proc.stderr.splitlines()
              if line.startswith(("workload ", "traced ", "host "))]
    host = next(json.loads(line[5:]) for line in report
                if line.startswith("host "))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, host, [line for line in report
                          if not line.startswith("host ")]


def record_baseline(args):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    out = {"seed": args.seed, "unseen_seed": args.unseen_seed,
           "run_seconds": seconds, "workloads": {}, "layers": LAYERS}
    for workload in run.WORKLOADS:
        entry = {}
        for label, seed, trace in (("end_to_end", args.seed, 0),
                                   ("per_layer", args.seed, 1),
                                   ("unseen_seed", args.unseen_seed, 0)):
            result, out["host"], report = bench(workload, seed, seconds,
                                                trace)
            entry[label] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
                "report": report,
            }
            print(workload, label, result["correct"], file=sys.stderr)
        out["workloads"][workload] = entry
    layers = out["workloads"]["phase_diagram"]["per_layer"]["metrics"]
    out["phase_diagram_split"] = {
        "config": "n = 256, w = 2, seed %d, traced single-threaded"
                  % args.seed,
        "setup": layers["setup.share"],
        "dynamics": layers["dynamics.share"],
        "measure": layers["measure.share"],
        "unattributed": layers["trace.unattributed_frac"],
    }
    with open(os.path.join(run.HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("digests")
    d.add_argument("--seeds", required=True, help="e.g. 0-63,7919")
    b = sub.add_parser("baseline")
    b.add_argument("--seed", required=True, type=int)
    b.add_argument("--unseen-seed", required=True, type=int)
    args = ap.parse_args()
    if args.command == "digests":
        record_digests(args)
    else:
        record_baseline(args)


if __name__ == "__main__":
    main()

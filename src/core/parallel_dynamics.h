// Sharded parallel dynamics: Glauber sweeps of ONE large lattice
// decomposed into shards (row stripes, lattice/sharded.h, or a graph
// partition, graph/partition.h) and driven across the util/thread_pool
// workers. With one worker (threads = 1, or a single shard) no pool is
// built: the calling thread runs phase A itself, shard by shard in
// ascending order, so a one-worker run costs no thread and no per-sweep
// handoff.
//
// Algorithm: time advances in *sweeps*. In phase A every shard, in
// parallel, runs the serial Glauber loop restricted to its own
// sub-lattice — sampling from its shard-local flippable set with its own
// splitmix-derived RNG substream (Rng::stream(seed, shard), the campaign
// engine's scheme) and applying flips whose whole interaction window is
// interior to the shard directly on the shared engine. A draw that lands
// within `w` of a shard boundary is *deferred*: the site goes into the
// shard's conflict queue and ends the shard's phase A (the stripe is
// blocked on its boundary). Phase B is a serial, deterministic
// reconciliation pass: queues drain in ascending shard order, every
// deferred flip is re-validated against the current global state (it may
// have been invalidated by an earlier reconciled flip) and applied iff
// still legal. Counts, codes, and set memberships therefore stay exact at
// every step — the ShardLayout isolation guarantee makes phase A
// race-free and phase B makes cross-boundary effects serial.
//
// Determinism contract: for a fixed shard count the trajectory — spins,
// flip counts, Poisson clocks — is a pure function of the seed, bitwise
// identical at ANY thread count (each shard's phase A depends only on its
// own state and substream; the fold and reconciliation run in shard
// order). With ONE shard there is no boundary, phase A is the serial
// Glauber loop verbatim, and the run is bitwise identical to run_glauber
// driven by Rng::stream(seed, 0) — the differential tests pin this.
//
// Semantics at k > 1: this is a domain-decomposed variant of the paper's
// process (shards ring concurrently, one Poisson clock per shard
// subsystem), not a reordering of the serial chain. Flippable-only flips
// keep the Lyapunov function strictly increasing, so parallel Glauber
// absorbs exactly like the serial process.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/dynamics.h"
#include "core/model.h"

namespace seg {

struct ParallelOptions {
  // Worker threads for phase A; 0 = hardware concurrency, capped at the
  // shard count. A width of 1 runs phase A on the calling thread with no
  // pool; wider runs build a pool for the run.
  std::size_t threads = 0;
  // Flips between magnetization samples (ParallelRunResult::
  // magnetization); 0 = no samples. Phase A logs each applied flip's new
  // spin per shard (no shared writes), and every reconciliation barrier
  // folds the logs in ascending shard order, then the reconciled flips in
  // application order, adding +-2 per flip and recording the running
  // magnetization every `sample_every` flips of that stream. The series
  // is therefore deterministic per shard count, at any thread count; with
  // one shard it equals run_glauber's on_snapshot series at the same
  // RunOptions::snapshot_every (without that hook's end-of-run call).
  std::uint64_t sample_every = 0;
  // Stop once at least this many flips were performed. Exact for one
  // shard; at k > 1 the budget is split per sweep, so a run may overshoot
  // by up to (shards - 1) * sweep_quantum flips.
  std::uint64_t max_flips = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_sweeps = std::numeric_limits<std::uint64_t>::max();
  // Flips attempted per shard per sweep before the reconciliation
  // barrier; 0 = auto (max(256, sites / (4 * shards))). Larger quanta
  // amortize the barrier, smaller ones reconcile boundaries sooner.
  std::uint64_t sweep_quantum = 0;
};

struct ParallelRunResult {
  std::uint64_t flips = 0;       // applied flips, reconciled included
  std::uint64_t sweeps = 0;      // phase A + B rounds executed
  std::uint64_t deferred = 0;    // boundary draws pushed to conflict queues
  std::uint64_t reconciled = 0;  // deferred flips applied in phase B
  // Max over the shard-local Poisson clocks (== the serial clock for one
  // shard). A deferred draw consumes its waiting time whether or not the
  // reconciliation pass ends up applying it.
  double final_time = 0.0;
  bool terminated = false;  // absorbing state: no flippable agent left
  // Magnetization after every ParallelOptions::sample_every flips of the
  // folded stream; empty when sampling is off.
  std::vector<std::int64_t> magnetization;
};

// Event-driven Glauber sweeps over a sharded model (the model must have
// been constructed with a ShardLayout; shard_count() == 1 reproduces
// run_glauber bitwise). Shard substreams derive as Rng::stream(seed, s).
ParallelRunResult run_parallel_glauber(SchellingModel& model,
                                       std::uint64_t seed,
                                       const ParallelOptions& options = {});

// Adapter for drivers and the campaign layer that consume the serial
// RunResult shape (sweeps map onto `rounds`).
RunResult to_run_result(const ParallelRunResult& parallel);

}  // namespace seg

#include "core/parallel_dynamics.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/seg_assert.h"
#include "util/thread_pool.h"

namespace seg {

namespace {

std::size_t pool_width(std::size_t requested, int shards) {
  std::size_t width = requested;
  if (width == 0) {
    width = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(width, static_cast<std::size_t>(shards));
}

}  // namespace

ParallelRunResult run_parallel_glauber(SchellingModel& model,
                                       std::uint64_t seed,
                                       const ParallelOptions& options) {
  const int k = model.shard_count();
  const bool sampling = options.sample_every > 0;
  SEG_ASSERT(model.flip_observer() == nullptr || k == 1,
             "engine-level flip observer attached to a " << k
                 << "-shard model: phase A is concurrent; sample the "
                    "magnetization through ParallelOptions::sample_every");

  struct ShardState {
    Rng rng;
    std::vector<std::uint32_t> queue;  // deferred boundary draws
    std::vector<std::int8_t> spins;     // applied flips' new spins
    std::uint64_t flips = 0;            // this sweep
    std::uint64_t deferred = 0;         // this sweep
    double time = 0.0;                  // shard-local Poisson clock
  };
  std::vector<ShardState> shards;
  shards.reserve(k);
  for (int s = 0; s < k; ++s) {
    shards.push_back(ShardState{Rng::stream(seed, s), {}, {}, 0, 0, 0.0});
  }

  const std::uint64_t quantum =
      options.sweep_quantum > 0
          ? options.sweep_quantum
          : std::max<std::uint64_t>(256, model.agent_count() / (4 * k));

  // A pool pays off only with more than one worker. At width 1 the
  // caller runs the shards itself, in the FIFO order a one-worker pool
  // would, so each sweep skips the cross-thread handoff.
  const std::size_t width = pool_width(options.threads, k);
  std::optional<ThreadPool> pool;
  if (width > 1) pool.emplace(width, "shards");
  ParallelRunResult result;
  std::vector<std::int8_t> reconciled_spins;
  std::int64_t magnetization = model.magnetization();
  std::uint64_t flips_since_sample = 0;

  while (!model.terminated() && result.flips < options.max_flips &&
         result.sweeps < options.max_sweeps) {
    SEG_SPAN("sweep");
    const std::uint64_t budget =
        std::min(quantum, options.max_flips - result.flips);

    // Phase A: every shard advances its own subsystem. Interior flips
    // stay entirely inside the shard (ShardLayout isolation), so the
    // shared engine is written race-free; the first boundary draw is
    // deferred and blocks the shard until reconciliation.
    const auto phase_a = [&](std::size_t s) {
      SEG_SPAN("phase_a_shard");
      ShardState& st = shards[s];
      const AgentSet& flippable =
          model.flippable_set(static_cast<int>(s));
      for (std::uint64_t b = 0; b < budget; ++b) {
        if (flippable.empty()) break;
        const double dt = st.rng.exponential(
            static_cast<double>(flippable.size()));
        st.time += dt;
        const std::uint32_t id = flippable.sample(st.rng);
        if (model.shard_boundary(id)) {
          st.queue.push_back(id);
          ++st.deferred;
          break;
        }
        model.flip(id);
        ++st.flips;
        if (sampling) st.spins.push_back(model.spin(id));
      }
    };
    if (pool) {
      parallel_for(*pool, static_cast<std::size_t>(k), phase_a);
    } else {
      for (std::size_t s = 0; s < static_cast<std::size_t>(k); ++s) {
        phase_a(s);
      }
    }

    // Fold sweep statistics in shard order (deterministic). Telemetry
    // counters are bumped once per sweep with the folded deltas, so the
    // phase-A proposal loops stay macro-free.
    std::uint64_t sweep_flips = 0;
    std::int64_t queue_depth = 0;
    for (ShardState& st : shards) {
      sweep_flips += st.flips;
      result.flips += st.flips;
      result.deferred += st.deferred;
      SEG_COUNT("dynamics.deferred", st.deferred);
      queue_depth += static_cast<std::int64_t>(st.queue.size());
      result.final_time = std::max(result.final_time, st.time);
      st.flips = 0;
      st.deferred = 0;
    }
    SEG_COUNT("dynamics.flips", sweep_flips);
    // Queue pressure at the barrier: how much work phase A pushed into
    // the serial reconciliation pass this sweep.
    SEG_GAUGE_SET("dynamics.conflict_queue_depth", queue_depth);
    SEG_TRACE_COUNTER("conflict_queue_depth", queue_depth);

    // Phase B: serial reconciliation in ascending shard order. A deferred
    // flip is re-validated against the current global state — an earlier
    // reconciled flip may have changed its window.
    {
      SEG_SPAN("reconcile");
      std::uint64_t sweep_reconciled = 0;
      for (ShardState& st : shards) {
        for (const std::uint32_t id : st.queue) {
          SEG_ASSERT(model.shard_boundary(id),
                     "non-boundary site " << id
                                          << " reached the conflict queue");
          if (model.in_flippable_set(id)) {
            model.flip(id);
            ++sweep_reconciled;
            ++result.reconciled;
            ++result.flips;
            if (sampling) reconciled_spins.push_back(model.spin(id));
          }
        }
        st.queue.clear();
      }
      SEG_COUNT("dynamics.reconciled", sweep_reconciled);
      SEG_COUNT("dynamics.flips", sweep_reconciled);
    }
    if (sampling) {
      // Fold the sweep's flips: phase-A logs in shard order, then the
      // reconciled flips in application order; each adds +-2.
      const auto fold = [&](std::int8_t spin) {
        magnetization += 2 * spin;
        if (++flips_since_sample >= options.sample_every) {
          flips_since_sample = 0;
          result.magnetization.push_back(magnetization);
        }
      };
      for (ShardState& st : shards) {
        for (const std::int8_t spin : st.spins) fold(spin);
        st.spins.clear();
      }
      for (const std::int8_t spin : reconciled_spins) fold(spin);
      reconciled_spins.clear();
    }
    ++result.sweeps;
  }

  result.terminated = model.terminated();
  return result;
}

RunResult to_run_result(const ParallelRunResult& parallel) {
  RunResult run;
  run.flips = parallel.flips;
  run.final_time = parallel.final_time;
  run.terminated = parallel.terminated;
  run.rounds = parallel.sweeps;
  return run;
}

}  // namespace seg

#include "core/dynamics.h"

#include <cassert>
#include <limits>
#include <vector>

namespace seg {

namespace {

void maybe_snapshot(const RunOptions& options, const SchellingModel& model,
                    std::uint64_t flips, double time) {
  if (options.on_snapshot && options.snapshot_every > 0 &&
      flips % options.snapshot_every == 0) {
    options.on_snapshot(model, flips, time);
  }
}

void final_snapshot(const RunOptions& options, const SchellingModel& model,
                    std::uint64_t flips, double time) {
  if (options.on_snapshot) options.on_snapshot(model, flips, time);
}

// One Glauber run, with (kTimed) or without the continuous-time clock.
template <bool kTimed>
RunResult glauber_loop(SchellingModel& model, Rng& rng,
                       const RunOptions& options) {
  RunResult result;
  if constexpr (!kTimed) {
    result.final_time = std::numeric_limits<double>::quiet_NaN();
  }
  while (!model.terminated()) {
    if (result.flips >= options.max_flips) break;
    // Each of the |flippable| agents rings at rate 1 and an effective ring
    // of a flippable agent immediately flips it; rings of other agents do
    // not change the state. The time to the next effective flip is
    // therefore Exp(|flippable|) and the flipping agent is uniform over
    // the flippable set.
    if constexpr (kTimed) {
      const double dt =
          rng.exponential(static_cast<double>(model.flippable_set().size()));
      if (result.final_time + dt > options.max_time) {
        result.final_time = options.max_time;
        final_snapshot(options, model, result.flips, result.final_time);
        return result;
      }
      result.final_time += dt;
    } else {
      // exponential() consumes exactly one word; drawing it keeps the
      // stream, and so the sampled flip sequence, the timed run's.
      rng.next_u64();
    }
    const std::uint32_t id = model.flippable_set().sample(rng);
    model.flip(id);
    ++result.flips;
    maybe_snapshot(options, model, result.flips, result.final_time);
  }
  result.terminated = model.terminated();
  final_snapshot(options, model, result.flips, result.final_time);
  return result;
}

}  // namespace

RunResult run_glauber(SchellingModel& model, Rng& rng,
                      const RunOptions& options) {
  const bool timed = options.track_time ||
                     options.max_time < std::numeric_limits<double>::infinity();
  return timed ? glauber_loop<true>(model, rng, options)
               : glauber_loop<false>(model, rng, options);
}

RunResult run_discrete(SchellingModel& model, Rng& rng,
                       const RunOptions& options) {
  RunResult result;
  // Discrete time: pick an unhappy agent uniformly; flip iff it would
  // become happy. Non-flippable unhappy agents (possible only for
  // tau > 1/2) consume a step without changing state, exactly as stated in
  // the paper. The chain absorbs when no unhappy agent is flippable.
  while (!model.terminated()) {
    if (result.flips >= options.max_flips) break;
    const std::uint32_t id = model.unhappy_set().sample(rng);
    result.final_time += 1.0;
    if (!model.is_flippable(id)) continue;
    model.flip(id);
    ++result.flips;
    maybe_snapshot(options, model, result.flips, result.final_time);
  }
  result.terminated = model.terminated();
  final_snapshot(options, model, result.flips, result.final_time);
  return result;
}

RunResult run_synchronous(SchellingModel& model, std::uint64_t max_rounds,
                          const RunOptions& options) {
  RunResult result;
  std::vector<std::int8_t> prev_spins;
  std::vector<std::int8_t> prev_prev_spins;
  std::vector<std::uint32_t> batch;
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    if (model.terminated()) break;
    prev_prev_spins = std::move(prev_spins);
    prev_spins = model.spins();

    // Synchronous flips are unconditional and commute within a round, so
    // the committed state does not depend on batch order: the batch is a
    // row-wise scan of the cached membership codes (one contiguous byte
    // test per site — vectorizable).
    batch.clear();
    const auto count = static_cast<std::uint32_t>(model.agent_count());
    for (std::uint32_t id = 0; id < count; ++id) {
      if (model.flippable_cached(id)) batch.push_back(id);
    }
    for (const std::uint32_t id : batch) {
      model.flip(id);  // unconditional: synchronous rule commits the batch
      ++result.flips;
    }
    ++result.rounds;
    result.final_time += 1.0;
    maybe_snapshot(options, model, result.flips, result.final_time);
    if (!prev_prev_spins.empty() && model.spins() == prev_prev_spins) {
      result.cycle_detected = true;  // period-2 oscillation
      break;
    }
  }
  result.terminated = model.terminated();
  final_snapshot(options, model, result.flips, result.final_time);
  return result;
}

}  // namespace seg

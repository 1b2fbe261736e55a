#include "core/comfort.h"

#include <cassert>

#include "grid/torus_grid.h"

namespace seg {

BinarySpinEngine ComfortModel::make_engine(const ComfortParams& params,
                                           std::vector<std::int8_t> spins) {
  assert(params.valid());
  const int N = params.neighborhood_size();
  const int k_lo = params.k_lo();
  const int k_hi = params.k_hi();
  // Single set: flippable == unhappy AND the flip lands inside the band.
  MembershipTable table(N, [&](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    const bool happy = same >= k_lo && same <= k_hi;
    if (happy) return 0;
    const int after = N - same + 1;
    return (after >= k_lo && after <= k_hi) ? (1u << kFlippableSet) : 0;
  });
  return BinarySpinEngine(params.n, params.w, /*dense_window=*/true,
                          neighborhood_offsets(NeighborhoodShape::kMoore,
                                               params.w),
                          std::move(spins), std::move(table),
                          /*set_count=*/1);
}

BinarySpinEngine ComfortModel::make_graph_engine(
    const ComfortParams& params, std::shared_ptr<const GraphTopology> graph,
    std::vector<std::int8_t> spins) {
  const double tau_lo = params.tau_lo;
  const double tau_hi = params.tau_hi;
  const GraphCodeFn code_of = [tau_lo, tau_hi](int N, bool plus,
                                               int count) -> std::uint8_t {
    const int k_lo = ComfortParams::k_lo_of(tau_lo, N);
    const int k_hi = ComfortParams::k_hi_of(tau_hi, N);
    const int same = plus ? count : N - count;
    const bool happy = same >= k_lo && same <= k_hi;
    if (happy) return 0;
    const int after = N - same + 1;
    return (after >= k_lo && after <= k_hi) ? (1u << kFlippableSet) : 0;
  };
  return BinarySpinEngine(std::move(graph), std::move(spins), code_of,
                          /*set_count=*/1);
}

ComfortModel::ComfortModel(const ComfortParams& params, Rng& rng)
    : ComfortModel(params, random_spins(params.n, params.p, rng)) {}

ComfortModel::ComfortModel(const ComfortParams& params,
                           std::vector<std::int8_t> spins)
    : params_(params),
      N_(params.neighborhood_size()),
      k_lo_(params.k_lo()),
      k_hi_(params.k_hi()),
      engine_(make_engine(params, std::move(spins))) {}

ComfortModel::ComfortModel(const ComfortParams& params,
                           std::shared_ptr<const GraphTopology> graph,
                           std::vector<std::int8_t> spins)
    : params_(params),
      N_(params.neighborhood_size()),
      k_lo_(params.k_lo()),
      k_hi_(params.k_hi()),
      engine_(make_graph_engine(params, std::move(graph),
                                std::move(spins))) {}

std::int8_t ComfortModel::spin_at(int x, int y) const {
  return engine_.spin(engine_.geometry().id_of(x, y));
}

std::uint32_t ComfortModel::id_of(int x, int y) const {
  return engine_.geometry().id_of(x, y);
}

std::int32_t ComfortModel::same_count(std::uint32_t id) const {
  return spin(id) > 0
             ? engine_.plus_count(id)
             : engine_.neighborhood_size(id) - engine_.plus_count(id);
}

bool ComfortModel::is_happy(std::uint32_t id) const {
  const std::int32_t s = same_count(id);
  if (!graph_mode()) return s >= k_lo_ && s <= k_hi_;
  const int N = neighborhood_size_of(id);
  return s >= ComfortParams::k_lo_of(params_.tau_lo, N) &&
         s <= ComfortParams::k_hi_of(params_.tau_hi, N);
}

bool ComfortModel::flip_makes_happy(std::uint32_t id) const {
  const int N = graph_mode() ? neighborhood_size_of(id) : N_;
  const std::int32_t after = N - same_count(id) + 1;
  if (!graph_mode()) return after >= k_lo_ && after <= k_hi_;
  return after >= ComfortParams::k_lo_of(params_.tau_lo, N) &&
         after <= ComfortParams::k_hi_of(params_.tau_hi, N);
}

std::size_t ComfortModel::count_unhappy() const {
  std::size_t unhappy = 0;
  for (std::uint32_t id = 0; id < agent_count(); ++id) {
    unhappy += !is_happy(id);
  }
  return unhappy;
}

double ComfortModel::happy_fraction() const {
  return 1.0 - static_cast<double>(count_unhappy()) /
                   static_cast<double>(agent_count());
}

bool ComfortModel::check_invariants() const {
  if (!engine_.check_invariants()) return false;
  for (std::uint32_t id = 0; id < agent_count(); ++id) {
    if (flippable_set().contains(id) != is_flippable(id)) return false;
  }
  return true;
}

ComfortRunResult run_comfort(ComfortModel& model, Rng& rng,
                             std::uint64_t max_flips) {
  ComfortRunResult result;
  while (!model.quiescent() && result.flips < max_flips) {
    result.final_time +=
        rng.exponential(static_cast<double>(model.flippable_set().size()));
    const std::uint32_t id = model.flippable_set().sample(rng);
    model.flip(id);
    ++result.flips;
  }
  result.quiescent = model.quiescent();
  return result;
}

}  // namespace seg

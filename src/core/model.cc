#include "core/model.h"

#include <cassert>

#include "grid/torus_grid.h"

namespace seg {

std::vector<Point> neighborhood_offsets(NeighborhoodShape shape, int w) {
  std::vector<Point> offsets;
  for (int dy = -w; dy <= w; ++dy) {
    for (int dx = -w; dx <= w; ++dx) {
      if (shape == NeighborhoodShape::kVonNeumann &&
          std::abs(dx) + std::abs(dy) > w) {
        continue;
      }
      offsets.push_back(Point{dx, dy});
    }
  }
  return offsets;
}

std::vector<std::int8_t> random_spins(int n, double p, Rng& rng) {
  return random_spins_count(static_cast<std::size_t>(n) * n, p, rng);
}

std::vector<std::int8_t> random_spins_count(std::size_t count, double p,
                                            Rng& rng) {
  std::vector<std::int8_t> spins(count);
  for (auto& s : spins) s = rng.bernoulli(p) ? 1 : -1;
  return spins;
}

BinarySpinEngine SchellingModel::make_engine(const ModelParams& params,
                                            std::vector<std::int8_t> spins,
                                            ShardLayout layout) {
  assert(params.valid());
  const int N = params.neighborhood_size();
  const int k_plus = params.happy_threshold_of(+1);
  const int k_minus = params.happy_threshold_of(-1);
  // Membership code from (spin, +1-count): bit kUnhappySet if the agent is
  // unhappy, bit kFlippableSet if additionally the flip would make it
  // happy under its *new* type's threshold.
  MembershipTable table(N, [&](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    const int threshold = plus ? k_plus : k_minus;
    if (same >= threshold) return 0;
    const int after = N - same + 1;
    const int other_threshold = plus ? k_minus : k_plus;
    std::uint8_t code = 1u << kUnhappySet;
    if (after >= other_threshold) code |= 1u << kFlippableSet;
    return code;
  });
  return BinarySpinEngine(params.n, params.w,
                          params.shape == NeighborhoodShape::kMoore,
                          neighborhood_offsets(params.shape, params.w),
                          std::move(spins), std::move(table),
                          /*set_count=*/2, std::move(layout));
}

BinarySpinEngine SchellingModel::make_graph_engine(
    const ModelParams& params, std::shared_ptr<const GraphTopology> graph,
    std::vector<std::int8_t> spins, GraphPartition partition) {
  // Same membership rule as make_engine, but the thresholds are derived
  // per neighborhood-size class: K = ceil(tau * N_v) for the node's own
  // N_v. On a uniform-degree graph (torus-as-graph in particular) this
  // collapses to exactly the torus table.
  const double tau_plus = params.tau_of(+1);
  const double tau_minus = params.tau_of(-1);
  const GraphCodeFn code_of = [tau_plus, tau_minus](int N, bool plus,
                                                    int count) -> std::uint8_t {
    const int k_plus = happiness_threshold(tau_plus, N);
    const int k_minus = happiness_threshold(tau_minus, N);
    const int same = plus ? count : N - count;
    const int threshold = plus ? k_plus : k_minus;
    if (same >= threshold) return 0;
    const int after = N - same + 1;
    const int other_threshold = plus ? k_minus : k_plus;
    std::uint8_t code = 1u << kUnhappySet;
    if (after >= other_threshold) code |= 1u << kFlippableSet;
    return code;
  };
  return BinarySpinEngine(std::move(graph), std::move(spins), code_of,
                          /*set_count=*/2, std::move(partition));
}

SchellingModel::SchellingModel(const ModelParams& params, Rng& rng)
    : SchellingModel(params, random_spins(params.n, params.p, rng)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::vector<std::int8_t> spins)
    : SchellingModel(params, std::move(spins), ShardLayout()) {}

SchellingModel::SchellingModel(const ModelParams& params, Rng& rng,
                               ShardLayout layout)
    : SchellingModel(params, random_spins(params.n, params.p, rng),
                     std::move(layout)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::vector<std::int8_t> spins,
                               ShardLayout layout)
    : params_(params),
      N_(params.neighborhood_size()),
      k_plus_(params.happy_threshold_of(+1)),
      k_minus_(params.happy_threshold_of(-1)),
      engine_(make_engine(params, std::move(spins), std::move(layout))) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::shared_ptr<const GraphTopology> graph,
                               Rng& rng, GraphPartition partition)
    : SchellingModel(params, graph,
                     random_spins_count(graph->node_count(), params.p, rng),
                     std::move(partition)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::shared_ptr<const GraphTopology> graph,
                               std::vector<std::int8_t> spins,
                               GraphPartition partition)
    : params_(params),
      N_(params.neighborhood_size()),
      k_plus_(params.happy_threshold_of(+1)),
      k_minus_(params.happy_threshold_of(-1)),
      engine_(make_graph_engine(params, std::move(graph), std::move(spins),
                                std::move(partition))) {}

std::int8_t SchellingModel::spin_at(int x, int y) const {
  return engine_.spin(engine_.geometry().id_of(x, y));
}

std::uint32_t SchellingModel::id_of(int x, int y) const {
  return engine_.geometry().id_of(x, y);
}

Point SchellingModel::point_of(std::uint32_t id) const {
  return engine_.geometry().point_of(id);
}

std::int32_t SchellingModel::same_count(std::uint32_t id) const {
  return spin(id) > 0 ? plus_count(id)
                      : neighborhood_size_of(id) - plus_count(id);
}

bool SchellingModel::flip_makes_happy(std::uint32_t id) const {
  // After the flip the agent's same-type count becomes
  // (opposite-type count before) + 1 = N - same_count + 1, and the
  // relevant threshold is the one of its *new* type — both over the
  // agent's own neighborhood size (per node in graph mode).
  return neighborhood_size_of(id) - same_count(id) + 1 >=
         happy_threshold_at(id, static_cast<std::int8_t>(-spin(id)));
}

std::int64_t SchellingModel::lyapunov() const {
  std::int64_t sum = 0;
  for (std::uint32_t id = 0; id < agent_count(); ++id) {
    sum += same_count(id);
  }
  return sum;
}

double SchellingModel::happy_fraction() const {
  return 1.0 - static_cast<double>(count_unhappy()) /
                   static_cast<double>(agent_count());
}

double SchellingModel::plus_fraction() const {
  return static_cast<double>(engine_.plus_total()) /
         static_cast<double>(agent_count());
}

bool SchellingModel::check_invariants() const {
  if (!engine_.check_invariants()) return false;
  for (std::uint32_t id = 0; id < agent_count(); ++id) {
    if (in_unhappy_set(id) != is_unhappy(id)) return false;
    if (in_flippable_set(id) != is_flippable(id)) return false;
  }
  return true;
}

}  // namespace seg

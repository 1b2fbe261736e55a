#include "core/model.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

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

BitField random_bits(int rows, int cols, double p, Rng& rng) {
  BitField bits(rows, cols);
  for (int y = 0; y < rows; ++y) {
    std::uint64_t* words = bits.row_words(y);
    for (int x0 = 0; x0 < cols; x0 += 64) {
      const int len = std::min(64, cols - x0);
      std::uint64_t word = 0;
      for (int b = 0; b < len; ++b) {
        word |= static_cast<std::uint64_t>(rng.uniform() < p) << b;
      }
      words[x0 >> 6] = word;
    }
  }
  return bits;
}

std::uint8_t membership_code(const ModelParams& params, int N, bool plus,
                             int count) {
  const int k_plus = happiness_threshold(params.tau_of(+1), N);
  const int k_minus = happiness_threshold(params.tau_of(-1), N);
  const int cap = comfort_cap(params.tau_hi, N);
  const int same = plus ? count : N - count;
  if (same >= (plus ? k_plus : k_minus) && same <= cap) return 0;
  const int after = N - same + 1;
  std::uint8_t code = 1u << SchellingModel::kUnhappySet;
  if (after >= (plus ? k_minus : k_plus) && after <= cap) {
    code |= 1u << SchellingModel::kFlippableSet;
  }
  return code;
}

BinarySpinEngine SchellingModel::make_engine(const ModelParams& params,
                                            BitField bits,
                                            ShardLayout layout) {
  assert(params.valid());
  const int N = params.neighborhood_size();
  MembershipTable table(N, [&](bool plus, int count) {
    return membership_code(params, N, plus, count);
  });
  return BinarySpinEngine(params.n, params.w,
                          params.shape == NeighborhoodShape::kMoore,
                          neighborhood_offsets(params.shape, params.w),
                          std::move(bits), std::move(table),
                          /*set_count=*/2, std::move(layout));
}

BinarySpinEngine SchellingModel::make_graph_engine(
    const ModelParams& params, std::shared_ptr<const GraphTopology> graph,
    BitField bits, GraphPartition partition) {
  // The same rule per neighborhood-size class, over the node's own N_v. On
  // a uniform-degree graph (torus-as-graph in particular) this collapses
  // to exactly the torus table. The engine evaluates code_of only while
  // it is built, so a reference to params suffices.
  const GraphCodeFn code_of = [&params](int N, bool plus, int count) {
    return membership_code(params, N, plus, count);
  };
  return BinarySpinEngine(std::move(graph), std::move(bits), code_of,
                          /*set_count=*/2, std::move(partition));
}

SchellingModel::SchellingModel(const ModelParams& params, Rng& rng)
    : SchellingModel(params, rng, ShardLayout()) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::vector<std::int8_t> spins)
    : SchellingModel(params, std::move(spins), ShardLayout()) {}

SchellingModel::SchellingModel(const ModelParams& params, Rng& rng,
                               ShardLayout layout)
    : SchellingModel(params, random_bits(params.n, params.n, params.p, rng),
                     std::move(layout)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::vector<std::int8_t> spins,
                               ShardLayout layout)
    : SchellingModel(params, BitField(spins, params.n, params.n),
                     std::move(layout)) {}

SchellingModel::SchellingModel(const ModelParams& params, BitField bits,
                               ShardLayout layout)
    : params_(params),
      N_(params.neighborhood_size()),
      k_plus_(params.happy_threshold_of(+1)),
      k_minus_(params.happy_threshold_of(-1)),
      cap_(comfort_cap(params.tau_hi, N_)),
      engine_(make_engine(params, std::move(bits), std::move(layout))) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::shared_ptr<const GraphTopology> graph,
                               Rng& rng, GraphPartition partition)
    : SchellingModel(params, graph,
                     random_bits(1, static_cast<int>(graph->node_count()),
                                 params.p, rng),
                     std::move(partition)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::shared_ptr<const GraphTopology> graph,
                               std::vector<std::int8_t> spins,
                               GraphPartition partition)
    : SchellingModel(params, graph,
                     BitField(spins, 1, static_cast<int>(graph->node_count())),
                     std::move(partition)) {}

SchellingModel::SchellingModel(const ModelParams& params,
                               std::shared_ptr<const GraphTopology> graph,
                               BitField bits, GraphPartition partition)
    : params_(params),
      N_(params.neighborhood_size()),
      k_plus_(params.happy_threshold_of(+1)),
      k_minus_(params.happy_threshold_of(-1)),
      cap_(comfort_cap(params.tau_hi, N_)),
      engine_(make_graph_engine(params, std::move(graph), std::move(bits),
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
  const std::int32_t after = neighborhood_size_of(id) - same_count(id) + 1;
  const auto flipped = static_cast<std::int8_t>(-spin(id));
  return after >= happy_threshold_at(id, flipped) &&
         after <= comfort_cap_at(id);
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

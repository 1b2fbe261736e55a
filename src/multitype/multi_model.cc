#include "multitype/multi_model.h"

#include <cassert>

#include "grid/union_find.h"
#include "lattice/window.h"

namespace seg {

namespace {

std::vector<std::uint8_t> random_types(int n, int q, Rng& rng) {
  std::vector<std::uint8_t> types(static_cast<std::size_t>(n) * n);
  for (auto& t : types) {
    t = static_cast<std::uint8_t>(rng.uniform_below(q));
  }
  return types;
}

}  // namespace

MultiTypeModel::MultiTypeModel(const MultiParams& params, Rng& rng)
    : MultiTypeModel(params, random_types(params.n, params.q, rng)) {}

MultiTypeModel::MultiTypeModel(const MultiParams& params,
                               std::vector<std::uint8_t> types)
    : params_(params),
      N_(params.neighborhood_size()),
      K_(params.happy_threshold()),
      types_(std::move(types)),
      counts_(types_.size() * params.q, 0),
      feasible_count_(types_.size(), 0),
      in_flippable_(types_.size(), 0),
      flippable_(types_.size()) {
  assert(params_.valid());
  assert(types_.size() ==
         static_cast<std::size_t>(params_.n) * params_.n);
  // Initial per-type counts: scatter each agent's type into the counts of
  // its window neighbors — O(n^2 N) but only at construction, and the
  // span iteration keeps the writes row-contiguous per type plane.
  const int n = params_.n;
  for (std::uint32_t id = 0; id < types_.size(); ++id) {
    const std::uint8_t t = types_[id];
    assert(t < params_.q);
    for_each_window_cell(static_cast<int>(id % n),
                         static_cast<int>(id / n), params_.w, n,
                         [&](std::uint32_t j) { ++counts_[count_index(j, t)]; });
  }
  for (std::uint32_t id = 0; id < types_.size(); ++id) {
    feasible_count_[id] = recount_feasible(id);
    if (is_flippable(id)) {
      flippable_.insert(id);
      in_flippable_[id] = 1;
    }
  }
}

std::uint8_t MultiTypeModel::type_at(int x, int y) const {
  return types_[static_cast<std::size_t>(torus_wrap(y, params_.n)) *
                    params_.n +
                torus_wrap(x, params_.n)];
}

std::uint32_t MultiTypeModel::id_of(int x, int y) const {
  return static_cast<std::uint32_t>(
      static_cast<std::size_t>(torus_wrap(y, params_.n)) * params_.n +
      torus_wrap(x, params_.n));
}

std::int32_t MultiTypeModel::type_count_at(std::uint32_t id,
                                           std::uint8_t t) const {
  return counts_[count_index(id, t)];
}

std::vector<std::uint8_t> MultiTypeModel::feasible_types(
    std::uint32_t id) const {
  std::vector<std::uint8_t> feasible;
  for (std::uint8_t t = 0; t < params_.q; ++t) {
    if (t == types_[id]) continue;
    // Post-switch same-count: current count of t plus the agent itself.
    if (type_count_at(id, t) + 1 >= K_) feasible.push_back(t);
  }
  return feasible;
}

std::int32_t MultiTypeModel::recount_feasible(std::uint32_t id) const {
  std::int32_t feasible = 0;
  const std::int32_t* row = counts_.data() + count_index(id, 0);
  for (int t = 0; t < params_.q; ++t) {
    feasible += (t != types_[id] && row[t] + 1 >= K_);
  }
  return feasible;
}

void MultiTypeModel::set_type(std::uint32_t id, std::uint8_t new_type) {
  assert(new_type < params_.q);
  const std::uint8_t old_type = types_[id];
  if (new_type == old_type) return;
  types_[id] = new_type;
  const int n = params_.n;
  const int q = params_.q;
  for_each_window_span(
      static_cast<int>(id % n), static_cast<int>(id / n), params_.w, n,
      [&](std::size_t base, int len) {
        for (int i = 0; i < len; ++i) {
          const auto j = static_cast<std::uint32_t>(base + i);
          std::int32_t* row = counts_.data() + static_cast<std::size_t>(j) * q;
          const std::int32_t c_old = --row[old_type];
          const std::int32_t c_new = ++row[new_type];
          const std::uint8_t tj = types_[j];
          if (j == id) {
            // The center's own type changed, so its exclusion moved:
            // recount the q types once per switch.
            feasible_count_[j] = recount_feasible(j);
          } else {
            // Feasibility of t flips only when counts_[j, t] crosses
            // K - 1 (post-switch tally includes the agent itself).
            if (old_type != tj && c_old == K_ - 2) --feasible_count_[j];
            if (new_type != tj && c_new == K_ - 1) ++feasible_count_[j];
          }
          const bool happy = row[tj] >= K_;
          const std::uint8_t want =
              (!happy && feasible_count_[j] > 0) ? 1 : 0;
          if (want != in_flippable_[j]) {
            if (want) {
              flippable_.insert(j);
            } else {
              flippable_.erase(j);
            }
            in_flippable_[j] = want;
          }
        }
      });
}

double MultiTypeModel::happy_fraction() const {
  std::size_t happy = 0;
  for (std::uint32_t id = 0; id < types_.size(); ++id) {
    happy += is_happy(id);
  }
  return static_cast<double>(happy) / static_cast<double>(types_.size());
}

std::vector<double> MultiTypeModel::type_fractions() const {
  std::vector<double> fractions(params_.q, 0.0);
  for (const std::uint8_t t : types_) fractions[t] += 1.0;
  for (auto& f : fractions) f /= static_cast<double>(types_.size());
  return fractions;
}

bool MultiTypeModel::check_invariants() const {
  const int n = params_.n;
  const int w = params_.w;
  for (std::uint32_t id = 0; id < types_.size(); ++id) {
    if (types_[id] >= params_.q) return false;
    std::vector<std::int32_t> tally(params_.q, 0);
    const int cx = static_cast<int>(id % n);
    const int cy = static_cast<int>(id / n);
    for (int dy = -w; dy <= w; ++dy) {
      for (int dx = -w; dx <= w; ++dx) {
        ++tally[type_at(cx + dx, cy + dy)];
      }
    }
    for (std::uint8_t t = 0; t < params_.q; ++t) {
      if (tally[t] != type_count_at(id, t)) return false;
    }
    if (feasible_count_[id] != recount_feasible(id)) return false;
    if (feasible_count_[id] !=
        static_cast<std::int32_t>(feasible_types(id).size())) {
      return false;
    }
    if (in_flippable_[id] != (is_flippable(id) ? 1 : 0)) return false;
    if (flippable_.contains(id) != is_flippable(id)) return false;
  }
  return true;
}

MultiRunResult run_multi(MultiTypeModel& model, Rng& rng,
                         std::uint64_t max_flips) {
  MultiRunResult result;
  while (!model.quiescent() && result.flips < max_flips) {
    result.final_time +=
        rng.exponential(static_cast<double>(model.flippable_set().size()));
    const std::uint32_t id = model.flippable_set().sample(rng);
    const auto feasible = model.feasible_types(id);
    // Membership in the flippable set guarantees feasible is nonempty.
    const std::uint8_t target = feasible[rng.uniform_below(feasible.size())];
    model.set_type(id, target);
    ++result.flips;
  }
  result.quiescent = model.quiescent();
  return result;
}

std::int64_t largest_type_cluster(const MultiTypeModel& model) {
  const int n = model.side();
  UnionFind uf(model.agent_count());
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * n + x;
      const std::size_t right =
          static_cast<std::size_t>(y) * n + torus_wrap(x + 1, n);
      const std::size_t down =
          static_cast<std::size_t>(torus_wrap(y + 1, n)) * n + x;
      if (model.types()[i] == model.types()[right]) uf.unite(i, right);
      if (model.types()[i] == model.types()[down]) uf.unite(i, down);
    }
  }
  std::int64_t best = 0;
  for (std::size_t i = 0; i < model.agent_count(); ++i) {
    best = std::max<std::int64_t>(best, uf.component_size(i));
  }
  return best;
}

}  // namespace seg

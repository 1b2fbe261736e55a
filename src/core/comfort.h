// The "uncomfortable majority" variant proposed in the paper's concluding
// remarks (Sec. V): the baseline model is biased toward segregation
// because agents flip when too many neighbors differ but never when too
// many agree. Here an agent is happy iff its same-type fraction lies in a
// comfort band [tau_lo, tau_hi]; it flips (when its Poisson clock rings)
// iff it is unhappy and the flip lands it inside the band. tau_hi = 1
// recovers the paper's model exactly — the golden-seed tests pin the
// flip-for-flip equivalence with SchellingModel.
//
// A thin policy over lattice::BinarySpinEngine: only the band membership
// code differs from the baseline model.
//
// Unlike the baseline, this dynamics has no Lyapunov function (a flip can
// reduce aggregate same-type counts), so absorption is not guaranteed;
// run_comfort() therefore always takes a flip budget.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/model.h"
#include "core/params.h"
#include "grid/point.h"
#include "lattice/engine.h"
#include "rng/rng.h"

namespace seg {

struct ComfortParams {
  int n = 64;
  int w = 2;
  double tau_lo = 0.45;  // minimum comfortable same-type fraction
  double tau_hi = 1.0;   // maximum comfortable same-type fraction
  double p = 0.5;

  int neighborhood_size() const {
    return static_cast<int>(window_site_count(NeighborhoodShape::kMoore, w));
  }
  // Band edges for an arbitrary neighborhood size — the graph engine
  // computes these per degree class.
  static int k_lo_of(double tau_lo, int N) {
    return happiness_threshold(tau_lo, N);
  }
  static int k_hi_of(double tau_hi, int N) {
    // floor(tau_hi * N), robust to fp edges (mirror of ceil in k_lo).
    const double scaled = tau_hi * N;
    const double nearest = std::nearbyint(scaled);
    if (std::abs(scaled - nearest) < 1e-9 * N) {
      return static_cast<int>(nearest);
    }
    return static_cast<int>(std::floor(scaled));
  }
  // Inclusive integer band [k_lo, k_hi] on the same-type count.
  int k_lo() const { return k_lo_of(tau_lo, neighborhood_size()); }
  int k_hi() const { return k_hi_of(tau_hi, neighborhood_size()); }
  // Also refuses windows over kMaxNeighborhoodSize sites (w > 90).
  bool valid() const {
    return n > 0 && w >= 1 && 2 * w + 1 <= n &&
           window_site_count(NeighborhoodShape::kMoore, w) <=
               kMaxNeighborhoodSize &&
           tau_lo >= 0.0 && tau_lo <= tau_hi && tau_hi <= 1.0 && p >= 0.0 &&
           p <= 1.0;
  }
};

class ComfortModel {
 public:
  static constexpr int kFlippableSet = 0;

  ComfortModel(const ComfortParams& params, Rng& rng);
  ComfortModel(const ComfortParams& params, std::vector<std::int8_t> spins);

  // Graph-topology variant: the comfort band is per node,
  // [ceil(tau_lo * N_v), floor(tau_hi * N_v)] over the node's own
  // neighborhood size. params.n/params.w are ignored.
  ComfortModel(const ComfortParams& params,
               std::shared_ptr<const GraphTopology> graph,
               std::vector<std::int8_t> spins);

  const ComfortParams& params() const { return params_; }
  int side() const { return params_.n; }
  int neighborhood_size() const { return N_; }
  bool graph_mode() const { return engine_.graph_mode(); }
  int neighborhood_size_of(std::uint32_t id) const {
    return engine_.neighborhood_size(id);
  }
  std::size_t agent_count() const { return engine_.size(); }

  std::int8_t spin(std::uint32_t id) const { return engine_.spin(id); }
  std::int8_t spin_at(int x, int y) const;
  // Snapshot by value; see SchellingModel::spins().
  std::vector<std::int8_t> spins() const { return engine_.spins_snapshot(); }
  BitField packed_spins() const { return engine_.packed_spins(); }
  std::uint32_t id_of(int x, int y) const;

  std::int32_t same_count(std::uint32_t id) const;
  bool is_happy(std::uint32_t id) const;
  bool flip_makes_happy(std::uint32_t id) const;
  bool is_flippable(std::uint32_t id) const {
    return !is_happy(id) && flip_makes_happy(id);
  }

  const AgentSet& flippable_set() const {
    return engine_.set(kFlippableSet);
  }
  bool quiescent() const { return flippable_set().empty(); }
  std::size_t count_unhappy() const;
  double happy_fraction() const;

  void flip(std::uint32_t id) { engine_.flip(id); }

  // Streaming-measurement hook (serial dynamics only; see the
  // FlipObserver contract in lattice/engine.h).
  void set_flip_observer(FlipObserver* observer) {
    engine_.set_observer(observer);
  }

  bool check_invariants() const;

 private:
  static BinarySpinEngine make_engine(const ComfortParams& params,
                                      std::vector<std::int8_t> spins);
  static BinarySpinEngine make_graph_engine(
      const ComfortParams& params, std::shared_ptr<const GraphTopology> graph,
      std::vector<std::int8_t> spins);

  ComfortParams params_;
  int N_;
  int k_lo_;
  int k_hi_;
  BinarySpinEngine engine_;
};

struct ComfortRunResult {
  std::uint64_t flips = 0;
  double final_time = 0.0;
  bool quiescent = false;  // no flippable agent remained
};

// Event-driven Glauber dynamics with the comfort-band rule. max_flips is
// mandatory (no termination guarantee).
ComfortRunResult run_comfort(ComfortModel& model, Rng& rng,
                             std::uint64_t max_flips);

}  // namespace seg

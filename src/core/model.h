// The Schelling model state: spins, incrementally-maintained neighbor
// counts, and the happy / unhappy / flippable classification of every
// agent (paper Sec. II-A). A thin policy over lattice::BinarySpinEngine —
// this file defines only the thresholds and the membership code; storage,
// window iteration, and threshold-crossing set maintenance live in
// src/lattice/.
//
// Invariants maintained after construction and after every flip():
//  * plus_count(i) == number of +1 spins in the l-infinity ball of radius
//    w around i (self included);
//  * the unhappy and flippable index sets contain exactly the agents for
//    which is_unhappy() / is_flippable() hold.
//
// "Flippable" means unhappy AND the flip would make the agent happy — the
// paper's Glauber rule. For tau < 1/2 every unhappy agent is flippable
// (first observation in Sec. II-A); for tau > 1/2 the flippable agents are
// exactly the paper's "super-unhappy" agents (Sec. IV-C).
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.h"
#include "grid/point.h"
#include "lattice/agent_set.h"
#include "lattice/engine.h"
#include "lattice/sharded.h"
#include "rng/rng.h"

namespace seg {

class SchellingModel {
 public:
  // Engine set indices.
  static constexpr int kUnhappySet = 0;
  static constexpr int kFlippableSet = 1;

  // Random Bernoulli(p) initial configuration.
  SchellingModel(const ModelParams& params, Rng& rng);

  // Explicit initial configuration; spins must be +1/-1, size n*n.
  SchellingModel(const ModelParams& params, std::vector<std::int8_t> spins);

  // Sharded variants for the parallel sweep engine
  // (core/parallel_dynamics.h): the unhappy/flippable sets are split per
  // shard of `layout`. Serial dynamics must not drive a sharded model —
  // the no-arg set accessors below only see shard 0.
  SchellingModel(const ModelParams& params, Rng& rng, ShardLayout layout);
  SchellingModel(const ModelParams& params, std::vector<std::int8_t> spins,
                 ShardLayout layout);

  // Graph-topology variants: agents live on `graph`'s nodes, happiness
  // thresholds are per-node K_v = ceil(tau * N_v) over the node's own
  // neighborhood size, and `partition` (graph/partition.h) plays the
  // ShardLayout role for the parallel sweep engine. `params.n`/`params.w`
  // keep their torus meaning only for builders that derive the graph from
  // them; the engine itself reads nothing but tau/tau_minus.
  SchellingModel(const ModelParams& params,
                 std::shared_ptr<const GraphTopology> graph, Rng& rng,
                 GraphPartition partition = GraphPartition());
  SchellingModel(const ModelParams& params,
                 std::shared_ptr<const GraphTopology> graph,
                 std::vector<std::int8_t> spins,
                 GraphPartition partition = GraphPartition());

  const ModelParams& params() const { return params_; }
  int side() const { return params_.n; }
  int horizon() const { return params_.w; }
  // Torus-mode stencil size; graph-mode callers need the per-node
  // neighborhood_size_of() below (degrees vary across the graph).
  int neighborhood_size() const { return N_; }
  // Threshold for +1 agents (equal to the -1 threshold in the symmetric
  // model); use happy_threshold_of() in the asymmetric variant. Both are
  // torus-mode values — graph mode thresholds are per node.
  int happy_threshold() const { return k_plus_; }
  int happy_threshold_of(std::int8_t type) const {
    return type > 0 ? k_plus_ : k_minus_;
  }
  std::size_t agent_count() const { return engine_.size(); }

  bool graph_mode() const { return engine_.graph_mode(); }
  // Null in torus mode.
  const GraphTopology* graph() const { return engine_.graph(); }
  // Neighborhood size of agent id, self included: N in torus mode, the
  // node's CSR row length in graph mode.
  int neighborhood_size_of(std::uint32_t id) const {
    return engine_.neighborhood_size(id);
  }
  // Happiness threshold of agent id if it were of `type`:
  // ceil(tau_type * N_id). Equals happy_threshold_of(type) in torus mode.
  int happy_threshold_at(std::uint32_t id, std::int8_t type) const {
    if (!graph_mode()) return happy_threshold_of(type);
    return happiness_threshold(params_.tau_of(type),
                               neighborhood_size_of(id));
  }
  // Can a flip at id write another shard's storage? Unified over stripe
  // layouts and graph partitions — the parallel sweep engine's routing
  // question.
  bool shard_boundary(std::uint32_t id) const {
    return engine_.shard_boundary(id);
  }

  std::int8_t spin(std::uint32_t id) const { return engine_.spin(id); }
  std::int8_t spin_at(int x, int y) const;
  // Snapshot of the spin field, one byte per site. Returns BY VALUE: the
  // engine stores bits and has no byte array to reference — hot loops
  // should iterate spin(id) or hoist one snapshot instead of calling this
  // per element.
  std::vector<std::int8_t> spins() const { return engine_.spins_snapshot(); }
  std::vector<std::int8_t> spins_snapshot() const {
    return engine_.spins_snapshot();
  }
  // One-bit-per-site copy of the field (a word copy); feeds the popcount
  // scanners (PackedHaloField, packed_window_count).
  BitField packed_spins() const { return engine_.packed_spins(); }

  std::uint32_t id_of(int x, int y) const;
  Point point_of(std::uint32_t id) const;

  // Count of +1 spins in the neighborhood of agent id (self included).
  std::int32_t plus_count(std::uint32_t id) const {
    return engine_.plus_count(id);
  }
  // Count of agents sharing id's type in its neighborhood (self included).
  std::int32_t same_count(std::uint32_t id) const;

  bool is_happy(std::uint32_t id) const {
    return same_count(id) >= happy_threshold_at(id, spin(id));
  }
  bool is_unhappy(std::uint32_t id) const { return !is_happy(id); }
  // Would flipping make the agent happy? (N - same + 1 >= K after flip.)
  bool flip_makes_happy(std::uint32_t id) const;
  bool is_flippable(std::uint32_t id) const {
    return is_unhappy(id) && flip_makes_happy(id);
  }

  const AgentSet& unhappy_set() const { return engine_.set(kUnhappySet); }
  const AgentSet& flippable_set() const {
    return engine_.set(kFlippableSet);
  }

  // Sharding interface. shard_count() is 1 for serially-constructed
  // models, in which case unhappy_set(0)/flippable_set(0) are the
  // classic global sets.
  int shard_count() const { return engine_.shard_count(); }
  const ShardLayout& shard_layout() const { return engine_.layout(); }
  const AgentSet& unhappy_set(int shard) const {
    return engine_.set(kUnhappySet, shard);
  }
  const AgentSet& flippable_set(int shard) const {
    return engine_.set(kFlippableSet, shard);
  }
  // Shard-routed membership probes (exact at any shard count).
  bool in_unhappy_set(std::uint32_t id) const {
    return engine_.in_set(kUnhappySet, id);
  }
  bool in_flippable_set(std::uint32_t id) const {
    return engine_.in_set(kFlippableSet, id);
  }
  std::size_t count_flippable() const {
    return engine_.set_size(kFlippableSet);
  }
  // O(1) classification read off the engine's membership code byte (no
  // window rescan, no shard-routed set probe). The synchronous sweep's
  // row-wise batch builder scans this over ascending ids so the
  // accept/reject test is one byte test per site.
  bool flippable_cached(std::uint32_t id) const {
    return ((engine_.code(id) >> kFlippableSet) & 1u) != 0;
  }

  // Flips the spin of `id` and restores all invariants in one window
  // pass; set updates fire only on threshold crossings.
  // Unconditional: dynamics engines only call it on flippable agents, but
  // the firewall/adversarial experiments may force arbitrary flips.
  void flip(std::uint32_t id) { engine_.flip(id); }

  // Streaming-measurement hook: the observer fires after every flip (see
  // the FlipObserver contract in lattice/engine.h). Serial dynamics only;
  // sharded sweeps must use ParallelOptions::streaming instead.
  void set_flip_observer(FlipObserver* observer) {
    engine_.set_observer(observer);
  }
  FlipObserver* flip_observer() const { return engine_.observer(); }

  // Paper's termination certificate: the process has stopped when no
  // unhappy agent can become happy by flipping. Aggregates across shards.
  bool terminated() const { return count_flippable() == 0; }

  // Lyapunov function of Sec. II-A ("Termination"): sum over all agents of
  // their same-type neighbor count. Strictly increases with every flip of
  // a flippable agent. O(n^2) to evaluate.
  std::int64_t lyapunov() const;

  std::size_t count_unhappy() const {
    return engine_.set_size(kUnhappySet);
  }
  // Fraction of agents currently happy.
  double happy_fraction() const;
  // Fraction of +1 agents.
  double plus_fraction() const;

  // Full O(n^2 (recount)) invariant audit used by tests and debug builds.
  bool check_invariants() const;

  // The neighborhood's offset stencil (includes (0,0)); size == N.
  const std::vector<Point>& offsets() const { return engine_.offsets(); }

 private:
  static BinarySpinEngine make_engine(const ModelParams& params,
                                      std::vector<std::int8_t> spins,
                                      ShardLayout layout);
  static BinarySpinEngine make_graph_engine(
      const ModelParams& params, std::shared_ptr<const GraphTopology> graph,
      std::vector<std::int8_t> spins, GraphPartition partition);

  ModelParams params_;
  int N_;        // neighborhood size
  int k_plus_;   // happiness threshold for +1 agents
  int k_minus_;  // happiness threshold for -1 agents
  BinarySpinEngine engine_;
};

// Offset stencil for a shape/horizon pair, (0,0) included.
std::vector<Point> neighborhood_offsets(NeighborhoodShape shape, int w);

// Draws a +1/-1 spin field of side n with P(+1) = p.
std::vector<std::int8_t> random_spins(int n, double p, Rng& rng);

// Draws `count` +1/-1 spins with P(+1) = p — the graph-node analogue of
// random_spins (identical draw sequence, so a torus-built graph with
// count = n*n sees the same initial field as the native model).
std::vector<std::int8_t> random_spins_count(std::size_t count, double p,
                                            Rng& rng);

}  // namespace seg

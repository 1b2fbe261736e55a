// Randomized invariant fuzzing of the incremental lattice engines.
//
// Each harness drives ~10k random mutations through BinarySpinEngine (or
// its sibling incremental engines) via the five model policies —
// Schelling (dense Moore and sparse von Neumann stencils, symmetric and
// asymmetric thresholds), comfort band, vacancy relocation, multi-type,
// and Kawasaki swaps — and calls the full-recount check_invariants audit
// at random intervals. The mutations are *arbitrary* (any site, happy or
// not), which exercises every crossing direction of the membership
// tables, not just the trajectories the dynamics visit. Conserved
// quantities (magnetization under swaps, agent/vacancy totals and type
// counts under relocations) are asserted exactly.
//
// In Debug / sanitizer builds the SEG_ASSERT instrumentation inside
// flip/touch/apply_code reports the offending site, span, and set index
// at the first corrupt update instead of leaving the divergence to a
// later audit.
#include <cstdint>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "core/vacancy.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "lattice/sharded.h"
#include "multitype/multi_model.h"
#include "rng/rng.h"

namespace seg {
namespace {

constexpr int kSteps = 10000;

// Audits are O(n^2 N); running one every ~kSteps/25 random steps keeps
// the suite fast while still interleaving audits with every mutation mix.
bool audit_due(Rng& rng) { return rng.uniform_below(400) == 0; }

std::int64_t magnetization(const std::vector<std::int8_t>& spins) {
  return std::accumulate(spins.begin(), spins.end(), std::int64_t{0},
                         [](std::int64_t acc, std::int8_t s) {
                           return acc + s;
                         });
}

TEST(InvariantFuzz, SchellingArbitraryFlips) {
  struct Config {
    ModelParams params;
    std::uint64_t seed;
  };
  const Config configs[] = {
      {{.n = 32, .w = 2, .tau = 0.45, .p = 0.5}, 31001},
      {{.n = 24, .w = 4, .tau = 0.55, .p = 0.4}, 31002},  // super-unhappy
      {{.n = 32, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.6,
        .shape = NeighborhoodShape::kVonNeumann},
       31003},  // sparse stencil + asymmetric thresholds
  };
  for (const Config& config : configs) {
    Rng rng(config.seed);
    SchellingModel model(config.params, rng);
    ASSERT_TRUE(model.check_invariants());
    int audits = 0;
    for (int step = 0; step < kSteps; ++step) {
      model.flip(static_cast<std::uint32_t>(
          rng.uniform_below(model.agent_count())));
      if (audit_due(rng)) {
        ++audits;
        ASSERT_TRUE(model.check_invariants())
            << "n=" << config.params.n << " step " << step;
      }
    }
    EXPECT_GT(audits, 0);
    ASSERT_TRUE(model.check_invariants());
  }
}

TEST(InvariantFuzz, ShardedEngineArbitraryFlips) {
  // Arbitrary serial flips over sharded engines — boundary sites
  // included — must keep every membership in its owning shard's slice
  // (the audit cross-checks all shard slices per site). Torus stripes,
  // and a graph partition whose parts share 64-node spin words (atomic
  // bit flips).
  ModelParams params{.n = 36, .w = 2, .tau = 0.45, .p = 0.5};
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::random_regular(512, 8, /*seed=*/32003));
  for (const bool on_graph : {false, true}) {
    Rng rng(32001 + on_graph);
    SchellingModel model =
        on_graph ? SchellingModel(params, graph, rng,
                                  GraphPartition::greedy_bfs(*graph, 4))
                 : SchellingModel(params, rng,
                                  ShardLayout::stripes(params.n, params.w, 4));
    ASSERT_EQ(model.shard_count(), 4);
    ASSERT_TRUE(model.check_invariants());
    for (int step = 0; step < kSteps; ++step) {
      model.flip(static_cast<std::uint32_t>(
          rng.uniform_below(model.agent_count())));
      if (audit_due(rng)) {
        ASSERT_TRUE(model.check_invariants()) << "step " << step;
      }
    }
    ASSERT_TRUE(model.check_invariants());
    // The per-shard sets partition the classic global classification.
    std::size_t unhappy_total = 0;
    for (int s = 0; s < model.shard_count(); ++s) {
      unhappy_total += model.unhappy_set(s).size();
    }
    EXPECT_EQ(unhappy_total, model.count_unhappy());
  }
}

TEST(InvariantFuzz, ComfortBandArbitraryFlips) {
  const ModelParams configs[] = {
      {.n = 32, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8},
      {.n = 24, .w = 3, .tau = 0.3, .p = 0.45, .tau_hi = 0.6},
      {.n = 24, .w = 3, .tau = 0.45, .p = 0.5, .tau_minus = 0.3,
       .shape = NeighborhoodShape::kVonNeumann, .tau_hi = 0.7},
  };
  std::uint64_t seed = 33001;
  for (const ModelParams& params : configs) {
    Rng rng(seed++);
    SchellingModel model(params, rng);
    ASSERT_TRUE(model.check_invariants());
    for (int step = 0; step < kSteps; ++step) {
      model.flip(static_cast<std::uint32_t>(
          rng.uniform_below(model.agent_count())));
      if (audit_due(rng)) {
        ASSERT_TRUE(model.check_invariants()) << "step " << step;
      }
    }
    ASSERT_TRUE(model.check_invariants());
  }
}

TEST(InvariantFuzz, KawasakiSwapsConserveMagnetization) {
  ModelParams params{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng rng(34001);
  SchellingModel model(params, rng);
  const std::int64_t conserved = magnetization(model.spins());
  for (int step = 0; step < kSteps / 2; ++step) {
    // Arbitrary opposite-spin pair, swapped unconditionally (two flips)
    // — harsher than the dynamics, which only swaps improving pairs.
    const auto a = static_cast<std::uint32_t>(
        rng.uniform_below(model.agent_count()));
    const auto b = static_cast<std::uint32_t>(
        rng.uniform_below(model.agent_count()));
    if (model.spin(a) == model.spin(b)) continue;
    model.flip(a);
    model.flip(b);
    if (audit_due(rng)) {
      ASSERT_TRUE(model.check_invariants()) << "step " << step;
      ASSERT_EQ(magnetization(model.spins()), conserved) << "step " << step;
    }
  }
  ASSERT_TRUE(model.check_invariants());
  EXPECT_EQ(magnetization(model.spins()), conserved);
}

TEST(InvariantFuzz, VacancyMovesConserveAllCounts) {
  VacancyParams params{.n = 32, .w = 2, .tau = 0.45, .vacancy = 0.15,
                       .p = 0.5};
  Rng rng(35001);
  VacancyModel model(params, rng);
  ASSERT_TRUE(model.check_invariants());
  const std::size_t agents = model.agent_total();
  const std::size_t vacancies = model.vacancy_total();
  std::int64_t plus = 0;
  for (const std::int8_t s : model.sites()) plus += (s == 1);
  int moves = 0;
  for (int step = 0; step < kSteps; ++step) {
    // Random occupied -> random vacant relocation, regardless of
    // happiness (the dynamics would be pickier).
    const auto from = static_cast<std::uint32_t>(
        rng.uniform_below(model.site_count()));
    if (!model.occupied(from)) continue;
    const std::uint32_t to = model.vacant_set().at(
        rng.uniform_below(model.vacant_set().size()));
    model.move(from, to);
    ++moves;
    if (audit_due(rng)) {
      ASSERT_TRUE(model.check_invariants()) << "step " << step;
      ASSERT_EQ(model.agent_total(), agents);
      ASSERT_EQ(model.vacancy_total(), vacancies);
      std::int64_t plus_now = 0;
      for (const std::int8_t s : model.sites()) plus_now += (s == 1);
      ASSERT_EQ(plus_now, plus) << "type counts drifted at step " << step;
    }
  }
  EXPECT_GT(moves, kSteps / 2);
  ASSERT_TRUE(model.check_invariants());
  EXPECT_EQ(model.agent_total(), agents);
  EXPECT_EQ(model.vacancy_total(), vacancies);
}

TEST(InvariantFuzz, MultiTypeArbitrarySwitches) {
  MultiParams params{.n = 28, .w = 2, .q = 5, .tau = 0.35};
  Rng rng(36001);
  MultiTypeModel model(params, rng);
  ASSERT_TRUE(model.check_invariants());
  const std::size_t agents = model.agent_count();
  for (int step = 0; step < kSteps; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_below(agents));
    // Uniform type different from the current one.
    const auto hop = 1 + rng.uniform_below(
                             static_cast<std::uint64_t>(params.q - 1));
    const auto next = static_cast<std::uint8_t>(
        (model.type_of(id) + hop) % params.q);
    model.set_type(id, next);
    if (audit_due(rng)) {
      ASSERT_TRUE(model.check_invariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(model.check_invariants());
}

TEST(InvariantFuzz, ShardedSweepsAuditCleanMidRun) {
  // The parallel engine itself under fuzz: interleave bounded sweep
  // bursts with full audits and conservation bookkeeping of the flip
  // counters (applied = interior + reconciled).
  ModelParams params{.n = 48, .w = 2, .tau = 0.45, .p = 0.5};
  Rng rng(37001);
  SchellingModel model(params, rng,
                       ShardLayout::stripes(params.n, params.w, 3));
  ParallelOptions opt;
  opt.sweep_quantum = 37;  // deliberately odd, forces frequent barriers
  std::uint64_t total_flips = 0, total_deferred = 0, total_reconciled = 0;
  for (int burst = 0; burst < 60 && !model.terminated(); ++burst) {
    opt.max_sweeps = 1 + rng.uniform_below(4);
    const ParallelRunResult run =
        run_parallel_glauber(model, 37002 + burst, opt);
    total_flips += run.flips;
    total_deferred += run.deferred;
    total_reconciled += run.reconciled;
    ASSERT_TRUE(model.check_invariants()) << "burst " << burst;
    ASSERT_LE(run.reconciled, run.deferred);
  }
  EXPECT_GT(total_flips, 0u);
  EXPECT_LE(total_reconciled, total_deferred);
}

}  // namespace
}  // namespace seg

#include "core/model.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/comfort.h"
#include "core/params.h"
#include "lattice/membership.h"

namespace seg {
namespace {

std::vector<std::int8_t> uniform_spins(int n, std::int8_t v) {
  return std::vector<std::int8_t>(static_cast<std::size_t>(n) * n, v);
}

TEST(ModelParams, DerivedQuantities) {
  ModelParams p{.n = 64, .w = 10, .tau = 0.42, .p = 0.5};
  EXPECT_EQ(p.neighborhood_size(), 441);
  EXPECT_EQ(p.happy_threshold(), 186);
  EXPECT_TRUE(p.valid());
}

TEST(ModelParams, InvalidWhenNeighborhoodExceedsGrid) {
  ModelParams p{.n = 5, .w = 3, .tau = 0.4, .p = 0.5};
  EXPECT_FALSE(p.valid());
}

TEST(ModelParams, InvalidWhenWindowExceedsCountLimit) {
  // int16 counts: Moore windows fit up to w = 90 (181^2 = 32761 sites),
  // von Neumann diamonds up to w = 127 (32513 sites).
  ModelParams p{.n = 400, .w = 90, .tau = 0.45, .p = 0.5};
  EXPECT_TRUE(p.valid());
  p.w = 91;
  EXPECT_FALSE(p.valid());
  p.shape = NeighborhoodShape::kVonNeumann;
  p.w = 127;
  EXPECT_TRUE(p.valid());
  p.w = 128;
  EXPECT_FALSE(p.valid());
  EXPECT_GT(window_site_count(NeighborhoodShape::kVonNeumann, 128),
            kMaxNeighborhoodSize);
  // No overflow on absurd radii.
  EXPECT_FALSE((ModelParams{.n = 2147483647, .w = 1000000000}.valid()));
  ComfortParams c{.n = 400, .w = 90};
  EXPECT_TRUE(c.valid());
  c.w = 91;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE((ComfortParams{.n = 2147483647, .w = 1000000000}.valid()));
}

TEST(Model, LargestWindowCountsInInt16) {
  // w = 90 on n = 181: every window is the whole torus, 32761 sites.
  const int n = 181;
  SchellingModel m({.n = n, .w = 90, .tau = 0.45, .p = 0.5},
                   uniform_spins(n, 1));
  EXPECT_EQ(m.plus_count(0), 32761);
  m.flip(12345);
  EXPECT_EQ(m.plus_count(0), 32760);
  EXPECT_EQ(m.plus_count(n * n - 1), 32760);
  EXPECT_EQ(m.spin(12345), -1);
}

TEST(AgentSetTest, InsertEraseContains) {
  AgentSet s(10);
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(7);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
}

TEST(AgentSetTest, DuplicateInsertIgnored) {
  AgentSet s(4);
  s.insert(1);
  s.insert(1);
  EXPECT_EQ(s.size(), 1u);
}

TEST(AgentSetTest, EraseAbsentIgnored) {
  AgentSet s(4);
  s.erase(2);
  EXPECT_TRUE(s.empty());
}

TEST(AgentSetTest, SampleReturnsMember) {
  AgentSet s(100);
  for (std::uint32_t i = 10; i < 20; ++i) s.insert(i);
  Rng rng(1);
  for (int t = 0; t < 100; ++t) {
    const std::uint32_t v = s.sample(rng);
    EXPECT_GE(v, 10u);
    EXPECT_LT(v, 20u);
  }
}

TEST(Model, UniformConfigurationIsAllHappy) {
  ModelParams p{.n = 12, .w = 2, .tau = 0.45, .p = 0.5};
  SchellingModel m(p, uniform_spins(12, 1));
  EXPECT_TRUE(m.terminated());
  EXPECT_EQ(m.count_unhappy(), 0u);
  EXPECT_DOUBLE_EQ(m.happy_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(m.plus_fraction(), 1.0);
}

TEST(Model, PlusCountMatchesDefinition) {
  ModelParams p{.n = 8, .w = 1, .tau = 0.4, .p = 0.5};
  // Single -1 at (3, 3) in a field of +1.
  auto spins = uniform_spins(8, 1);
  spins[3 * 8 + 3] = -1;
  SchellingModel m(p, spins);
  // Agents adjacent to (3,3) see 8 of 9 plus.
  EXPECT_EQ(m.plus_count(m.id_of(3, 3)), 8);
  EXPECT_EQ(m.plus_count(m.id_of(2, 3)), 8);
  EXPECT_EQ(m.plus_count(m.id_of(0, 0)), 9);
}

TEST(Model, SameCountUsesOwnType) {
  ModelParams p{.n = 8, .w = 1, .tau = 0.4, .p = 0.5};
  auto spins = uniform_spins(8, 1);
  spins[3 * 8 + 3] = -1;
  SchellingModel m(p, spins);
  EXPECT_EQ(m.same_count(m.id_of(3, 3)), 1);   // only itself
  EXPECT_EQ(m.same_count(m.id_of(2, 3)), 8);   // all but the -1
}

TEST(Model, HappinessThresholdRespected) {
  // N = 9, tau = 0.4 -> K = 4 same-type agents needed.
  ModelParams p{.n = 9, .w = 1, .tau = 0.4, .p = 0.5};
  auto spins = uniform_spins(9, 1);
  // Give (4,4) exactly 3 same-type (incl. self): 6 of its 8 neighbors -1.
  spins[3 * 9 + 3] = -1;
  spins[3 * 9 + 4] = -1;
  spins[3 * 9 + 5] = -1;
  spins[4 * 9 + 3] = -1;
  spins[4 * 9 + 5] = -1;
  spins[5 * 9 + 3] = -1;
  SchellingModel m(p, spins);
  EXPECT_EQ(m.happy_threshold(), 4);
  EXPECT_EQ(m.same_count(m.id_of(4, 4)), 3);
  EXPECT_TRUE(m.is_unhappy(m.id_of(4, 4)));
}

TEST(Model, FlipMakesHappyForLowTau) {
  // For tau < 1/2 every unhappy agent becomes happy by flipping
  // (paper Sec. II-A, first observation).
  ModelParams p{.n = 16, .w = 2, .tau = 0.44, .p = 0.5};
  Rng rng(7);
  SchellingModel m(p, rng);
  for (const std::uint32_t id : m.unhappy_set().items()) {
    EXPECT_TRUE(m.flip_makes_happy(id));
    EXPECT_TRUE(m.is_flippable(id));
  }
  EXPECT_EQ(m.unhappy_set().size(), m.flippable_set().size());
}

TEST(Model, SuperUnhappyDistinctionForHighTau) {
  // For tau > 1/2 an unhappy agent flips only if the flip makes it happy;
  // near-balanced neighborhoods leave agents unhappy but unflippable.
  ModelParams p{.n = 16, .w = 2, .tau = 0.6, .p = 0.5};
  Rng rng(11);
  SchellingModel m(p, rng);
  EXPECT_LE(m.flippable_set().size(), m.unhappy_set().size());
  bool found_unflippable = false;
  for (const std::uint32_t id : m.unhappy_set().items()) {
    if (!m.is_flippable(id)) {
      found_unflippable = true;
      // Verify directly: after a flip it would still be below threshold.
      const int after = m.neighborhood_size() - m.same_count(id) + 1;
      EXPECT_LT(after, m.happy_threshold());
    }
  }
  // At tau = 0.6 with p = 1/2, near-balanced neighborhoods are common.
  EXPECT_TRUE(found_unflippable);
}

TEST(Model, FlipUpdatesSpinAndCounts) {
  ModelParams p{.n = 10, .w = 2, .tau = 0.45, .p = 0.5};
  Rng rng(3);
  SchellingModel m(p, rng);
  const std::uint32_t id = m.id_of(5, 5);
  const std::int8_t before = m.spin(id);
  m.flip(id);
  EXPECT_EQ(m.spin(id), -before);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Model, DoubleFlipRestoresState) {
  ModelParams p{.n = 10, .w = 2, .tau = 0.45, .p = 0.5};
  Rng rng(5);
  SchellingModel m(p, rng);
  const auto spins_before = m.spins();
  const std::uint32_t id = m.id_of(2, 7);
  m.flip(id);
  m.flip(id);
  EXPECT_EQ(m.spins(), spins_before);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Model, RandomFlipSequencePreservesInvariants) {
  ModelParams p{.n = 12, .w = 3, .tau = 0.4, .p = 0.5};
  Rng rng(13);
  SchellingModel m(p, rng);
  for (int t = 0; t < 50; ++t) {
    const auto id = static_cast<std::uint32_t>(
        rng.uniform_below(m.agent_count()));
    m.flip(id);
  }
  EXPECT_TRUE(m.check_invariants());
}

TEST(Model, LyapunovIncreasesOnFlippableFlip) {
  ModelParams p{.n = 16, .w = 2, .tau = 0.45, .p = 0.5};
  Rng rng(17);
  SchellingModel m(p, rng);
  ASSERT_FALSE(m.terminated());
  for (int t = 0; t < 10 && !m.terminated(); ++t) {
    const std::int64_t before = m.lyapunov();
    const std::uint32_t id = m.flippable_set().sample(rng);
    m.flip(id);
    EXPECT_GT(m.lyapunov(), before);
  }
}

TEST(Model, IdPointRoundTrip) {
  ModelParams p{.n = 9, .w = 1, .tau = 0.4, .p = 0.5};
  Rng rng(19);
  SchellingModel m(p, rng);
  for (const int x : {0, 4, 8}) {
    for (const int y : {0, 3, 8}) {
      const Point pt = m.point_of(m.id_of(x, y));
      EXPECT_EQ(pt.x, x);
      EXPECT_EQ(pt.y, y);
    }
  }
  // Wrapping coordinates resolve to the same agent.
  EXPECT_EQ(m.id_of(-1, 0), m.id_of(8, 0));
}

TEST(Model, BernoulliInitialMixRoughlyBalanced) {
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  Rng rng(23);
  SchellingModel m(p, rng);
  EXPECT_NEAR(m.plus_fraction(), 0.5, 0.05);
}

TEST(Model, BiasedInitialMix) {
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.8};
  Rng rng(29);
  SchellingModel m(p, rng);
  EXPECT_NEAR(m.plus_fraction(), 0.8, 0.05);
}

TEST(Model, InitialCountsMatchBruteForce) {
  ModelParams p{.n = 11, .w = 3, .tau = 0.4, .p = 0.5};
  Rng rng(31);
  SchellingModel m(p, rng);
  EXPECT_TRUE(m.check_invariants());
}

class ModelParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(ModelParamSweep, InvariantsAfterConstructionAndFlips) {
  const auto [n, w, tau] = GetParam();
  ModelParams p{.n = n, .w = w, .tau = tau, .p = 0.5};
  ASSERT_TRUE(p.valid());
  Rng rng(static_cast<std::uint64_t>(n * 1000 + w * 10) ^
          static_cast<std::uint64_t>(tau * 1e6));
  SchellingModel m(p, rng);
  EXPECT_TRUE(m.check_invariants());
  for (int t = 0; t < 20 && !m.terminated(); ++t) {
    m.flip(m.flippable_set().sample(rng));
  }
  EXPECT_TRUE(m.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelParamSweep,
    ::testing::Combine(::testing::Values(8, 12, 16),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0.3, 0.4, 0.45, 0.55, 0.7)));

}  // namespace
}  // namespace seg

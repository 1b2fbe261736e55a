// The 1-D ring baseline (Brandt et al. [23], Barmpalias et al. [24]) on
// the shared engine: GraphTopology::ring(n, w) driven by run_discrete,
// which for tau <= 1/2 is the Glauber jump chain (see
// bench/exp_one_dimensional.cc).
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "analysis/clusters.h"
#include "core/dynamics.h"
#include "golden_fixtures.h"
#include "graph/topology.h"

namespace seg {
namespace {

std::shared_ptr<const GraphTopology> ring(int n, int w) {
  return std::make_shared<const GraphTopology>(GraphTopology::ring(n, w));
}

ModelParams ring_params(double tau) { return {.tau = tau, .p = 0.5}; }

double mean_run_length(const SchellingModel& m) {
  return static_cast<double>(m.agent_count()) /
         static_cast<double>(run_lengths(m.spins()).size());
}

TEST(Ring, UniformRingIsTerminated) {
  SchellingModel m(ring_params(0.5), ring(64, 2),
                   std::vector<std::int8_t>(64, 1));
  EXPECT_TRUE(m.terminated());
  EXPECT_EQ(run_lengths(m.spins()), std::vector<int>{64});
  EXPECT_DOUBLE_EQ(mean_run_length(m), 64.0);
}

TEST(Ring, SameCountMatchesBruteForce) {
  Rng rng(1);
  SchellingModel m(ring_params(0.5), ring(32, 3), rng);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Ring, FlipTogglesAndPreservesInvariants) {
  Rng rng(2);
  SchellingModel m(ring_params(0.4), ring(32, 2), rng);
  const std::int8_t before = m.spin(10);
  m.flip(10);
  EXPECT_EQ(m.spin(10), -before);
  EXPECT_TRUE(m.check_invariants());
  m.flip(10);
  EXPECT_TRUE(m.check_invariants());
}

TEST(Ring, WindowsWrapAround) {
  Rng rng(3);
  SchellingModel m(ring_params(0.4), ring(16, 1), rng);
  // Nodes 15 and 0 are neighbours across the seam, in both directions.
  EXPECT_TRUE(m.graph()->adjacent(0, 15));
  EXPECT_TRUE(m.graph()->adjacent(15, 0));
  EXPECT_FALSE(m.graph()->adjacent(0, 14));
  const std::int32_t before = m.plus_count(0);
  m.flip(15);
  EXPECT_EQ(m.plus_count(0), before + (m.spin(15) > 0 ? 1 : -1));
  EXPECT_TRUE(m.check_invariants());
}

TEST(Ring, GlauberTerminates) {
  Rng rng(4);
  SchellingModel m(ring_params(0.45), ring(256, 2), rng);
  Rng dyn(5);
  EXPECT_TRUE(run_discrete(m, dyn).terminated);
  EXPECT_TRUE(m.terminated());
  EXPECT_TRUE(m.check_invariants());
}

TEST(Ring, RunLengthsPartitionTheRing) {
  Rng rng(6);
  SchellingModel m(ring_params(0.45), ring(128, 2), rng);
  const auto lengths = run_lengths(m.spins());
  EXPECT_EQ(std::accumulate(lengths.begin(), lengths.end(), 0), 128);
  for (const int l : lengths) EXPECT_GE(l, 1);
}

TEST(Ring, RunLengthsAlternateTypes) {
  // Explicit pattern +++--+-----+ : the leading +++ joins the trailing +
  // across the seam, so the runs are 4 (+), 2 (-), 1 (+), 5 (-), listed
  // from the first run start.
  const std::vector<std::int8_t> spins{1,  1,  1,  -1, -1, 1,
                                       -1, -1, -1, -1, -1, 1};
  EXPECT_EQ(run_lengths(spins), (std::vector<int>{2, 1, 5, 4}));
}

TEST(Ring, SegregationGrowsRunLengths) {
  Rng rng(7);
  SchellingModel m(ring_params(0.45), ring(4096, 4), rng);
  const double before = mean_run_length(m);
  Rng dyn(8);
  run_discrete(m, dyn);
  EXPECT_GT(mean_run_length(m), before);
}

TEST(Ring, MeanRunLengthGrowsWithW) {
  // Barmpalias et al.: segregated regions grow with the neighborhood.
  double prev = 0.0;
  for (const int w : {2, 4, 8}) {
    Rng rng(100 + w);
    SchellingModel m(ring_params(0.45), ring(1 << 13, w), rng);
    Rng dyn(200 + w);
    run_discrete(m, dyn);
    const double mean = mean_run_length(m);
    EXPECT_GT(mean, prev) << "w=" << w;
    prev = mean;
  }
}

TEST(Ring, VeryLowTauIsNearlyStatic) {
  Rng rng(9);
  SchellingModel m(ring_params(0.2), ring(4096, 4), rng);
  Rng dyn(10);
  // tau = 0.2 < tau* ~ 0.35: w.h.p. the configuration is static.
  EXPECT_LT(run_discrete(m, dyn).flips, 50u);
}

TEST(Ring, FlipBudgetHonored) {
  Rng rng(11);
  SchellingModel m(ring_params(0.45), ring(2048, 3), rng);
  Rng dyn(12);
  RunOptions budget;
  budget.max_flips = 7;
  const RunResult r = run_discrete(m, dyn, budget);
  EXPECT_EQ(r.flips, 7u);
  EXPECT_FALSE(r.terminated);
}

TEST(Ring, DeterministicForSeed) {
  const auto topology = ring(512, 2);
  Rng ra(13), rb(13);
  SchellingModel a(ring_params(0.45), topology, ra);
  SchellingModel b(ring_params(0.45), topology, rb);
  Rng da(14), db(14);
  run_discrete(a, da);
  run_discrete(b, db);
  EXPECT_EQ(a.spins(), b.spins());
}

// Final spins and flip counts of Glauber runs on ring(4096, w), frozen
// from the dedicated ring engine (RingModel::run_glauber) before the ring
// moved onto the graph engine. Each hash mixes, for seeds 1 and 2, the
// FNV-1a hash of the final spins and then the flip count; the initial
// field draws from Rng::stream(seed, 0), the dynamics from
// Rng::stream(seed, 1). Equal rows share thresholds: K = ceil(tau (2w+1))
// coincides across those tau.
struct FrozenRing {
  double tau;
  int w;
  std::uint64_t hash;
};
constexpr FrozenRing kFrozenRings[] = {
    {0.30, 1, 0x9a59899e288bc81aull},  {0.30, 2, 0xa96e52a3d40fbcc0ull},
    {0.30, 4, 0xcf2ffc3b06d40d04ull},  {0.30, 8, 0xb3dcee35bb2cf453ull},
    {0.30, 12, 0xee4c013ee86427adull}, {0.40, 1, 0x5b7b16d23249ccdcull},
    {0.40, 2, 0xa96e52a3d40fbcc0ull},  {0.40, 4, 0x211ce01848a51cf8ull},
    {0.40, 8, 0x24305e2f6d5518c0ull},  {0.40, 12, 0x85ab7334988fedb8ull},
    {0.45, 1, 0x5b7b16d23249ccdcull},  {0.45, 2, 0xd143f23c7deee538ull},
    {0.45, 4, 0x5fcd38dd865d2dbcull},  {0.45, 8, 0xf77f59ac2af7287bull},
    {0.45, 12, 0xaeb66d4bbfcddc10ull}, {0.50, 1, 0x5b7b16d23249ccdcull},
    {0.50, 2, 0xd143f23c7deee538ull},  {0.50, 4, 0x5fcd38dd865d2dbcull},
    {0.50, 8, 0xdffdab69b0f87ccfull},  {0.50, 12, 0x2a40dca06f538069ull},
};

TEST(Ring, DiscreteReproducesFrozenGlauberTrajectories) {
  for (const FrozenRing& frozen : kFrozenRings) {
    const auto topology = ring(4096, frozen.w);
    std::uint64_t h = golden::hash_bytes(nullptr, 0);
    for (const std::uint64_t seed : {1u, 2u}) {
      Rng init = Rng::stream(seed, 0);
      SchellingModel m(ring_params(frozen.tau), topology, init);
      Rng dyn = Rng::stream(seed, 1);
      const RunResult r = run_discrete(m, dyn);
      ASSERT_TRUE(r.terminated);
      const auto spins = m.spins();
      h = golden::mix(h, golden::hash_bytes(spins.data(), spins.size()));
      h = golden::mix(h, r.flips);
    }
    EXPECT_EQ(h, frozen.hash) << "tau=" << frozen.tau << " w=" << frozen.w;
  }
}

}  // namespace
}  // namespace seg

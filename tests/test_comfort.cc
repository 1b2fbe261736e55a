// Tests for the comfort-band ("uncomfortable majority") variant from the
// paper's concluding remarks: SchellingModel with a cap ModelParams::tau_hi
// on the same-type fraction.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/model.h"
#include "core/params.h"
#include "grid/point.h"

namespace seg {
namespace {

std::vector<std::int8_t> uniform_spins(int n, std::int8_t v) {
  return std::vector<std::int8_t>(static_cast<std::size_t>(n) * n, v);
}

TEST(ComfortCap, BandEdges) {
  const ModelParams p{.n = 16, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  EXPECT_EQ(p.happy_threshold(), 10);  // ceil(0.4 * 25)
  EXPECT_EQ(comfort_cap(p.tau_hi, 25), 20);  // floor(0.8 * 25)
  EXPECT_EQ(comfort_cap(0.3, 10), 3);  // fp: 0.3 * 10 is a hair above 3
  EXPECT_TRUE(p.valid());
}

TEST(ComfortCap, FullBandIsNoCap) {
  // A cap of N or more caps nothing; it reads N + 1 so that the flipped
  // count of the unreachable +1/count-0 entry stays inside the band.
  EXPECT_EQ(comfort_cap(1.0, 25), 26);
  EXPECT_EQ(comfort_cap(0.99, 25), 24);
  EXPECT_EQ(comfort_cap(1.0 - 1e-12, 25), 26);
}

TEST(ComfortCap, InvalidWhenBandEmpty) {
  ModelParams p{.n = 16, .w = 2, .tau = 0.8, .p = 0.5, .tau_hi = 0.4};
  EXPECT_FALSE(p.valid());
  p.tau = 0.4;
  EXPECT_TRUE(p.valid());
  p.tau_minus = 0.45;  // the -1 band is empty
  p.tau_hi = 0.42;
  EXPECT_FALSE(p.valid());
  p.tau_hi = 1.01;
  EXPECT_FALSE(p.valid());
}

TEST(ComfortCap, UniformGridIsUncomfortable) {
  // All same type: same-count = N > cap, so everybody is unhappy, and a
  // flip lands at same-count 1 < K, so nobody is flippable: terminated
  // but unhappy.
  SchellingModel m({.n = 12, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8},
                   uniform_spins(12, 1));
  EXPECT_EQ(m.count_unhappy(), 144u);
  EXPECT_EQ(m.happy_fraction(), 0.0);
  EXPECT_TRUE(m.terminated());
  EXPECT_TRUE(m.check_invariants());
}

TEST(ComfortCap, FlipMaintainsInvariants) {
  const ModelParams p{.n = 16, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.75};
  Rng rng(7);
  SchellingModel m(p, rng);
  for (int t = 0; t < 30; ++t) {
    m.flip(static_cast<std::uint32_t>(rng.uniform_below(m.agent_count())));
  }
  EXPECT_TRUE(m.check_invariants());
}

TEST(ComfortCap, RunStopsAtBudget) {
  const ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.7};
  Rng init(9);
  SchellingModel m(p, init);
  Rng dyn(10);
  RunOptions options;
  options.max_flips = 17;
  const RunResult r = run_glauber(m, dyn, options);
  EXPECT_EQ(r.flips, 17u);
  EXPECT_FALSE(r.terminated);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ComfortCap, CappedBandSuppressesGiantClusters) {
  // The headline hypothesis of the paper's concluding remarks: if agents
  // dislike being an overwhelming majority, large monochromatic regions
  // should not form. Compare the largest same-type cluster under
  // tau_hi = 1.0 vs tau_hi = 0.7.
  const int n = 48;
  Rng seed_rng(13);
  const auto spins = random_spins(n, 0.5, seed_rng);

  SchellingModel mb({.n = n, .w = 2, .tau = 0.45, .p = 0.5}, spins);
  Rng d1(14);
  EXPECT_TRUE(run_glauber(mb, d1).terminated);

  SchellingModel mc({.n = n, .w = 2, .tau = 0.45, .p = 0.5, .tau_hi = 0.7},
                    spins);
  Rng d2(15);
  RunOptions options;
  options.max_flips = 200000;
  run_glauber(mc, d2, options);

  // Largest same-type cluster, via a simple flood on the spin fields.
  const auto largest = [&](const std::vector<std::int8_t>& s) {
    std::vector<int> label(s.size(), -1);
    std::int64_t best = 0;
    std::vector<std::size_t> queue;
    for (std::size_t start = 0; start < s.size(); ++start) {
      if (label[start] >= 0) continue;
      queue.clear();
      queue.push_back(start);
      label[start] = 1;
      std::int64_t count = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const auto cur = queue[head];
        ++count;
        const int x = static_cast<int>(cur % n);
        const int y = static_cast<int>(cur / n);
        const int dx[4] = {1, -1, 0, 0};
        const int dy[4] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const std::size_t ni =
              static_cast<std::size_t>(torus_wrap(y + dy[k], n)) * n +
              torus_wrap(x + dx[k], n);
          if (label[ni] < 0 && s[ni] == s[cur]) {
            label[ni] = 1;
            queue.push_back(ni);
          }
        }
      }
      best = std::max(best, count);
    }
    return best;
  };
  EXPECT_LT(largest(mc.spins()), largest(mb.spins()));
}

}  // namespace
}  // namespace seg

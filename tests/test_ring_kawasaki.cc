// Kawasaki (swap) dynamics on the ring — the Brandt et al. [23] baseline —
// run by the shared run_kawasaki on GraphTopology::ring(n, w).
#include <memory>

#include <gtest/gtest.h>

#include "analysis/clusters.h"
#include "core/kawasaki.h"
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

std::vector<std::int8_t> alternating(int n) {
  std::vector<std::int8_t> spins(n);
  for (int i = 0; i < n; ++i) spins[i] = (i % 2 == 0) ? 1 : -1;
  return spins;
}

TEST(RingKawasaki, SwapImprovesAppliesAndReverts) {
  // +1 arc then -1 arc: strays deep inside opposite arcs swap happily.
  std::vector<std::int8_t> spins(24, 1);
  for (int i = 12; i < 24; ++i) spins[i] = -1;
  spins[6] = -1;   // stray -1 in the +1 arc
  spins[18] = 1;   // stray +1 in the -1 arc
  SchellingModel m(ring_params(0.6), ring(24, 1), spins);
  ASSERT_FALSE(m.is_happy(6));
  ASSERT_FALSE(m.is_happy(18));
  EXPECT_TRUE(swap_improves(m, 6, 18));
  EXPECT_EQ(m.spin(6), 1);
  EXPECT_EQ(m.spin(18), -1);
  EXPECT_TRUE(m.check_invariants());
}

TEST(RingKawasaki, NonImprovingSwapRestoresState) {
  SchellingModel m(ring_params(0.9), ring(16, 2), alternating(16));
  const auto before = m.spins();
  EXPECT_FALSE(swap_improves(m, 0, 1));
  EXPECT_EQ(m.spins(), before);
  EXPECT_TRUE(m.check_invariants());
}

TEST(RingKawasaki, ConservesTypeCounts) {
  Rng init(1);
  SchellingModel m(ring_params(0.5), ring(512, 2), init);
  const std::int64_t before = m.magnetization();
  Rng dyn(2);
  KawasakiOptions opt;
  opt.max_swaps = 300;
  EXPECT_GT(run_kawasaki(m, dyn, opt).swaps, 0u);
  EXPECT_EQ(m.magnetization(), before);
}

TEST(RingKawasaki, TerminatesOnUniformRing) {
  SchellingModel m(ring_params(0.5), ring(64, 2),
                   std::vector<std::int8_t>(64, 1));
  Rng dyn(3);
  const KawasakiResult r = run_kawasaki(m, dyn);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.swaps, 0u);
}

TEST(RingKawasaki, StaleCheckCertifiesAbsorption) {
  // Alternating ring at tau = 0.9, w = 2: every agent sees 3 of 5
  // same-type and a swap still leaves 3 of 5 — everyone stays unhappy and
  // no swap improves. (At w = 1 swaps *do* improve: each agent's two
  // neighbors have opposite parity, so the swapped pair ends fully
  // surrounded by its own type.)
  SchellingModel m(ring_params(0.9), ring(32, 2), alternating(32));
  Rng dyn(4);
  KawasakiOptions opt;
  opt.stale_check_after = 50;
  const KawasakiResult r = run_kawasaki(m, dyn, opt);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.swaps, 0u);
}

TEST(RingKawasaki, SegregatesAtTauHalf) {
  Rng init(5);
  SchellingModel m(ring_params(0.5), ring(2048, 4), init);
  const double before = mean_run_length(m);
  Rng dyn(6);
  KawasakiOptions opt;
  opt.max_swaps = 100000;
  run_kawasaki(m, dyn, opt);
  EXPECT_GT(mean_run_length(m), before);
}

TEST(RingKawasaki, RunLengthGrowsWithW) {
  // Brandt et al.: expected run length polynomial in w — growing, at any
  // rate, with the window size.
  double prev = 0.0;
  for (const int w : {2, 6}) {
    Rng init(10 + w);
    SchellingModel m(ring_params(0.5), ring(4096, w), init);
    Rng dyn(20 + w);
    KawasakiOptions opt;
    opt.max_swaps = 200000;
    run_kawasaki(m, dyn, opt);
    const double len = mean_run_length(m);
    EXPECT_GT(len, prev) << w;
    prev = len;
  }
}

}  // namespace
}  // namespace seg

// End-to-end pipeline tests: initial configuration -> dynamics ->
// measurement, checking the paper's qualitative predictions at small scale.
#include <cmath>

#include <gtest/gtest.h>

#include "analysis/almost.h"
#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "theory/constants.h"
#include "util/stats.h"

namespace seg {
namespace {

double final_mean_region(int n, int w, double tau, std::uint64_t seed,
                         std::size_t samples = 24) {
  ModelParams p{.n = n, .w = w, .tau = tau, .p = 0.5};
  Rng init = Rng::stream(seed, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(seed, 1);
  run_glauber(m, dyn);
  const auto field = mono_region_field(m);
  Rng smp = Rng::stream(seed, 2);
  return mean_mono_region_size(field, samples, smp);
}

TEST(Integration, FullPipelineDeterministic) {
  const double a = final_mean_region(32, 2, 0.45, 7);
  const double b = final_mean_region(32, 2, 0.45, 7);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Integration, SegregationEmergesInTheTheoremInterval) {
  // tau in (tau_1, 1/2): expect the mean monochromatic region after the
  // process to clearly exceed the initial-configuration baseline.
  ModelParams p{.n = 48, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init(11);
  SchellingModel m(p, init);
  const auto field0 = mono_region_field(m);
  Rng s0(12);
  const double initial = mean_mono_region_size(field0, 32, s0);
  Rng dyn(13);
  run_glauber(m, dyn);
  const auto field1 = mono_region_field(m);
  Rng s1(12);
  const double final = mean_mono_region_size(field1, 32, s1);
  EXPECT_GT(final, 2.0 * initial);
}

TEST(Integration, StaticRegimeBelowOneQuarter) {
  // Barmpalias et al. [26]: for tau < 1/4 the initial configuration is
  // static w.h.p. (here: very few flips on a moderate grid).
  ModelParams p{.n = 48, .w = 2, .tau = 0.2, .p = 0.5};
  Rng init(21);
  SchellingModel m(p, init);
  Rng dyn(22);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);
  EXPECT_LT(r.flips, 20u);
}

TEST(Integration, SymmetricTausBehaveSimilarly) {
  // Glauber dynamics is symmetric about tau = 1/2 (Sec. IV-C): flips at
  // tau and 1 - tau have mirrored statistics. Compare flip counts loosely
  // across several seeds.
  RunningStats low, high;
  for (std::uint64_t s = 0; s < 4; ++s) {
    ModelParams pl{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
    ModelParams ph{.n = 32, .w = 2, .tau = 0.55, .p = 0.5};
    Rng il = Rng::stream(100 + s, 0), ih = Rng::stream(200 + s, 0);
    SchellingModel ml(pl, il), mh(ph, ih);
    Rng dl = Rng::stream(100 + s, 1), dh = Rng::stream(200 + s, 1);
    low.add(static_cast<double>(run_glauber(ml, dl).flips));
    high.add(static_cast<double>(run_glauber(mh, dh).flips));
  }
  // Same order of magnitude (not exact equality: tau > 1/2 has unhappy
  // agents that cannot flip).
  EXPECT_GT(high.mean(), 0.2 * low.mean());
  EXPECT_LT(high.mean(), 5.0 * low.mean());
}

TEST(Integration, NoCompleteSegregationAtBalancedP) {
  // Corollary of the exponential upper bound: complete segregation does
  // not occur w.h.p. for p = 1/2.
  int complete = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    ModelParams p{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
    Rng init = Rng::stream(300 + s, 0);
    SchellingModel m(p, init);
    Rng dyn = Rng::stream(300 + s, 1);
    run_glauber(m, dyn);
    complete += completely_segregated(m.spins());
  }
  EXPECT_EQ(complete, 0);
}

TEST(Integration, HighInitialBiasCanFixate) {
  // Fontes et al. [27]: at tau = 1/2 and p close to 1 the dynamics
  // converge to the all-(+1) state.
  ModelParams p{.n = 32, .w = 2, .tau = 0.5, .p = 0.97};
  Rng init(41);
  SchellingModel m(p, init);
  Rng dyn(42);
  run_glauber(m, dyn);
  EXPECT_TRUE(completely_segregated(m.spins()));
  EXPECT_DOUBLE_EQ(m.plus_fraction(), 1.0);
}

TEST(Integration, SegregationAmplifiesAcrossTheInterval) {
  // Robust form of the paper's qualitative claim: for every tau inside the
  // segregation interval the process amplifies the mean monochromatic
  // region well beyond its initial value. (The *direction* of the tau
  // trend at finite N is measured by bench/exp_monotonicity and discussed
  // in EXPERIMENTS.md; the theorem's monotonicity statement concerns the
  // asymptotic exponents a(tau), b(tau), which test_theory.cc pins.)
  for (const double tau : {0.44, 0.46, 0.48}) {
    RunningStats initial, final_;
    for (std::uint64_t s = 0; s < 4; ++s) {
      ModelParams p{.n = 48, .w = 2, .tau = tau, .p = 0.5};
      Rng init = Rng::stream(900 + s, 0);
      SchellingModel m(p, init);
      const auto f0 = mono_region_field(m);
      Rng s0 = Rng::stream(900 + s, 2);
      initial.add(mean_mono_region_size(f0, 24, s0));
      Rng dyn = Rng::stream(900 + s, 1);
      run_glauber(m, dyn);
      const auto f1 = mono_region_field(m);
      Rng s1 = Rng::stream(900 + s, 2);
      final_.add(mean_mono_region_size(f1, 24, s1));
    }
    EXPECT_GT(final_.mean(), 1.5 * initial.mean()) << "tau=" << tau;
  }
}

TEST(Integration, AlmostRegionsDominateMonoRegions) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init(61);
  SchellingModel m(p, init);
  Rng dyn(62);
  run_glauber(m, dyn);
  const auto mono = mono_region_field(m);
  const auto almost = almost_mono_field(m, 0.1);
  Rng s1(63), s2(63);
  EXPECT_GE(mean_almost_region_size(almost, 24, s1),
            mean_mono_region_size(mono, 24, s2));
}

TEST(Integration, EveryoneEndsHappyBelowOneHalf) {
  // tau < 1/2: every unhappy agent is flippable, so absorption leaves
  // everyone happy.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    ModelParams p{.n = 24, .w = 2, .tau = 0.45, .p = 0.5};
    Rng rng = Rng::stream(777, trial);
    SchellingModel m(p, rng);
    run_glauber(m, rng);
    EXPECT_EQ(m.happy_fraction(), 1.0) << "trial " << trial;
  }
}

TEST(Integration, InterfaceShrinksAsSegregationProceeds) {
  ModelParams p{.n = 48, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init(71);
  SchellingModel m(p, init);
  const auto before = cluster_stats(m);
  Rng dyn(72);
  run_glauber(m, dyn);
  const auto after = cluster_stats(m);
  EXPECT_LT(after.interface_length, before.interface_length);
  EXPECT_GT(after.largest_cluster, before.largest_cluster);
}

}  // namespace
}  // namespace seg

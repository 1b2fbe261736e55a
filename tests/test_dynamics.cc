#include "core/dynamics.h"

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "graph/topology.h"

namespace seg {
namespace {

SchellingModel make_random_model(int n, int w, double tau,
                                 std::uint64_t seed) {
  ModelParams p{.n = n, .w = w, .tau = tau, .p = 0.5};
  Rng rng(seed);
  return SchellingModel(p, rng);
}

TEST(Glauber, ReachesAbsorbingState) {
  auto m = make_random_model(24, 2, 0.45, 1);
  Rng rng(2);
  const RunResult r = run_glauber(m, rng);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(m.terminated());
  EXPECT_TRUE(m.flippable_set().empty());
}

TEST(Glauber, AllHappyAtTerminationForLowTau) {
  // For tau < 1/2, unhappy == flippable, so termination means all happy.
  auto m = make_random_model(24, 2, 0.4, 3);
  Rng rng(4);
  run_glauber(m, rng);
  EXPECT_EQ(m.count_unhappy(), 0u);
  EXPECT_DOUBLE_EQ(m.happy_fraction(), 1.0);
}

TEST(Glauber, HighTauMayLeaveUnhappyButUnflippableAgents) {
  auto m = make_random_model(24, 2, 0.6, 5);
  Rng rng(6);
  const RunResult r = run_glauber(m, rng);
  EXPECT_TRUE(r.terminated);
  for (const std::uint32_t id : m.unhappy_set().items()) {
    EXPECT_FALSE(m.flip_makes_happy(id));
  }
}

TEST(Glauber, DeterministicForSeed) {
  auto m1 = make_random_model(20, 2, 0.45, 7);
  auto m2 = make_random_model(20, 2, 0.45, 7);
  Rng r1(8), r2(8);
  const RunResult a = run_glauber(m1, r1);
  const RunResult b = run_glauber(m2, r2);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_DOUBLE_EQ(a.final_time, b.final_time);
  EXPECT_EQ(m1.spins(), m2.spins());
}

TEST(Glauber, TimeAdvancesMonotonically) {
  auto m = make_random_model(20, 2, 0.45, 9);
  Rng rng(10);
  std::vector<double> times;
  RunOptions opt;
  opt.snapshot_every = 1;
  opt.on_snapshot = [&](const SchellingModel&, std::uint64_t, double t) {
    times.push_back(t);
  };
  run_glauber(m, rng, opt);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
}

TEST(Glauber, MaxFlipsHonored) {
  auto m = make_random_model(32, 3, 0.45, 11);
  Rng rng(12);
  RunOptions opt;
  opt.max_flips = 5;
  const RunResult r = run_glauber(m, rng, opt);
  EXPECT_LE(r.flips, 5u);
}

TEST(Glauber, MaxTimeHonored) {
  auto m = make_random_model(32, 3, 0.45, 13);
  Rng rng(14);
  RunOptions opt;
  opt.max_time = 1e-9;  // essentially no time to do anything
  const RunResult r = run_glauber(m, rng, opt);
  EXPECT_FALSE(r.terminated);
  EXPECT_DOUBLE_EQ(r.final_time, 1e-9);
}

TEST(Glauber, LyapunovNeverDecreasesAcrossRun) {
  auto m = make_random_model(20, 2, 0.42, 15);
  std::int64_t prev = m.lyapunov();
  Rng rng(16);
  RunOptions opt;
  opt.snapshot_every = 10;
  bool monotone = true;
  opt.on_snapshot = [&](const SchellingModel& model, std::uint64_t, double) {
    const std::int64_t cur = model.lyapunov();
    if (cur < prev) monotone = false;
    prev = cur;
  };
  run_glauber(m, rng, opt);
  EXPECT_TRUE(monotone);
}

TEST(Glauber, AlreadyTerminatedRunsZeroFlips) {
  ModelParams p{.n = 10, .w = 1, .tau = 0.4, .p = 0.5};
  SchellingModel m(p, std::vector<std::int8_t>(100, 1));
  Rng rng(17);
  const RunResult r = run_glauber(m, rng);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.flips, 0u);
  EXPECT_DOUBLE_EQ(r.final_time, 0.0);
}

TEST(Glauber, SnapshotCallbackSeesFinalState) {
  auto m = make_random_model(16, 2, 0.45, 19);
  Rng rng(20);
  std::uint64_t last_flips = 0;
  RunOptions opt;
  opt.on_snapshot = [&](const SchellingModel&, std::uint64_t f, double) {
    last_flips = f;
  };
  const RunResult r = run_glauber(m, rng, opt);
  EXPECT_EQ(last_flips, r.flips);  // final snapshot always fires
}

// What a Glauber run leaves behind apart from its clock: the untimed loop
// must reproduce every field of this bitwise.
struct GlauberTrace {
  RunResult result;
  std::vector<std::int8_t> spins;
  std::int64_t lyapunov = 0;
  std::vector<std::uint32_t> flipped;        // FlipObserver order
  std::vector<std::uint64_t> snapshot_flips;  // on_snapshot's flip counts
  std::vector<std::int64_t> snapshot_magnetization;
  std::vector<double> snapshot_times;
  std::uint64_t next_word = 0;  // the dynamics Rng's next draw after the run
};

class FlipRecorder : public FlipObserver {
 public:
  explicit FlipRecorder(std::vector<std::uint32_t>* ids) : ids_(ids) {}
  void on_flip(std::uint32_t id, std::int8_t) override { ids_->push_back(id); }

 private:
  std::vector<std::uint32_t>* ids_;
};

GlauberTrace traced_glauber(const std::function<SchellingModel()>& make,
                            bool track_time, std::uint64_t max_flips) {
  GlauberTrace trace;
  SchellingModel model = make();
  FlipRecorder recorder(&trace.flipped);
  model.set_flip_observer(&recorder);
  RunOptions opt;
  opt.track_time = track_time;
  opt.max_flips = max_flips;
  opt.snapshot_every = 1;
  opt.on_snapshot = [&trace](const SchellingModel& m, std::uint64_t flips,
                             double time) {
    trace.snapshot_flips.push_back(flips);
    trace.snapshot_magnetization.push_back(m.magnetization());
    trace.snapshot_times.push_back(time);
  };
  Rng dyn(0xD1CE);
  trace.result = run_glauber(model, dyn, opt);
  model.set_flip_observer(nullptr);
  trace.spins = model.spins();
  trace.lyapunov = model.lyapunov();
  trace.next_word = dyn.next_u64();
  return trace;
}

// Returns the untimed run's result.
RunResult expect_untimed_matches_timed(
    const std::function<SchellingModel()>& make, std::uint64_t max_flips) {
  const GlauberTrace timed = traced_glauber(make, true, max_flips);
  const GlauberTrace untimed = traced_glauber(make, false, max_flips);
  EXPECT_GT(timed.result.flips, 0u);
  EXPECT_EQ(untimed.result.flips, timed.result.flips);
  EXPECT_EQ(untimed.result.terminated, timed.result.terminated);
  EXPECT_EQ(untimed.spins, timed.spins);
  EXPECT_EQ(untimed.lyapunov, timed.lyapunov);
  EXPECT_EQ(untimed.flipped, timed.flipped);
  EXPECT_EQ(untimed.snapshot_flips, timed.snapshot_flips);
  EXPECT_EQ(untimed.snapshot_magnetization, timed.snapshot_magnetization);
  EXPECT_EQ(untimed.next_word, timed.next_word);  // same stream position
  EXPECT_TRUE(std::isfinite(timed.result.final_time));
  EXPECT_GT(timed.result.final_time, 0.0);
  EXPECT_TRUE(std::isnan(untimed.result.final_time));
  for (const double t : untimed.snapshot_times) EXPECT_TRUE(std::isnan(t));
  return untimed.result;
}

TEST(Glauber, UntimedRunMatchesTimedOnTheTorus) {
  for (const int w : {1, 2, 4}) {
    SCOPED_TRACE(w);
    expect_untimed_matches_timed(
        [w] { return make_random_model(40, w, 0.45, 100 + w); },
        RunOptions().max_flips);
  }
}

TEST(Glauber, UntimedRunMatchesTimedOnVonNeumann) {
  const ModelParams p{.n = 32, .w = 3, .tau = 0.45, .p = 0.5,
                      .shape = NeighborhoodShape::kVonNeumann};
  expect_untimed_matches_timed(
      [&p] {
        Rng init(21);
        return SchellingModel(p, init);
      },
      RunOptions().max_flips);
}

TEST(Glauber, UntimedRunMatchesTimedOnGraphs) {
  const ModelParams p{.tau = 0.4, .p = 0.5};
  const auto graphs = {
      std::make_shared<const GraphTopology>(GraphTopology::lollipop(32, 96)),
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(512, 8, /*seed=*/7)),
  };
  for (const auto& graph : graphs) {
    expect_untimed_matches_timed(
        [&p, &graph] {
          Rng init(22);
          return SchellingModel(p, graph, init);
        },
        RunOptions().max_flips);
  }
}

TEST(Glauber, UntimedRunMatchesTimedUnderAFlipCap) {
  const RunResult capped = expect_untimed_matches_timed(
      [] { return make_random_model(40, 2, 0.45, 23); }, 50);
  EXPECT_EQ(capped.flips, 50u);
  EXPECT_FALSE(capped.terminated);
}

TEST(Glauber, FiniteMaxTimeRunsTheClockWhenUntracked) {
  auto m = make_random_model(32, 3, 0.45, 13);
  Rng rng(14);
  RunOptions opt;
  opt.track_time = false;
  opt.max_time = 1e-9;
  const RunResult r = run_glauber(m, rng, opt);
  EXPECT_FALSE(r.terminated);
  EXPECT_DOUBLE_EQ(r.final_time, 1e-9);
}

TEST(Discrete, ReachesSameClassOfAbsorbingStates) {
  auto m = make_random_model(24, 2, 0.45, 21);
  Rng rng(22);
  const RunResult r = run_discrete(m, rng);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(m.count_unhappy(), 0u);
}

TEST(Discrete, StepCounterCountsProposals) {
  auto m = make_random_model(16, 2, 0.6, 23);
  Rng rng(24);
  const RunResult r = run_discrete(m, rng);
  // final_time counts proposals, flips counts accepted ones.
  EXPECT_GE(r.final_time, static_cast<double>(r.flips));
}

TEST(Discrete, DeterministicForSeed) {
  auto m1 = make_random_model(16, 2, 0.45, 25);
  auto m2 = make_random_model(16, 2, 0.45, 25);
  Rng r1(26), r2(26);
  run_discrete(m1, r1);
  run_discrete(m2, r2);
  EXPECT_EQ(m1.spins(), m2.spins());
}

TEST(Synchronous, TerminatesOrDetectsCycle) {
  auto m = make_random_model(20, 2, 0.45, 27);
  const RunResult r = run_synchronous(m, 10000);
  EXPECT_TRUE(r.terminated || r.cycle_detected);
}

TEST(Synchronous, RoundCapHonored) {
  auto m = make_random_model(20, 2, 0.45, 29);
  const RunResult r = run_synchronous(m, 2);
  EXPECT_LE(r.rounds, 2u);
}

TEST(Synchronous, UniformStartDoesNothing) {
  ModelParams p{.n = 12, .w = 2, .tau = 0.45, .p = 0.5};
  SchellingModel m(p, std::vector<std::int8_t>(144, -1));
  const RunResult r = run_synchronous(m, 100);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.flips, 0u);
}

TEST(Dynamics, GlauberAndDiscreteAgreeOnHappinessStatistics) {
  // Both chains share absorbing states; on the same initial condition the
  // final happy fraction must be 1 for tau < 1/2 under either engine.
  ModelParams p{.n = 24, .w = 2, .tau = 0.42, .p = 0.5};
  Rng init(31);
  const auto spins = random_spins(p.n, p.p, init);
  SchellingModel mg(p, spins);
  SchellingModel md(p, spins);
  Rng rg(32), rd(33);
  run_glauber(mg, rg);
  run_discrete(md, rd);
  EXPECT_DOUBLE_EQ(mg.happy_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(md.happy_fraction(), 1.0);
}

}  // namespace
}  // namespace seg

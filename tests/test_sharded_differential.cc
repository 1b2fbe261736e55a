// Differential battery for the sharded parallel Glauber dynamics
// (core/parallel_dynamics.h over the row stripes of lattice/sharded.h).
//
// The contract under test, from strongest to weakest:
//  1. ONE shard is the serial process, bitwise: same flips, same RNG
//     consumption, same Poisson clock as run_glauber driven by
//     Rng::stream(seed, 0). Uses the golden-trajectory fixture
//     parameters (test_golden_trajectory.cc) so the serial side is itself
//     pinned by the golden constants.
//  2. For a FIXED shard count, the trajectory is bitwise identical at any
//     thread count (each shard's substream and sub-state are isolated;
//     reconciliation is serial in shard order).
//  3. At any shard count, counts/codes/memberships stay exact (full
//     recount audits pass mid-run and at absorption), boundary flips all
//     route through the conflict queue, and the absorbing states are
//     genuine (no flippable agent remains).
//  4. The magnetization samples (ParallelOptions::sample_every) are the
//     serial snapshot series for one shard and thread-count invariant
//     for a fixed shard count; phase A logs them concurrently, so the
//     sanitizer jobs run this suite.
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "lattice/sharded.h"
#include "obs/telemetry.h"

namespace seg {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_state(const SchellingModel& m, std::uint64_t a,
                         std::uint64_t b) {
  std::uint64_t h = fnv1a(m.spins().data(), m.spins().size(),
                          14695981039346656037ULL);
  h = fnv1a(&a, sizeof(a), h);
  h = fnv1a(&b, sizeof(b), h);
  return h;
}

// ---- ShardLayout geometry --------------------------------------------------

TEST(ShardLayout, TrivialLayoutHasOneShardAndNoBoundary) {
  ShardLayout layout;
  EXPECT_EQ(layout.shard_count(), 1);
  EXPECT_TRUE(layout.trivial());
  EXPECT_EQ(layout.shard_of(123), 0);
  EXPECT_FALSE(layout.boundary(123));
  EXPECT_TRUE(layout.compatible(48, 3));
}

TEST(ShardLayout, StripesPartitionAndClassify) {
  const int n = 32, w = 2, k = 4;
  const ShardLayout layout = ShardLayout::stripes(n, w, k);
  EXPECT_EQ(layout.shard_count(), k);
  EXPECT_TRUE(layout.compatible(n, w));
  EXPECT_FALSE(layout.compatible(n, w + 1));
  // Stripes of height 8: rows 0..7 -> shard 0, etc. Boundary rows are the
  // first and last w rows of each stripe.
  std::size_t boundary_sites = 0;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const auto id = static_cast<std::uint32_t>(y * n + x);
      EXPECT_EQ(layout.shard_of(id), y / 8);
      const int within = y % 8;
      EXPECT_EQ(layout.boundary(id), within < w || within >= 8 - w);
      boundary_sites += layout.boundary(id);
    }
  }
  EXPECT_EQ(boundary_sites, static_cast<std::size_t>(k * 2 * w * n));
  // Each shard's id window is exactly its rows.
  for (int s = 0; s < k; ++s) {
    const auto [base, extent] = layout.id_window(s);
    EXPECT_EQ(base, static_cast<std::uint32_t>(s * 8 * n));
    EXPECT_EQ(extent, static_cast<std::uint32_t>(8 * n));
  }
}

TEST(ShardLayout, StripesOfUnevenHeightCoverEveryRow) {
  // n = 10 over 3 stripes: rows [0, 3), [3, 6), [6, 10); at w = 1 only the
  // first and last row of each stripe is boundary. n = 7 over 7 stripes:
  // one row each, every row boundary.
  const ShardLayout three = ShardLayout::stripes(10, 1, 3);
  const int want_shard[] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 2};
  const bool want_boundary[] = {true, false, true,  true,  false,
                                true, true,  false, false, true};
  for (int y = 0; y < 10; ++y) {
    const auto id = static_cast<std::uint32_t>(y * 10 + 4);
    EXPECT_EQ(three.shard_of(id), want_shard[y]) << "row " << y;
    EXPECT_EQ(three.boundary(id), want_boundary[y]) << "row " << y;
  }
  EXPECT_EQ(three.id_window(2),
            (std::pair<std::uint32_t, std::uint32_t>{60, 40}));
  const ShardLayout rows = ShardLayout::stripes(7, 1, 7);
  for (std::uint32_t id = 0; id < 49; ++id) {
    EXPECT_EQ(rows.shard_of(id), static_cast<int>(id / 7));
    EXPECT_TRUE(rows.boundary(id));
  }
}

TEST(ShardLayout, StripesRefuseShardCountsOutsideOneToN) {
#ifdef SEG_DEBUG_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ShardLayout::stripes(16, 1, 17), "shards=17, n=16");
  EXPECT_DEATH(ShardLayout::stripes(16, 1, 0), "1 <= shards <= n");
  EXPECT_DEATH(ShardLayout::stripes(16, 1, -3), "shards=-3");
#else
  GTEST_SKIP() << "SEG_ASSERT is compiled out of release builds";
#endif
}

TEST(ShardLayout, IsolationInvariant) {
  // The guarantee phase A relies on: the radius-w window of every
  // interior site stays inside its own shard. Verified exhaustively.
  const int n = 30, w = 2;
  for (const ShardLayout& layout :
       {ShardLayout::stripes(n, w, 3), ShardLayout::stripes(n, w, 5),
        ShardLayout::stripes(n, w, 6)}) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const auto id = static_cast<std::uint32_t>(y * n + x);
        if (layout.boundary(id)) continue;
        for (int dy = -w; dy <= w; ++dy) {
          for (int dx = -w; dx <= w; ++dx) {
            const int yy = (y + dy + n) % n;
            const int xx = (x + dx + n) % n;
            const auto nb = static_cast<std::uint32_t>(yy * n + xx);
            ASSERT_EQ(layout.shard_of(nb), layout.shard_of(id))
                << "interior site (" << x << "," << y
                << ") has a window cell in another shard";
          }
        }
      }
    }
  }
}

// ---- 1-shard == serial, on the golden fixture ------------------------------

TEST(ShardedDifferential, OneShardGlauberIsSerialBitwise) {
  // Same model fixture as GoldenTrajectory.SchellingGlauber; the serial
  // reference below is therefore pinned (transitively) by the golden
  // hash. The sharded runner derives shard 0's stream as
  // Rng::stream(seed, 0), so the serial run uses exactly that stream.
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  const std::uint64_t dyn_seed = 987001;

  Rng init_a = Rng::stream(1001, 0);
  SchellingModel serial(p, init_a);
  Rng dyn = Rng::stream(dyn_seed, 0);
  const RunResult serial_run = run_glauber(serial, dyn);

  Rng init_b = Rng::stream(1001, 0);
  SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed);

  EXPECT_TRUE(serial_run.terminated);
  EXPECT_TRUE(parallel_run.terminated);
  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);  // bitwise
  EXPECT_EQ(parallel_run.deferred, 0u);
  EXPECT_EQ(parallel_run.reconciled, 0u);
  EXPECT_EQ(sharded.spins(), serial.spins());
}

TEST(ShardedDifferential, OneShardGlauberHonorsMaxFlipsExactly) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.45, .p = 0.5};
  const std::uint64_t dyn_seed = 987002;

  Rng init_a = Rng::stream(1002, 0);
  SchellingModel serial(p, init_a);
  Rng dyn = Rng::stream(dyn_seed, 0);
  RunOptions serial_opt;
  serial_opt.max_flips = 777;  // deliberately not a sweep-quantum multiple
  const RunResult serial_run = run_glauber(serial, dyn, serial_opt);

  Rng init_b = Rng::stream(1002, 0);
  SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
  ParallelOptions opt;
  opt.max_flips = 777;
  opt.sweep_quantum = 100;
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed, opt);

  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);
  EXPECT_EQ(sharded.spins(), serial.spins());
}

// ---- fixed shard count: thread-count invariance ----------------------------

TEST(ShardedDifferential, GlauberInvariantAcrossThreadCounts) {
  ModelParams p{.n = 96, .w = 2, .tau = 0.45, .p = 0.5};
  const int k = 6;
  const std::uint64_t dyn_seed = 987004;

  std::uint64_t reference_hash = 0;
  ParallelRunResult reference;
  for (const std::size_t threads : {1u, 2u, 6u}) {
    Rng init = Rng::stream(2002, 0);
    SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, k));
    ParallelOptions opt;
    opt.threads = threads;
    const ParallelRunResult run = run_parallel_glauber(model, dyn_seed, opt);
    EXPECT_TRUE(run.terminated);
    EXPECT_TRUE(model.check_invariants());
    const std::uint64_t h = hash_state(model, run.flips, run.sweeps);
    if (threads == 1) {
      reference_hash = h;
      reference = run;
      // The decomposition must actually be exercised at this size.
      EXPECT_GT(run.deferred, 0u);
    } else {
      EXPECT_EQ(h, reference_hash) << "threads=" << threads;
      EXPECT_EQ(run.flips, reference.flips);
      EXPECT_EQ(run.deferred, reference.deferred);
      EXPECT_EQ(run.reconciled, reference.reconciled);
      EXPECT_EQ(run.final_time, reference.final_time);
    }
  }
}

#if !defined(SEG_TELEMETRY_DISABLED)
// A one-worker run builds no pool: the caller runs phase A itself. The
// labelled "shards" pool counts every task it runs, so a threads = 1 run
// must leave pool.shards.tasks where it was, on stripes and on a graph
// partition alike, while a threads = 2 run of the same model advances it.
// Both must follow the same trajectory.
TEST(ShardedDifferential, OneWorkerRunsStartNoPool) {
  struct Outcome {
    std::uint64_t hash;
    ParallelRunResult run;
  };
  const std::function<Outcome(std::size_t)> stripes =
      [](std::size_t threads) {
        ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
        Rng init = Rng::stream(2006, 0);
        SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
        ParallelOptions opt;
        opt.threads = threads;
        const ParallelRunResult run =
            run_parallel_glauber(model, 987008, opt);
        EXPECT_TRUE(model.check_invariants());
        return Outcome{hash_state(model, run.flips, run.sweeps), run};
      };
  const std::function<Outcome(std::size_t)> graph_parts =
      [](std::size_t threads) {
        ModelParams p{.tau = 0.4, .p = 0.5};
        const auto graph = std::make_shared<const GraphTopology>(
            GraphTopology::random_regular(512, 8, /*seed=*/7));
        Rng init = Rng::stream(2007, 0);
        SchellingModel model(p, graph,
                             random_spins_count(graph->node_count(), p.p,
                                                init),
                             GraphPartition::greedy_bfs(*graph, 3));
        ParallelOptions opt;
        opt.threads = threads;
        opt.max_flips = 3000;
        const ParallelRunResult run =
            run_parallel_glauber(model, 987009, opt);
        EXPECT_TRUE(model.check_invariants());
        return Outcome{hash_state(model, run.flips, run.sweeps), run};
      };

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Registry& registry = obs::Registry::instance();
  for (const auto& run_at : {stripes, graph_parts}) {
    const std::uint64_t before = registry.counter_value("pool.shards.tasks");
    const Outcome inline_run = run_at(1);
    EXPECT_EQ(registry.counter_value("pool.shards.tasks"), before);
    EXPECT_GT(inline_run.run.deferred, 0u);
    const Outcome pooled = run_at(2);
    EXPECT_GT(registry.counter_value("pool.shards.tasks"), before);
    EXPECT_EQ(pooled.hash, inline_run.hash);
    EXPECT_EQ(pooled.run.flips, inline_run.run.flips);
    EXPECT_EQ(pooled.run.deferred, inline_run.run.deferred);
    EXPECT_EQ(pooled.run.final_time, inline_run.run.final_time);
  }
  obs::set_enabled(was_enabled);
}
#endif  // !SEG_TELEMETRY_DISABLED

// ---- sharded semantics at k > 1 --------------------------------------------

TEST(ShardedDifferential, ShardedRunsAreRepeatableAndExact) {
  // Two identically-seeded runs agree bitwise, audits pass at absorption,
  // and the absorbing state is real.
  ModelParams p{.n = 60, .w = 2, .tau = 0.45, .p = 0.5};
  const ShardLayout layout = ShardLayout::stripes(p.n, p.w, 4);
  std::uint64_t first_hash = 0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    Rng init = Rng::stream(2004, 0);
    SchellingModel model(p, init, layout);
    const ParallelRunResult run = run_parallel_glauber(model, 987006);
    EXPECT_TRUE(run.terminated);
    EXPECT_TRUE(model.terminated());
    EXPECT_TRUE(model.check_invariants());
    for (std::uint32_t id = 0; id < model.agent_count(); ++id) {
      ASSERT_FALSE(model.is_flippable(id)) << "site " << id;
    }
    const std::uint64_t h = hash_state(model, run.flips, run.deferred);
    if (repeat == 0) {
      first_hash = h;
    } else {
      EXPECT_EQ(h, first_hash);
    }
  }
}

TEST(ShardedDifferential, LyapunovIncreasesUnderShardedGlauber) {
  // Only flippable agents ever flip (phase A samples the flippable set,
  // phase B re-validates), so the paper's Lyapunov argument applies to
  // the sharded process too: the aggregate same-type count must strictly
  // increase between checkpoints that contain at least one flip.
  ModelParams p{.n = 64, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(2005, 0);
  SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
  std::int64_t lyapunov = model.lyapunov();
  ParallelOptions opt;
  opt.sweep_quantum = 64;
  for (int burst = 0; burst < 20; ++burst) {
    opt.max_sweeps = 1;
    const ParallelRunResult run = run_parallel_glauber(model, 987007, opt);
    const std::int64_t next = model.lyapunov();
    if (run.flips > 0) {
      EXPECT_GT(next, lyapunov) << "burst " << burst;
    } else {
      EXPECT_EQ(next, lyapunov);
    }
    lyapunov = next;
    if (model.terminated()) break;
  }
}

TEST(ShardedDifferential, FourShardGoldenTrajectory) {
  // Frozen golden hash for a k = 4 stripe run (captured at the
  // introduction of the sharded engine): pins the k-shard trajectory —
  // phase A order, deferral rule, reconciliation order, per-shard
  // substream derivation — against future refactors the same way the
  // serial golden suite pins the serial engines.
  constexpr std::uint64_t kGoldenSharded4 = 0x1d4e36dd87ec18cfull;
  ModelParams p{.n = 64, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(3001, 0);
  SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, 4));
  const ParallelRunResult run = run_parallel_glauber(model, 3002);
  EXPECT_TRUE(run.terminated);
  EXPECT_EQ(run.flips, 2707u);
  EXPECT_EQ(run.deferred, 959u);
  EXPECT_EQ(run.reconciled, 959u);
  std::uint64_t h = fnv1a(model.spins().data(), model.spins().size(),
                          14695981039346656037ULL);
  h = fnv1a(&run.flips, sizeof(run.flips), h);
  h = fnv1a(&run.deferred, sizeof(run.deferred), h);
  h = fnv1a(&run.reconciled, sizeof(run.reconciled), h);
  h = fnv1a(&run.final_time, sizeof(run.final_time), h);
  EXPECT_EQ(h, kGoldenSharded4);
}

// ---- magnetization samples (ParallelOptions::sample_every) ----------------

// One shard is the serial process, so its samples are run_glauber's
// on_snapshot magnetizations at flips = F, 2F, ...; the hook's extra
// end-of-run call is not a sample. A sweep quantum that no F divides
// carries the sample count across barriers.
TEST(ShardedSamples, OneShardMatchesSerialSnapshots) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  const std::uint64_t dyn_seed = 987010;
  for (const std::uint64_t every : {1u, 3u, 25u}) {
    Rng init_a = Rng::stream(1001, 0);
    SchellingModel serial(p, init_a);
    Rng dyn = Rng::stream(dyn_seed, 0);
    RunOptions serial_opt;
    serial_opt.snapshot_every = every;
    std::vector<std::int64_t> expected;
    serial_opt.on_snapshot = [&expected](const SchellingModel& m,
                                         std::uint64_t, double) {
      expected.push_back(m.magnetization());
    };
    const RunResult serial_run = run_glauber(serial, dyn, serial_opt);
    ASSERT_FALSE(expected.empty());
    expected.pop_back();  // the end-of-run call

    Rng init_b = Rng::stream(1001, 0);
    SchellingModel sharded(p, init_b, ShardLayout::stripes(p.n, p.w, 1));
    ParallelOptions opt;
    opt.sample_every = every;
    opt.sweep_quantum = 97;
    const ParallelRunResult run =
        run_parallel_glauber(sharded, dyn_seed, opt);
    EXPECT_TRUE(run.terminated);
    EXPECT_GT(run.sweeps, 1u);
    EXPECT_EQ(run.flips, serial_run.flips);
    EXPECT_EQ(run.magnetization.size(), run.flips / every);
    EXPECT_EQ(run.magnetization, expected) << "sample_every " << every;
  }
}

// At F = 1 every flip of the folded stream is a sample, so the series is
// as long as the run and ends on the model's own magnetization, whatever
// order phase A applied the flips in.
TEST(ShardedSamples, EveryFlipSampleEndsOnModelMagnetization) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  for (const int k : {1, 4}) {
    Rng init = Rng::stream(1003, 0);
    SchellingModel model(p, init, ShardLayout::stripes(p.n, p.w, k));
    ParallelOptions opt;
    opt.sample_every = 1;
    const ParallelRunResult run = run_parallel_glauber(model, 987011, opt);
    EXPECT_TRUE(run.terminated);
    ASSERT_GT(run.flips, 0u);
    EXPECT_EQ(run.magnetization.size(), run.flips) << k << " shards";
    EXPECT_EQ(run.magnetization.back(), model.magnetization())
        << k << " shards";
  }
}

// For a fixed shard count the series is a pure function of the seed:
// identical at 1, 2 and 4 threads, and sampling leaves the trajectory
// that of an unsampled run.
TEST(ShardedSamples, FourShardSeriesInvariantAcrossThreadCounts) {
  ModelParams p{.n = 64, .w = 3, .tau = 0.45, .p = 0.5};
  const ShardLayout layout = ShardLayout::stripes(p.n, p.w, 4);
  Rng init_plain = Rng::stream(3001, 0);
  SchellingModel plain(p, init_plain, layout);
  const ParallelRunResult unsampled = run_parallel_glauber(plain, 3002);
  EXPECT_TRUE(unsampled.magnetization.empty());
  EXPECT_GT(unsampled.deferred, 0u);

  std::vector<std::int64_t> reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    Rng init = Rng::stream(3001, 0);
    SchellingModel model(p, init, layout);
    ParallelOptions opt;
    opt.threads = threads;
    opt.sample_every = 7;
    const ParallelRunResult run = run_parallel_glauber(model, 3002, opt);
    EXPECT_EQ(model.spins(), plain.spins()) << threads << " threads";
    EXPECT_EQ(run.flips, unsampled.flips);
    EXPECT_EQ(run.final_time, unsampled.final_time);
    EXPECT_EQ(run.magnetization.size(), run.flips / 7);
    if (threads == 1) {
      reference = run.magnetization;
    } else {
      EXPECT_EQ(run.magnetization, reference) << threads << " threads";
    }
  }
}

TEST(ShardedDifferential, RunResultAdapter) {
  ParallelRunResult parallel;
  parallel.flips = 42;
  parallel.sweeps = 7;
  parallel.final_time = 1.5;
  parallel.terminated = true;
  const RunResult run = to_run_result(parallel);
  EXPECT_EQ(run.flips, 42u);
  EXPECT_EQ(run.rounds, 7u);
  EXPECT_EQ(run.final_time, 1.5);
  EXPECT_TRUE(run.terminated);
}

}  // namespace
}  // namespace seg

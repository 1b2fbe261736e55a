// Differential battery for the graph-topology engine (graph/topology.h
// driving lattice/engine.h in graph mode).
//
// The contract, strongest first:
//  1. The torus expressed as a GraphTopology reproduces the native span
//     engine BITWISE on every frozen golden trajectory — same flips, same
//     RNG consumption, same hashes as test_golden_trajectory.cc. The
//     graph rows are emitted in stencil order, so the touch/set-mutation
//     history is identical; any ordering regression lands here.
//  2. Graph-partition sharding is sound: one part reproduces the serial
//     graph engine bitwise through run_parallel_glauber, and a k-part
//     greedy-BFS partition is thread-count invariant with exact
//     invariants at absorption — on non-torus topologies (lollipop,
//     random regular, small world) whose cuts are irregular.
#include <gtest/gtest.h>

#include <memory>

#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "golden_fixtures.h"
#include "graph/partition.h"
#include "graph/topology.h"

namespace seg {
namespace {

using golden::hash_bytes;
using golden::mix;
using golden::mix_double;

std::shared_ptr<const GraphTopology> torus_graph(int n,
                                                 NeighborhoodShape shape,
                                                 int w) {
  return std::make_shared<const GraphTopology>(
      GraphTopology::torus(n, neighborhood_offsets(shape, w)));
}

// ---- torus-as-graph vs the frozen golden hashes ----------------------------

TEST(GraphDifferential, GlauberGoldenBitwise) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  ASSERT_TRUE(m.graph_mode());
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kGlauber);
}

TEST(GraphDifferential, DiscreteGoldenBitwise) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.55, .p = 0.5};
  Rng init = Rng::stream(1002, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1002, 1);
  RunOptions opt;
  opt.max_flips = 3000;
  const RunResult r = run_discrete(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kDiscrete);
}

TEST(GraphDifferential, AsymmetricVonNeumannGoldenBitwise) {
  ModelParams p{.n = 40, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.55,
                .shape = NeighborhoodShape::kVonNeumann};
  Rng init = Rng::stream(1003, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1003, 1);
  RunOptions opt;
  opt.max_flips = 4000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kAsymVonNeumann);
}

TEST(GraphDifferential, SynchronousGoldenBitwise) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1004, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  const RunResult r = run_synchronous(m, 64);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix(h, r.rounds);
  h = mix(h, r.cycle_detected ? 1 : 0);
  EXPECT_EQ(h, golden::kSynchronous);
}

TEST(GraphDifferential, ComfortGoldenBitwise) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  Rng init = Rng::stream(1005, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  ASSERT_TRUE(m.graph_mode());
  Rng dyn = Rng::stream(1005, 1);
  RunOptions opt;
  opt.max_flips = 5000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kComfort);
}

TEST(GraphDifferential, KawasakiGoldenBitwise) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init = Rng::stream(1007, 0);
  SchellingModel m(p, torus_graph(p.n, p.shape, p.w), init);
  Rng dyn = Rng::stream(1007, 1);
  KawasakiOptions opt;
  opt.max_swaps = 1500;
  const KawasakiResult r = run_kawasaki(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.swaps);
  h = mix(h, r.proposals);
  EXPECT_EQ(h, golden::kKawasaki);
}

// ---- graph-partition sharding ----------------------------------------------

// One part is the serial graph engine, bitwise, on an irregular topology.
TEST(GraphDifferential, OnePartGlauberIsSerialBitwise) {
  ModelParams p{.tau = 0.35, .p = 0.5};
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::lollipop(/*clique=*/24, /*path=*/40));
  const std::uint64_t dyn_seed = 988001;

  Rng init_a = Rng::stream(3001, 0);
  const auto spins =
      random_spins_count(graph->node_count(), p.p, init_a);
  SchellingModel serial(p, graph, spins);
  Rng dyn = Rng::stream(dyn_seed, 0);
  RunOptions serial_opt;
  serial_opt.max_flips = 4000;
  const RunResult serial_run = run_glauber(serial, dyn, serial_opt);

  SchellingModel sharded(p, graph, spins,
                         GraphPartition::greedy_bfs(*graph, 1));
  ParallelOptions opt;
  opt.max_flips = 4000;
  const ParallelRunResult parallel_run =
      run_parallel_glauber(sharded, dyn_seed, opt);

  EXPECT_EQ(parallel_run.flips, serial_run.flips);
  EXPECT_EQ(parallel_run.final_time, serial_run.final_time);  // bitwise
  EXPECT_EQ(parallel_run.deferred, 0u);
  EXPECT_EQ(sharded.spins(), serial.spins());
  EXPECT_TRUE(sharded.check_invariants());
}

// k parts: thread-count invariant, boundary machinery exercised, exact
// invariants at the end — on each of the three non-torus families.
TEST(GraphDifferential, MultiPartGlauberInvariantAcrossThreadCounts) {
  ModelParams p{.tau = 0.4, .p = 0.5};
  const std::vector<Point> stencil =
      neighborhood_offsets(NeighborhoodShape::kMoore, 1);
  const auto topologies = {
      std::make_shared<const GraphTopology>(
          GraphTopology::lollipop(32, 96)),
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(512, 8, /*seed=*/7)),
      std::make_shared<const GraphTopology>(
          GraphTopology::small_world(24, stencil, 0.1, /*seed=*/7)),
  };
  for (const auto& graph : topologies) {
    ASSERT_TRUE(graph->validate());
    const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 4);
    std::size_t boundary_nodes = 0;
    for (std::uint32_t v = 0; v < graph->node_count(); ++v) {
      boundary_nodes += partition.boundary(v);
    }
    EXPECT_GT(boundary_nodes, 0u);

    Rng init = Rng::stream(3002, 0);
    const auto spins =
        random_spins_count(graph->node_count(), p.p, init);

    std::uint64_t reference_hash = 0;
    ParallelRunResult reference;
    for (const std::size_t threads : {1u, 4u}) {
      SchellingModel model(p, graph, spins, partition);
      ParallelOptions opt;
      opt.threads = threads;
      opt.max_flips = 3000;
      const ParallelRunResult run =
          run_parallel_glauber(model, /*seed=*/988002, opt);
      EXPECT_TRUE(model.check_invariants());
      const auto field = model.spins();
      std::uint64_t h = hash_bytes(field.data(), field.size());
      h = mix(h, run.flips);
      h = mix(h, run.sweeps);
      if (threads == 1) {
        reference_hash = h;
        reference = run;
      } else {
        EXPECT_EQ(h, reference_hash);
        EXPECT_EQ(run.flips, reference.flips);
        EXPECT_EQ(run.deferred, reference.deferred);
        EXPECT_EQ(run.reconciled, reference.reconciled);
        EXPECT_EQ(run.final_time, reference.final_time);
      }
    }
  }
}

// The partition isolation guarantee phase A relies on, verified directly:
// a flip at a non-boundary node touches only nodes of its own part.
TEST(GraphDifferential, PartitionIsolationInvariant) {
  const auto graph = GraphTopology::random_regular(256, 6, /*seed=*/11);
  const GraphPartition partition = GraphPartition::greedy_bfs(graph, 4);
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    if (partition.boundary(v)) continue;
    const auto [row, len] = graph.row(v);
    for (int i = 0; i < len; ++i) {
      ASSERT_EQ(partition.part_of(row[i]), partition.part_of(v))
          << "interior node " << v << " reaches part-crossing neighbor "
          << row[i];
    }
  }
}

}  // namespace
}  // namespace seg

// Campaign-level differential battery for graph points.
//
// A campaign builds each non-torus point's topology (and, for sharded
// points, its graph partition) once and shares it across the point's
// replicas. These tests pin what that sharing must not change:
//  1. A reduced built-in graph_topologies campaign renders the same CSV
//     bytes at 1 and 4 worker threads, and those bytes hash to a value
//     frozen from the implementation that rebuilt the graph per replica.
//  2. The same holds with shards = 2, which routes every replica through
//     the greedy-BFS graph partition.
//  3. An edge-list point keeps producing the rows a freshly loaded
//     topology gives after its file is deleted behind the campaign's back
//     following the point's first replica: the file is read once.
//  4. An edge-list file that cannot be loaded, or that has fewer nodes
//     than the spec's shards, is reported once per point, and every
//     replica of the point still returns the NaN row.
//  5. build_campaign refuses both such files up front, naming the file
//     and the reason, so a command line run exits before any replica.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "golden_fixtures.h"

namespace seg {
namespace {

constexpr std::uint64_t kCampaignSeed = 37;

ScenarioSpec reduced_graph_topologies(std::size_t shards) {
  ScenarioSpec spec;
  BuiltinOverrides overrides;
  overrides.replicas = 4;
  EXPECT_TRUE(builtin_spec("graph_topologies", overrides, &spec));
  spec.shards = shards;
  std::string why;
  EXPECT_TRUE(spec.valid(&why)) << why;
  return spec;
}

std::string render_at(const ScenarioSpec& spec, std::size_t threads) {
  CampaignOptions options;
  options.threads = threads;
  const CampaignResult result = run_campaign(spec, kCampaignSeed, options);
  EXPECT_TRUE(result.complete);
  return CsvSink::render(spec, result);
}

std::uint64_t csv_hash(const std::string& csv) {
  return golden::hash_bytes(csv.data(), csv.size());
}

TEST(GraphCampaignDifferential, BuiltinThreadInvariantAndFrozen) {
  const ScenarioSpec spec = reduced_graph_topologies(1);
  const std::string one = render_at(spec, 1);
  EXPECT_EQ(one, render_at(spec, 4));
  EXPECT_EQ(csv_hash(one), 0x454310e010207039ULL);
}

TEST(GraphCampaignDifferential, ShardedThreadInvariantAndFrozen) {
  const ScenarioSpec spec = reduced_graph_topologies(2);
  const std::string one = render_at(spec, 1);
  EXPECT_EQ(one, render_at(spec, 4));
  EXPECT_EQ(csv_hash(one), 0x955768f224ddd8e4ULL);
}

// A 6-regular circulant graph on 240 nodes: ring edges to +1, +2 and +7.
void write_edge_list(const std::string& path) {
  std::ofstream out(path);
  constexpr int kNodes = 240;
  out << "# circulant C_240(1, 2, 7)\n";
  for (int v = 0; v < kNodes; ++v) {
    for (const int step : {1, 2, 7}) {
      out << v << ' ' << (v + step) % kNodes << '\n';
    }
  }
}

std::size_t count_of(const std::string& log, const std::string& what) {
  std::size_t count = 0;
  for (std::size_t at = log.find(what); at != std::string::npos;
       at = log.find(what, at + 1)) {
    ++count;
  }
  return count;
}

// Every replica of every point returned the NaN row.
void expect_nan_rows(const ScenarioSpec& spec, const CampaignResult& result) {
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const RunningStats* flips = result.stats_for(p, "flips");
    ASSERT_NE(flips, nullptr);
    EXPECT_EQ(flips->count(), spec.replicas);
    EXPECT_TRUE(std::isnan(flips->mean()));
  }
}

class EdgeListReadOnce : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EdgeListReadOnce, DeletedFileStillGivesFreshRows) {
  const std::size_t threads = GetParam();
  const std::string path = ::testing::TempDir() + "graph_campaign_edges_" +
                           std::to_string(threads) + ".txt";
  ScenarioSpec spec;
  spec.name = "edge_list_read_once";
  spec.n = {16};
  spec.w = {1};
  spec.tau = {0.45};
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kEdgeList};
  spec.graph_file = path;
  spec.replicas = 8;
  spec.metrics = {"flips", "terminated", "majority", "happy_fraction"};
  std::string why;
  ASSERT_TRUE(spec.valid(&why)) << why;
  const std::vector<ScenarioPoint> points = expand_grid(spec);
  const std::vector<std::string> names = expand_metric_names(spec.metrics);
  CampaignOptions options;
  options.threads = threads;

  // Reference: every replica sees the file.
  write_edge_list(path);
  const CampaignResult fresh =
      run_campaign(spec, points, names, make_schelling_replica(spec),
                   kCampaignSeed, options);
  const std::string expected = CsvSink::render(spec, fresh);
  ASSERT_EQ(expected.find("nan"), std::string::npos) << expected;

  // Same campaign on a new ReplicaFn; the file goes away as soon as the
  // edge-list point's first replica returns.
  const ReplicaFn inner = make_schelling_replica(spec);
  bool deleted = false;
  std::mutex mu;
  const ReplicaFn deleting = [&](const ScenarioPoint& point, std::size_t r,
                                 std::uint64_t seed) {
    std::vector<double> row = inner(point, r, seed);
    if (point.topology == TopologyFamily::kEdgeList) {
      std::lock_guard<std::mutex> lock(mu);
      if (!deleted) deleted = std::filesystem::remove(path);
    }
    return row;
  };
  const CampaignResult cached =
      run_campaign(spec, points, names, deleting, kCampaignSeed, options);
  EXPECT_TRUE(deleted);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(cached.complete);
  EXPECT_EQ(CsvSink::render(spec, cached), expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, EdgeListReadOnce, ::testing::Values(1, 4));

TEST(GraphCampaignDifferential, MissingEdgeListReportedOncePerPoint) {
  ScenarioSpec spec;
  spec.name = "edge_list_missing";
  spec.n = {16};
  spec.w = {1};
  spec.tau = {0.4, 0.45};
  spec.topology = {TopologyFamily::kEdgeList};
  spec.graph_file = ::testing::TempDir() + "graph_campaign_no_such_file.txt";
  spec.replicas = 5;
  spec.metrics = {"flips", "majority"};
  std::string why;
  ASSERT_TRUE(spec.valid(&why)) << why;
  std::filesystem::remove(spec.graph_file);
  CampaignOptions options;
  options.threads = 4;
  ::testing::internal::CaptureStderr();
  const CampaignResult result = run_campaign(spec, kCampaignSeed, options);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(count_of(log, "cannot build edge_list topology"), 2u) << log;
  expect_nan_rows(spec, result);
}

TEST(GraphCampaignDifferential, EdgeListSmallerThanShardsReportedOncePerPoint) {
  // valid() cannot count an edge list's nodes; the topology cache refuses
  // a shard count above it when the file loads, like a failed load.
  const std::string path =
      ::testing::TempDir() + "graph_campaign_three_nodes.txt";
  {
    std::ofstream out(path);
    out << "0 1\n1 2\n";
  }
  ScenarioSpec spec;
  spec.name = "edge_list_too_few_nodes";
  spec.n = {16};
  spec.w = {1};
  spec.tau = {0.4, 0.45};
  spec.topology = {TopologyFamily::kEdgeList};
  spec.graph_file = path;
  spec.replicas = 5;
  spec.shards = 4;
  spec.metrics = {"flips", "majority"};
  std::string why;
  ASSERT_TRUE(spec.valid(&why)) << why;
  CampaignOptions options;
  options.threads = 4;
  ::testing::internal::CaptureStderr();
  const CampaignResult result = run_campaign(spec, kCampaignSeed, options);
  const std::string log = ::testing::internal::GetCapturedStderr();
  std::filesystem::remove(path);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(count_of(log, "cannot build edge_list topology: shards = 4 "
                          "exceeds its node count: at most 3"),
            2u)
      << log;
  expect_nan_rows(spec, result);
}

TEST(GraphCampaignDifferential, BuildCampaignRefusesUnbuildableEdgeList) {
  const std::string path =
      ::testing::TempDir() + "graph_campaign_build_three_nodes.txt";
  {
    std::ofstream out(path);
    out << "0 1\n1 2\n";
  }
  ScenarioSpec spec;
  spec.name = "edge_list_build";
  spec.n = {16};
  spec.w = {1};
  spec.topology = {TopologyFamily::kEdgeList};
  spec.graph_file = path;
  spec.metrics = {"flips", "majority"};
  BuiltinCampaign campaign;
  std::string error;
  spec.shards = 3;
  EXPECT_TRUE(build_campaign("", spec, &campaign, &error)) << error;
  spec.shards = 4;
  EXPECT_FALSE(build_campaign("", spec, &campaign, &error));
  EXPECT_EQ(error, "cannot build edge_list topology from '" + path +
                       "': shards = 4 exceeds its node count: at most 3");
  std::filesystem::remove(path);
  spec.shards = 1;
  EXPECT_FALSE(build_campaign("", spec, &campaign, &error));
  EXPECT_EQ(error, "cannot build edge_list topology from '" + path +
                       "': cannot open edge list '" + path + "'");
}

}  // namespace
}  // namespace seg

// Frozen canonical spec identity. ScenarioSpec::to_text() and hash() key
// every checkpoint and manifest, so their bytes are pinned literally here:
// a refactor of the spec layer must leave this file unchanged. The
// builtins cover the unconditional keys; the two hand-built specs cover
// every key that enters the text only conditionally (non-torus topology,
// every graph_* key, shards, streaming_sample_every, and the stop_* keys
// of a pass_rate rule with and a bernstein rule without the optional
// ones).
#include <gtest/gtest.h>

#include <string>

#include "campaign/builtin.h"

namespace seg {
namespace {

void expect_frozen(const ScenarioSpec& spec, const std::string& text,
                   std::uint64_t hash) {
  EXPECT_EQ(spec.to_text(), text);
  EXPECT_EQ(spec.hash(), hash);
  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(text, &back, &error)) << error;
  EXPECT_EQ(back.to_text(), text);
  EXPECT_EQ(back.hash(), hash);
}

ScenarioSpec builtin_spec(const std::string& name) {
  BuiltinCampaign campaign;
  EXPECT_TRUE(make_builtin_campaign(name, {}, &campaign)) << name;
  return campaign.spec;
}

TEST(SpecIdentity, PhaseDiagram) {
  expect_frozen(builtin_spec("phase_diagram"),
                "name = phase_diagram\n"
                "n = 64\n"
                "w = 2\n"
                "tau = 0.29999999999999999,0.35999999999999999,"
                "0.40000000000000002,0.44,0.47999999999999998,0.5\n"
                "tau_minus = -1\n"
                "p = 0.5,0.55000000000000004,0.59999999999999998,"
                "0.69999999999999996,0.80000000000000004,"
                "0.90000000000000002\n"
                "shape = moore\n"
                "dynamics = glauber\n"
                "replicas = 3\n"
                "max_flips = 0\n"
                "sync_max_rounds = 4096\n"
                "region_samples = 16\n"
                "almost_eps = 0.10000000000000001\n"
                "metrics = mean_mono_region,fixation,majority,flips\n",
                0x37634e07fa5126ccULL);
}

TEST(SpecIdentity, RegionSize) {
  expect_frozen(builtin_spec("region_size"),
                "name = region_size\n"
                "n = 64\n"
                "w = 1,2,3,4,5\n"
                "tau = 0.45000000000000001,0.40000000000000002,"
                "0.55000000000000004\n"
                "tau_minus = -1\n"
                "p = 0.5\n"
                "shape = moore\n"
                "dynamics = glauber\n"
                "replicas = 3\n"
                "max_flips = 0\n"
                "sync_max_rounds = 4096\n"
                "region_samples = 24\n"
                "almost_eps = 0.10000000000000001\n"
                "metrics = mean_mono_region,mean_almost_region,"
                "streaming_largest_cluster,streaming_interface_length\n",
                0xd5cbf0cb755d2ef1ULL);
}

TEST(SpecIdentity, GraphTopologies) {
  expect_frozen(builtin_spec("graph_topologies"),
                "name = graph_topologies\n"
                "n = 32\n"
                "w = 1\n"
                "tau = 0.34999999999999998,0.45000000000000001\n"
                "tau_minus = -1\n"
                "p = 0.5\n"
                "shape = moore\n"
                "dynamics = glauber\n"
                "topology = lollipop,random_regular,small_world\n"
                "graph_nodes = 1024\n"
                "replicas = 3\n"
                "max_flips = 200000\n"
                "sync_max_rounds = 4096\n"
                "region_samples = 16\n"
                "almost_eps = 0.10000000000000001\n"
                "metrics = flips,terminated,majority,happy_fraction,"
                "plus_fraction\n",
                0x5647fa8241aaebe5ULL);
}

TEST(SpecIdentity, EveryConditionalKeyWithPassRateStop) {
  ScenarioSpec spec;
  spec.name = "every_key";
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kEdgeList};
  spec.graph_clique = 10;
  spec.graph_path = 7;
  spec.graph_degree = 4;
  spec.graph_beta = 0.25;
  spec.graph_seed = 9;
  spec.graph_nodes = 100;
  spec.graph_file = "edges.txt";
  spec.shards = 2;
  spec.streaming_sample_every = 50;
  spec.metrics = {"flips", "majority", "terminated"};
  spec.stop.rule = StopRule::kPassRate;
  spec.stop.delta = 0.1;
  spec.stop.alpha = 0.01;
  spec.stop.min_replicas = 4;
  spec.stop.max_replicas = 64;
  spec.stop.metric = "terminated";
  spec.stop.threshold = 0.75;
  expect_frozen(spec,
                "name = every_key\n"
                "n = 64\n"
                "w = 2\n"
                "tau = 0.45000000000000001\n"
                "tau_minus = -1\n"
                "p = 0.5\n"
                "shape = moore\n"
                "dynamics = glauber\n"
                "topology = lollipop,edge_list\n"
                "graph_clique = 10\n"
                "graph_path = 7\n"
                "graph_degree = 4\n"
                "graph_beta = 0.25\n"
                "graph_seed = 9\n"
                "graph_nodes = 100\n"
                "graph_file = edges.txt\n"
                "replicas = 3\n"
                "shards = 2\n"
                "max_flips = 0\n"
                "streaming_sample_every = 50\n"
                "sync_max_rounds = 4096\n"
                "region_samples = 16\n"
                "almost_eps = 0.10000000000000001\n"
                "metrics = flips,majority,terminated\n"
                "stop_rule = pass_rate\n"
                "stop_delta = 0.10000000000000001\n"
                "stop_alpha = 0.01\n"
                "min_replicas = 4\n"
                "max_replicas = 64\n"
                "stop_metric = terminated\n"
                "stop_range = 0,1\n"
                "stop_threshold = 0.75\n",
                0xfcafff9e8036cab6ULL);
}

TEST(SpecIdentity, BernsteinStopWithoutOptionalKeys) {
  ScenarioSpec spec;
  spec.name = "bernstein";
  spec.replicas = 32;
  spec.metrics = {"mean_mono_region"};
  spec.stop.rule = StopRule::kBernstein;
  spec.stop.delta = 0.02;
  spec.stop.range_lo = 0.0;
  spec.stop.range_hi = 4096.0;
  expect_frozen(spec,
                "name = bernstein\n"
                "n = 64\n"
                "w = 2\n"
                "tau = 0.45000000000000001\n"
                "tau_minus = -1\n"
                "p = 0.5\n"
                "shape = moore\n"
                "dynamics = glauber\n"
                "replicas = 32\n"
                "max_flips = 0\n"
                "sync_max_rounds = 4096\n"
                "region_samples = 16\n"
                "almost_eps = 0.10000000000000001\n"
                "metrics = mean_mono_region\n"
                "stop_rule = bernstein\n"
                "stop_delta = 0.02\n"
                "stop_alpha = 0.050000000000000003\n"
                "min_replicas = 2\n"
                "stop_range = 0,4096\n",
                0x03ecf727138d6c90ULL);
}

}  // namespace
}  // namespace seg

// Campaign-level differential battery for the streaming_* metric group.
//
// A campaign replica computes the streaming_* columns from the final
// configuration (one cluster rescan, the engine's spin sum) and from a
// magnetization series recorded at the sampling cadence, not from a
// per-flip StreamingObservables engine. These tests pin what that must not
// change: a reduced built-in region_size campaign with
// metrics = streaming,flips renders the same CSV bytes at 1 and 4 worker
// threads, and those bytes hash to values frozen from the implementation
// that tracked every flip with the observer. The cases cover the serial
// and the 2-shard engine, each at the default (n^2/64) and a dense
// (every 3 flips) streaming_sample_every. No streaming_* cell may be NaN:
// that is what a column reading a detached observer would report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "campaign/sinks.h"
#include "golden_fixtures.h"

namespace seg {
namespace {

constexpr std::uint64_t kCampaignSeed = 37;

struct Case {
  std::size_t shards;
  std::uint64_t sample_every;
  std::uint64_t frozen_hash;
};

BuiltinCampaign reduced_region_size(const Case& c) {
  ScenarioSpec spec;
  BuiltinOverrides overrides;
  overrides.replicas = 4;
  EXPECT_TRUE(builtin_spec("region_size", overrides, &spec));
  spec.w = {1, 2, 3};
  spec.metrics = {"streaming", "flips"};
  spec.shards = c.shards;
  spec.streaming_sample_every = c.sample_every;
  BuiltinCampaign campaign;
  std::string why;
  EXPECT_TRUE(build_campaign("region_size", spec, &campaign, &why)) << why;
  return campaign;
}

CampaignResult run_at(const BuiltinCampaign& campaign, std::size_t threads) {
  CampaignOptions options;
  options.threads = threads;
  CampaignResult result =
      run_campaign(campaign.spec, campaign.points, campaign.metric_names,
                   campaign.replica, kCampaignSeed, options);
  EXPECT_TRUE(result.complete);
  return result;
}

class StreamingCampaign : public ::testing::TestWithParam<Case> {};

TEST_P(StreamingCampaign, ThreadInvariantFrozenAndNaNFree) {
  const Case& c = GetParam();
  const BuiltinCampaign campaign = reduced_region_size(c);
  const CampaignResult one = run_at(campaign, 1);
  const std::string csv = CsvSink::render(campaign.spec, one);
  EXPECT_EQ(csv, CsvSink::render(campaign.spec, run_at(campaign, 4)));
  EXPECT_EQ(golden::hash_bytes(csv.data(), csv.size()), c.frozen_hash)
      << csv;

  EXPECT_EQ(csv.find("nan"), std::string::npos) << csv;
  ASSERT_EQ(campaign.metric_names.size(), 7u);
  for (std::size_t p = 0; p < one.points.size(); ++p) {
    for (const std::string& name : campaign.metric_names) {
      const RunningStats* stats = one.stats_for(p, name);
      ASSERT_NE(stats, nullptr) << name;
      EXPECT_EQ(stats->count(), campaign.spec.replicas) << name;
      EXPECT_FALSE(std::isnan(stats->mean())) << name << " point " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RegionSize, StreamingCampaign,
    ::testing::Values(Case{1, 0, 0x033d9ac7707a377eULL},
                      Case{1, 3, 0x252852b086077536ULL},
                      Case{2, 0, 0x6f98209c41d52f6eULL},
                      Case{2, 3, 0xcae33b9e96d0d63dULL}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "shards" + std::to_string(info.param.shards) + "_every" +
             std::to_string(info.param.sample_every);
    });

}  // namespace
}  // namespace seg

// Campaign-level differential battery for the streaming_* metric group.
//
// A campaign replica computes the streaming_* columns from the final
// configuration (one cluster rescan, the engine's spin sum) and from a
// magnetization series recorded at the sampling cadence, not from a
// per-flip StreamingObservables engine. These tests pin what that must not
// change: a reduced built-in region_size campaign with
// metrics = streaming,flips renders the same CSV bytes at 1 and 4 worker
// threads, and those bytes hash to frozen values. The cases cover the
// serial and the 2-shard engine, each at the default (n^2/64) and a dense
// (every 3 flips) streaming_sample_every. The 2-shard hashes come from the
// implementation that tracked every flip with the observer; the serial
// ones were re-frozen when the serial autocorrelation series dropped the
// end-of-run sample, so that it holds cadence samples only, as the
// sharded one does (every other column kept its bytes). No streaming_*
// cell may be NaN: that is what a column reading a detached observer
// would report. A last case pins the serial series itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/correlation.h"
#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "golden_fixtures.h"
#include "lattice/engine.h"

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
    ::testing::Values(Case{1, 0, 0x596f65b18f503c09ULL},
                      Case{1, 3, 0x1c4bc2d3e2372e36ULL},
                      Case{2, 0, 0x6f98209c41d52f6eULL},
                      Case{2, 3, 0xcae33b9e96d0d63dULL}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "shards" + std::to_string(info.param.shards) + "_every" +
             std::to_string(info.param.sample_every);
    });

// The magnetization after every flip, from the engine's flip hook.
class MagnetizationLog : public FlipObserver {
 public:
  explicit MagnetizationLog(std::int64_t start) : m_(start) {}
  void on_flip(std::uint32_t, std::int8_t new_spin) override {
    m_ += 2 * new_spin;
    series.push_back(m_);
  }
  std::vector<std::int64_t> series;

 private:
  std::int64_t m_;
};

// At streaming_sample_every = 1 the cadence samples are the magnetization
// after each flip, once each: a serial replica's streaming_autocorr_lag1
// is the autocorrelation of exactly that series. The end-of-run snapshot
// call is not a sample.
TEST(StreamingSamples, SerialReplicaReadsTheCadenceOnlySeries) {
  ScenarioSpec spec;
  spec.name = "serial_cadence";
  spec.n = {32};
  spec.w = {1, 2};
  spec.tau = {0.40, 0.45};
  spec.replicas = 3;
  spec.metrics = {"streaming_autocorr_lag1", "flips"};
  spec.streaming_sample_every = 1;
  const ReplicaFn replica = make_schelling_replica(spec);
  std::size_t index = 0;
  for (const ScenarioPoint& point : expand_grid(spec)) {
    for (std::size_t r = 0; r < spec.replicas; ++r, ++index) {
      const std::uint64_t seed = derive_replica_seed(53, index);
      const std::vector<double> got = replica(point, r, seed);
      ASSERT_EQ(got.size(), 2u);

      Rng init = Rng::stream(seed, 0);
      SchellingModel model(point.params, init);
      MagnetizationLog log(model.magnetization());
      model.set_flip_observer(&log);
      Rng dyn = Rng::stream(seed, 1);
      const RunResult run = run_glauber(model, dyn);
      ASSERT_EQ(log.series.size(), run.flips);
      ASSERT_GT(run.flips, 1u);
      const std::vector<double> gamma = autocovariance(log.series, 1);
      const double expected = gamma[0] == 0.0 ? 0.0 : gamma[1] / gamma[0];
      EXPECT_EQ(std::memcmp(&got[0], &expected, sizeof(double)), 0)
          << "point " << point.index << " replica " << r << ": " << got[0]
          << " vs " << expected;
      EXPECT_EQ(got[1], static_cast<double>(run.flips));
    }
  }
}

}  // namespace
}  // namespace seg

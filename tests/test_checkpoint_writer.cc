// Differential battery for the campaign's background checkpoint writer.
//
// Periodic saves run on one writer thread while the workers keep
// completing replicas. These tests pin what that concurrency must not
// change, for a fixed-replica and an adaptive campaign alike:
//  1. A replica that loads the checkpoint mid-run always finds a
//     canonical file (load_checkpoint accepts only the bytes
//     save_checkpoint writes). Its rows are a bitwise subset of the final
//     file's rows and its stop decisions a subset of the final trace.
//  2. The final file is byte-identical whether a save is requested every
//     64 completions or after every one, and for a fixed campaign also
//     whether 1 or 4 workers run it.
//  3. An unwritable checkpoint path warns once, sets
//     checkpoint_write_failed, and the campaign still completes.
//  4. A run cut short by max_new_replicas leaves a final file that
//     resumes into the uninterrupted result.
//  5. The writer's saves and the caller's final drain show in the trace
//     and in the run report's phase histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/sinks.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rng/splitmix64.h"

namespace seg {
namespace {

constexpr std::uint64_t kSeed = 11;
const std::vector<std::string> kMetricNames = {"value", "square"};

// Even points draw a narrow value (the Bernstein rule fires early), odd
// points a wide one (they run to the cap).
std::vector<double> synthetic_row(const ScenarioPoint& point,
                                  std::uint64_t replica_seed) {
  SplitMix64 rng(replica_seed);
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const double v = point.index % 2 == 0 ? 0.5 + 0.05 * (2.0 * u - 1.0) : u;
  return {v, v * v};
}

ReplicaFn synthetic_replica() {
  return [](const ScenarioPoint& point, std::size_t /*replica*/,
            std::uint64_t replica_seed) {
    return synthetic_row(point, replica_seed);
  };
}

ScenarioSpec synthetic_spec(bool adaptive) {
  ScenarioSpec spec;
  spec.name = adaptive ? "writer_adaptive" : "writer_fixed";
  spec.n = {8};
  spec.w = {1};
  spec.tau = {0.30, 0.31, 0.32, 0.33};
  spec.replicas = 256;
  spec.metrics = {"flips"};  // layout placeholder; the replica is custom
  if (adaptive) {
    spec.stop.rule = StopRule::kBernstein;
    spec.stop.delta = 0.2;
    spec.stop.min_replicas = 8;
  }
  return spec;
}

CampaignResult run(const ScenarioSpec& spec, const ReplicaFn& fn,
                   const CampaignOptions& options) {
  return run_campaign(spec, expand_grid(spec), kMetricNames, fn, kSeed,
                      options);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// What the loading replicas saw mid-run.
struct MidRunLoads {
  std::mutex mu;
  std::vector<CheckpointData> loaded;
  std::size_t refused = 0;  // no file after 10 s, or a non-canonical one
};

// Every 8th replica of a point (past its first) loads the checkpoint. By
// then at least five earlier replicas have completed at 4 workers, so a
// save was requested; the replica waits (10 s at most) for the writer's
// first file, and any load after that must succeed.
ReplicaFn loading_replica(const std::string& path, MidRunLoads* loads) {
  return [path, loads](const ScenarioPoint& point, std::size_t replica,
                       std::uint64_t replica_seed) {
    if (replica > 0 && replica % 8 == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!std::filesystem::exists(path) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      CheckpointData ck;
      const bool ok = load_checkpoint(path, &ck);
      std::lock_guard<std::mutex> lock(loads->mu);
      if (ok) {
        loads->loaded.push_back(std::move(ck));
      } else {
        ++loads->refused;
      }
    }
    return synthetic_row(point, replica_seed);
  };
}

class CheckpointWriter : public ::testing::TestWithParam<bool> {};

TEST_P(CheckpointWriter, MidRunLoadsSeeCanonicalSubsetsOfTheFinalFile) {
  const ScenarioSpec spec = synthetic_spec(GetParam());
  const std::string path =
      ::testing::TempDir() + "/seg_writer_midrun_" + spec.name + ".ck";
  std::remove(path.c_str());
  MidRunLoads loads;
  CampaignOptions options;
  options.threads = 4;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  const CampaignResult result =
      run(spec, loading_replica(path, &loads), options);
  ASSERT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_failed);
  CheckpointData final_ck;
  ASSERT_TRUE(load_checkpoint(path, &final_ck));
  EXPECT_EQ(final_ck.done_count(), result.replicas_done);
  if (GetParam()) EXPECT_FALSE(final_ck.trace.empty());

  EXPECT_EQ(loads.refused, 0u);
  EXPECT_FALSE(loads.loaded.empty());
  for (const CheckpointData& ck : loads.loaded) {
    EXPECT_EQ(ck.seed, final_ck.seed);
    EXPECT_EQ(ck.spec_hash, final_ck.spec_hash);
    EXPECT_EQ(ck.metric_count, final_ck.metric_count);
    ASSERT_EQ(ck.done.size(), final_ck.done.size());
    for (std::size_t g = 0; g < ck.done.size(); ++g) {
      if (!ck.done[g]) continue;
      EXPECT_TRUE(final_ck.done[g]) << "row " << g;
      EXPECT_TRUE(same_bits(ck.values[g], final_ck.values[g])) << "row " << g;
    }
    for (const StopDecision& d : ck.trace) {
      EXPECT_NE(std::find(final_ck.trace.begin(), final_ck.trace.end(), d),
                final_ck.trace.end())
          << "point " << d.point;
    }
  }
  std::remove(path.c_str());
}

TEST_P(CheckpointWriter, FinalFileIndependentOfSaveCadence) {
  const ScenarioSpec spec = synthetic_spec(GetParam());
  const std::string serial =
      ::testing::TempDir() + "/seg_writer_serial_" + spec.name + ".ck";
  const std::string busy =
      ::testing::TempDir() + "/seg_writer_busy_" + spec.name + ".ck";
  CampaignOptions options;
  options.threads = 1;
  options.checkpoint_path = serial;
  options.checkpoint_every = 64;
  ASSERT_TRUE(run(spec, synthetic_replica(), options).complete);
  // An adaptive campaign records the replicas still in flight when a
  // rule fires, so its final rows depend on the worker count.
  options.threads = GetParam() ? 1 : 4;
  options.checkpoint_path = busy;
  options.checkpoint_every = 1;
  ASSERT_TRUE(run(spec, synthetic_replica(), options).complete);
  const std::string bytes = read_file(serial);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(busy));
  std::remove(serial.c_str());
  std::remove(busy.c_str());
}

TEST_P(CheckpointWriter, UnwritablePathWarnsOnceAndCompletes) {
  const ScenarioSpec spec = synthetic_spec(GetParam());
  const std::string path =
      ::testing::TempDir() + "/seg_writer_no_such_dir/" + spec.name + ".ck";
  CampaignOptions options;
  options.threads = 4;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  ::testing::internal::CaptureStderr();
  const CampaignResult result = run(spec, synthetic_replica(), options);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.checkpoint_write_failed);
  const std::string warning = "warning: failed to write campaign checkpoint";
  const std::size_t first = log.find(warning);
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find(warning, first + 1), std::string::npos) << log;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_P(CheckpointWriter, BudgetCutLeavesAResumableFinalFile) {
  const ScenarioSpec spec = synthetic_spec(GetParam());
  CampaignOptions plain;
  plain.threads = 4;
  const CampaignResult uninterrupted = run(spec, synthetic_replica(), plain);
  ASSERT_TRUE(uninterrupted.complete);

  const std::string path =
      ::testing::TempDir() + "/seg_writer_budget_" + spec.name + ".ck";
  std::remove(path.c_str());
  CampaignOptions partial_options;
  partial_options.threads = 4;
  partial_options.checkpoint_path = path;
  partial_options.checkpoint_every = 1;
  partial_options.max_new_replicas = 20;
  const CampaignResult partial = run(spec, synthetic_replica(), partial_options);
  EXPECT_FALSE(partial.complete);
  CheckpointData ck;
  ASSERT_TRUE(load_checkpoint(path, &ck));
  EXPECT_EQ(ck.done_count(), partial.replicas_done);

  CampaignOptions resume_options;
  resume_options.threads = 4;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_every = 1;
  resume_options.resume = true;
  const CampaignResult resumed = run(spec, synthetic_replica(), resume_options);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.replicas_resumed, partial.replicas_done);
  EXPECT_EQ(resumed.decision_trace, uninterrupted.decision_trace);
  EXPECT_EQ(CsvSink::render(spec, resumed),
            CsvSink::render(spec, uninterrupted));
  std::remove(path.c_str());
}

#if !defined(SEG_TELEMETRY_DISABLED)
TEST(CheckpointWriterObservability, SavesAndDrainAreTracedAndTimed) {
  const ScenarioSpec spec = synthetic_spec(false);
  const std::string path =
      ::testing::TempDir() + "/seg_writer_observed.ck";
  obs::set_enabled(true);
  obs::Registry::instance().reset_values();
  obs::TraceSession session;
  session.start();
  CampaignOptions options;
  options.threads = 4;
  options.checkpoint_path = path;
  options.checkpoint_every = 16;
  const CampaignResult result = run(spec, synthetic_replica(), options);
  session.stop();
  const obs::RunReport report = obs::build_report(result, 1.0);
  obs::set_enabled(false);
  std::remove(path.c_str());
  ASSERT_TRUE(result.complete);

  // One drain per campaign; every save, periodic or final, is timed.
  std::uint64_t drains = 0;
  std::uint64_t writes = 0;
  for (const obs::PhaseLatency& phase : report.phases) {
    if (phase.name == "span.checkpoint_drain_ns") drains = phase.count;
    if (phase.name == "span.checkpoint_write_ns") writes = phase.count;
  }
  EXPECT_EQ(drains, 1u);
  EXPECT_GE(writes, 1u);
  EXPECT_EQ(writes, report.checkpoints_written);
  const std::string trace = session.to_json();
  EXPECT_NE(trace.find("\"checkpoint_drain\""), std::string::npos);
  EXPECT_NE(trace.find("\"checkpoint_write\""), std::string::npos);
}
#endif  // !SEG_TELEMETRY_DISABLED

INSTANTIATE_TEST_SUITE_P(FixedAndAdaptive, CheckpointWriter,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "adaptive" : "fixed";
                         });

}  // namespace
}  // namespace seg

// The campaign engine: fans the replicas of a scenario grid out over a
// thread pool and aggregates per-replica metrics online.
//
// Determinism contract: replica g (the global index point *
// layout_replicas + r) draws every random bit from a stream derived as
// mix_seed(campaign seed, g), and the per-point aggregates are folded in
// global replica order after all replicas finish. The aggregated result
// is therefore bitwise identical at any thread count, and identical
// whether the campaign ran uninterrupted or was checkpointed, killed and
// resumed.
//
// Adaptive campaigns (spec.stop.rule != kNone): workers claim replicas
// from a shared queue instead of running a fixed count per point. Each
// point folds its completed replicas in replica order through a
// SequentialStopper; the moment the rule fires the point stops claiming
// new replicas and the freed worker slots flow to the open point with
// the widest confidence interval. Because the stopper folds in replica
// order — never completion order — the decision (replica count and
// bound, the StopDecision) is a pure function of the campaign seed:
// identical at any thread count and across checkpoint/resume. Replicas
// already in flight when a rule fires still complete and are recorded in
// the checkpoint, but are excluded from the aggregates, which contain
// exactly the first `replicas_used` replicas of each point.
//
// Checkpointing: when a checkpoint path is set, a background writer
// thread periodically persists the raw per-replica metric vectors
// (bit-exact) plus the spec hash and the stop-decision trace, and the
// engine saves once more after the workers stop; a resumed run loads
// them, replays the decisions from the raw rows (refusing the checkpoint
// if the replay disagrees with the stored trace), skips the completed
// replicas, and produces the same fold.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/scenario.h"
#include "util/stats.h"

namespace seg {

// Computes the metric vector for one replica of one scenario point. The
// vector must be parallel to the campaign's metric names. `replica` is the
// 0-based replica index within the point; `replica_seed` is the stream
// seed derived from the campaign seed and the global replica index — all
// randomness must come from it.
using ReplicaFn = std::function<std::vector<double>(
    const ScenarioPoint& point, std::size_t replica,
    std::uint64_t replica_seed)>;

struct CampaignOptions {
  std::size_t threads = 1;  // 0 = hardware concurrency

  // Empty disables checkpointing. Writes are atomic (tmp + fsync +
  // rename) and run on one background writer thread per campaign, never
  // on a worker. The final save runs after the workers stop, so the final
  // file's bytes, and what a resume reads, do not depend on the writer.
  std::string checkpoint_path;
  // A save is requested every checkpoint_every completions. Requests
  // made while a save is in flight merge into the next save.
  std::size_t checkpoint_every = 64;
  // Load checkpoint_path (if present and matching) before running.
  bool resume = false;

  // If nonzero, stop scheduling new replicas once this many have finished
  // in this run (already-running replicas still complete). Used to bound
  // a run's work and to exercise the checkpoint/resume path; the result
  // is marked incomplete, and under a stopping rule the unresolved points
  // are reported kOpen (budget-exhausted, resumable) — never as stopped.
  std::size_t max_new_replicas = 0;

  // Invoked (under the engine lock) as replicas finish.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

// How a point's replica budget resolved.
enum class PointState {
  kFixed,    // fixed-replica campaign: ran exactly spec.replicas
  kStopped,  // the stopping rule fired at replicas_used replicas
  kCapped,   // folded every replica up to the per-point cap, no fire
  kOpen,     // unresolved: run interrupted or max_new_replicas exhausted
};

const char* point_state_name(PointState state);

struct PointResult {
  ScenarioPoint point;
  // Parallel to CampaignResult::metric_names; each accumulator holds the
  // point's completed replicas, folded in replica order. Under a stopping
  // rule, exactly the first replicas_used replicas — in-flight stragglers
  // recorded after the rule fired are excluded.
  std::vector<RunningStats> stats;

  PointState state = PointState::kFixed;
  // Replicas folded into `stats` (the decision's count when kStopped).
  std::size_t replicas_used = 0;
  // Confidence-sequence half-width after the last folded replica: the
  // decision bound when kStopped, the current width when kCapped/kOpen,
  // +infinity when kFixed or nothing folded yet.
  double stop_bound = 0.0;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  std::vector<std::string> metric_names;
  std::vector<PointResult> points;
  std::size_t replicas_done = 0;     // completed, including resumed
  std::size_t replicas_resumed = 0;  // loaded from a checkpoint
  // Complete = every point resolved: all replicas done (fixed), or every
  // point kStopped/kCapped (adaptive).
  bool complete = false;

  // Adaptive campaigns: the stop decisions, ordered by point index —
  // deterministic for a given seed and spec, invariant to thread count
  // and checkpoint/resume (tests/test_campaign_adaptive.cc pins this).
  // Empty for fixed-replica campaigns.
  std::vector<StopDecision> decision_trace;
  // True if any checkpoint write failed (also warned on stderr once);
  // the run's results are still valid but a kill would lose them.
  bool checkpoint_write_failed = false;

  // nullptr if the point index or metric name is unknown.
  const RunningStats* stats_for(std::size_t point_index,
                                const std::string& metric) const;
};

// Stream seed for global replica index g of a campaign.
std::uint64_t derive_replica_seed(std::uint64_t campaign_seed,
                                  std::size_t global_index);

// Core engine: runs `replica` for every (point, replica) pair not already
// satisfied by a resumed checkpoint. `metric_names` defines the layout of
// the replica vectors and of the aggregated result.
CampaignResult run_campaign(const ScenarioSpec& spec,
                            const std::vector<ScenarioPoint>& points,
                            const std::vector<std::string>& metric_names,
                            const ReplicaFn& replica, std::uint64_t seed,
                            const CampaignOptions& options = {});

// Convenience: expands the spec's grid and runs the built-in Schelling
// replica with spec.metrics resolved against the metric registry.
CampaignResult run_campaign(const ScenarioSpec& spec, std::uint64_t seed,
                            const CampaignOptions& options = {});

}  // namespace seg

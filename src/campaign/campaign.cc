#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/checkpoint.h"
#include "campaign/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rng/splitmix64.h"
#include "util/thread_pool.h"

namespace seg {

const char* point_state_name(PointState state) {
  switch (state) {
    case PointState::kFixed: return "fixed";
    case PointState::kStopped: return "stopped";
    case PointState::kCapped: return "capped";
    case PointState::kOpen: return "open";
  }
  return "fixed";
}

const RunningStats* CampaignResult::stats_for(
    std::size_t point_index, const std::string& metric) const {
  if (point_index >= points.size()) return nullptr;
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (metric_names[m] == metric) return &points[point_index].stats[m];
  }
  return nullptr;
}

std::uint64_t derive_replica_seed(std::uint64_t campaign_seed,
                                  std::size_t global_index) {
  return mix_seed(campaign_seed,
                  static_cast<std::uint64_t>(global_index));
}

namespace {

// Campaign identity for checkpoints: the spec hash alone is not enough
// because callers (e.g. the region_size built-in) may adjust the expanded
// points after expand_grid; hash what will actually run.
std::uint64_t campaign_identity(const ScenarioSpec& spec,
                                const std::vector<ScenarioPoint>& points) {
  std::uint64_t h = spec.hash();
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  auto mix_double = [&mix](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (const ScenarioPoint& pt : points) {
    mix(static_cast<std::uint64_t>(pt.params.n));
    mix(static_cast<std::uint64_t>(pt.params.w));
    mix_double(pt.params.tau);
    mix_double(pt.params.tau_minus);
    mix_double(pt.params.p);
    mix(static_cast<std::uint64_t>(pt.params.shape));
    mix(static_cast<std::uint64_t>(pt.dynamics));
    // Mixed only for non-torus points so every pre-graph campaign keeps
    // its identity (and its checkpoints). The graph_* parameters are
    // covered by the spec hash (non-default keys enter the canonical
    // text).
    if (pt.topology != TopologyFamily::kTorus) {
      mix(static_cast<std::uint64_t>(pt.topology));
    }
  }
  return h;
}

// Caller-supplied metric names define the column layout of the checkpoint
// rows, so they are part of the identity too (spec.metrics may differ
// from them for custom-replica campaigns).
std::uint64_t metrics_identity(std::uint64_t h,
                               const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // separator so {"ab","c"} != {"a","bc"}
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Shared mutable state of one engine run. `mutex` guards done / values /
// the counters, all adaptive state and the checkpoint writer's handshake.
struct EngineState {
  std::mutex mutex;
  // Signaled after every completed replica: wakes workers parked because
  // every open point had already claimed its full run-ahead window.
  std::condition_variable claimable;
  std::vector<std::uint8_t> done;
  std::vector<std::vector<double>> values;
  std::size_t fresh_done = 0;       // completed in this run
  std::size_t since_checkpoint = 0;
  std::atomic<bool> stop{false};

  // Adaptive campaigns only. stoppers[p] folds point p's watched metric
  // in replica order; frontier[p] counts the replicas folded so far
  // (rows are folded only while contiguous from replica 0); next[p] is
  // the next replica index to claim. `trace` holds the decisions in fire
  // order — every snapshot sorts by point, and the content of each entry
  // is deterministic, so persisted traces are thread-invariant.
  std::vector<SequentialStopper> stoppers;
  std::vector<std::size_t> frontier;
  std::vector<std::size_t> next;
  std::vector<StopDecision> trace;
  // Replicas the campaign will actually run: the layout total, shrunk
  // whenever a rule fires (progress denominator, so ETA tracks the
  // adaptive workload rather than the worst-case cap).
  std::size_t effective_total = 0;

  // Checkpoint writer handshake: a worker sets save_requested and
  // signals save_wanted; writer_exit tells the writer to return.
  std::condition_variable save_wanted;
  bool save_requested = false;
  bool writer_exit = false;

  // Checkpoint header: campaign seed, identity hash and row width.
  std::uint64_t seed = 0;
  std::uint64_t identity = 0;
  std::size_t metric_count = 0;
  // Only the checkpoint writer touches this while it runs, and the caller
  // after joining it.
  bool checkpoint_write_failed = false;
};

// Saves every row published so far. Only the done-flag bytes and the
// decision trace are copied under the engine mutex; a row published
// there is immutable afterwards, so the save reads it in place, outside
// the lock, and workers never wait on the render or the disk. Decisions
// are recorded in the same critical section as the row that triggered
// them, so the (done, trace) snapshot is always coherent: the trace is
// exactly what a replay of the done rows produces.
void write_checkpoint(const std::string& path, EngineState& state) {
  SEG_SPAN("checkpoint_write");
  SEG_COUNT("campaign.checkpoints", 1);
  SEG_FLIGHT("checkpoint_write", 0, 0);
  std::vector<std::uint8_t> done_now;
  std::vector<StopDecision> trace_now;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    done_now = state.done;
    trace_now = state.trace;
  }
  std::sort(trace_now.begin(), trace_now.end(),
            [](const StopDecision& a, const StopDecision& b) {
              return a.point < b.point;
            });
  const CheckpointView view{state.seed,  state.identity, state.metric_count,
                            done_now,    state.values,   trace_now};
  if (!save_checkpoint(path, view)) {
    if (!state.checkpoint_write_failed) {
      std::fprintf(stderr,
                   "warning: failed to write campaign checkpoint %s\n",
                   path.c_str());
    }
    state.checkpoint_write_failed = true;
  }
}

// Runs the periodic checkpoint saves on a thread of its own, so a worker
// whose completion makes a save due only sets a flag: it never renders,
// writes or fsyncs. A request made while a save is in flight merges into
// the next save. finish() (also run on destruction) drops any pending
// request and joins; the caller's final save covers it.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, EngineState& state)
      : state_(state), thread_([this, &path] { loop(path); }) {}
  ~CheckpointWriter() { finish(); }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(state_.mutex);
      state_.writer_exit = true;
    }
    state_.save_wanted.notify_one();
    thread_.join();
  }

 private:
  void loop(const std::string& path) {
    std::unique_lock<std::mutex> lock(state_.mutex);
    for (;;) {
      state_.save_wanted.wait(lock, [this] {
        return state_.save_requested || state_.writer_exit;
      });
      if (state_.writer_exit) return;
      state_.save_requested = false;
      lock.unlock();
      write_checkpoint(path, state_);
      lock.lock();
    }
  }

  EngineState& state_;
  std::thread thread_;
};

}  // namespace

CampaignResult run_campaign(const ScenarioSpec& spec,
                            const std::vector<ScenarioPoint>& points,
                            const std::vector<std::string>& metric_names,
                            const ReplicaFn& replica, std::uint64_t seed,
                            const CampaignOptions& options) {
  const bool adaptive = spec.stop.rule != StopRule::kNone;
  const std::size_t replicas = spec.layout_replicas();
  const std::size_t metric_count = metric_names.size();
  const std::size_t npoints = points.size();
  const std::size_t total = npoints * replicas;
  const std::uint64_t identity =
      metrics_identity(campaign_identity(spec, points), metric_names);

  // Watched-metric column for the stopper; empty stop.metric = column 0.
  std::size_t watch = 0;
  if (adaptive && !spec.stop.metric.empty()) {
    const std::size_t idx = metric_index(metric_names, spec.stop.metric);
    if (idx < metric_count) watch = idx;
  }

  EngineState state;
  state.done.assign(total, 0);
  state.values.assign(total, {});
  state.effective_total = total;
  if (adaptive) {
    state.stoppers.assign(npoints, SequentialStopper(spec.stop));
    state.frontier.assign(npoints, 0);
    state.next.assign(npoints, 0);
  }

  // Publishes the live adaptive gauges the progress reporter samples.
  // Call with `state.mutex` held (or before workers start).
  auto update_gauges_locked = [&] {
    if (!obs::enabled()) return;
    std::size_t open = 0;
    double max_h = -1.0;
    for (std::size_t p = 0; p < npoints; ++p) {
      if (state.stoppers[p].fired() || state.frontier[p] >= replicas) continue;
      ++open;
      const double h = state.stoppers[p].half_width();
      if (std::isfinite(h) && h > max_h) max_h = h;
    }
    SEG_GAUGE_SET("campaign.open_points", open);
    if (max_h >= 0.0) {
      SEG_GAUGE_SET("campaign.max_ci_half_width_ppm", max_h * 1e6);
    }
  };

  // Advances point p's fold over its contiguous completed prefix; records
  // the stop decision the moment the rule fires. Call with `state.mutex`
  // held. The fold consumes rows strictly in replica order, so the
  // decision is a function of the campaign seed alone.
  auto fold_point_locked = [&](std::size_t p) {
    SequentialStopper& st = state.stoppers[p];
    if (st.fired()) return;
    std::size_t& fr = state.frontier[p];
    while (fr < replicas && state.done[p * replicas + fr]) {
      const double v = state.values[p * replicas + fr][watch];
      ++fr;
      if (st.observe(v)) {
        state.trace.push_back(StopDecision{
            static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(fr),
            spec.stop.rule, st.bound_at_stop()});
        SEG_FLIGHT("stop_decision", p, fr);
        // The point's remaining cap shrinks to what is already claimed or
        // recorded: the decision prefix, claims in flight, and any
        // resumed row beyond them.
        std::size_t cap = std::max(fr, state.next[p]);
        for (std::size_t r = replicas; r > cap; --r) {
          if (state.done[p * replicas + (r - 1)]) {
            cap = r;
            break;
          }
        }
        state.effective_total -= replicas - cap;
        break;
      }
    }
  };

  // A checkpoint's stored trace must equal a replay of its raw rows —
  // torn files and edited traces are refused, and acceptance proves the
  // resumed run continues the exact decision sequence.
  auto replay_matches = [&](const CheckpointData& ck) {
    if (!adaptive) return ck.trace.empty();
    std::vector<StopDecision> replayed;
    for (std::size_t p = 0; p < npoints; ++p) {
      SequentialStopper st(spec.stop);
      for (std::size_t r = 0; r < replicas; ++r) {
        const std::size_t g = p * replicas + r;
        if (!ck.done[g]) break;
        if (st.observe(ck.values[g][watch])) {
          replayed.push_back(StopDecision{
              static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(r + 1),
              spec.stop.rule, st.bound_at_stop()});
          break;
        }
      }
    }
    return replayed == ck.trace;
  };

  std::size_t resumed = 0;
  if (options.resume && !options.checkpoint_path.empty()) {
    CheckpointData ck;
    if (load_checkpoint(options.checkpoint_path, &ck) && ck.seed == seed &&
        ck.spec_hash == identity && ck.done.size() == total &&
        ck.metric_count == metric_count && replay_matches(ck)) {
      state.done = std::move(ck.done);
      state.values = std::move(ck.values);
      resumed = 0;
      for (const std::uint8_t d : state.done) resumed += d != 0;
    }
  }
  state.seed = seed;
  state.identity = identity;
  state.metric_count = metric_count;

  if (adaptive) {
    // Replay the resumed rows through the live stoppers (a no-op on a
    // fresh run); replay_matches already proved the outcome equals the
    // stored trace.
    for (std::size_t p = 0; p < npoints; ++p) fold_point_locked(p);
    update_gauges_locked();
  }

  // Adaptive claims may run ahead of a point's fold frontier by at most
  // this many replicas. The stopper's half-width only moves when the
  // contiguous fold advances, so without a window one straggling replica
  // lets the other workers pile arbitrarily many claims onto the stalled
  // point — all waste if the rule then fires inside the backlog. With the
  // window, post-fire waste per point is bounded by the window instead of
  // by scheduling luck.
  const std::size_t workers_hint =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t claim_window = 2 * workers_hint;
  const std::size_t kDry = total;          // nothing left to claim
  const std::size_t kBlocked = total + 1;  // open work, window exhausted

  std::size_t cursor = 0;  // fixed-mode claim position
  // Claims the next global replica index to run; kDry when no open point
  // has unclaimed replicas, kBlocked when open points exist but all have
  // their run-ahead window fully claimed (the caller should wait for a
  // completion, not exit). Fixed campaigns claim in plain global order.
  // Adaptive campaigns first bring every open point to the min_replicas
  // floor (breadth-first, fewest claims first), then feed the open point
  // with the widest confidence interval; ties go to the lowest point
  // index. A fired point is never claimed again. Call with `state.mutex`
  // held.
  auto claim_locked = [&]() -> std::size_t {
    if (!adaptive) {
      while (cursor < total && state.done[cursor]) ++cursor;
      return cursor < total ? cursor++ : kDry;
    }
    std::size_t best = npoints;
    std::size_t best_next = 0;
    double best_h = -1.0;
    bool best_below_min = false;
    bool blocked = false;
    for (std::size_t p = 0; p < npoints; ++p) {
      if (state.stoppers[p].fired()) continue;
      std::size_t& nx = state.next[p];
      while (nx < replicas && state.done[p * replicas + nx]) ++nx;
      if (nx >= replicas) continue;
      // The floor is always claimable (a fire needs min_replicas folds,
      // so those claims are never wasted); past it, the window applies.
      if (nx >= std::max(state.frontier[p] + claim_window,
                         spec.stop.min_replicas)) {
        blocked = true;
        continue;
      }
      if (nx < spec.stop.min_replicas) {
        if (!best_below_min || nx < best_next) {
          best = p;
          best_next = nx;
          best_below_min = true;
        }
      } else if (!best_below_min) {
        const double h = state.stoppers[p].half_width();
        if (best == npoints || h > best_h) {
          best = p;
          best_h = h;
        }
      }
    }
    if (best == npoints) return blocked ? kBlocked : kDry;
    return best * replicas + state.next[best]++;
  };

  auto run_one = [&](std::size_t g) {
    const ScenarioPoint& point = points[g / replicas];
    std::vector<double> row;
    {
      SEG_SPAN("replica");
      row = replica(point, g % replicas, derive_replica_seed(seed, g));
    }
    SEG_COUNT("campaign.replicas_done", 1);
    SEG_FLIGHT("replica_done", g, 0);
    assert(row.size() == metric_count && "replica returned a wrong-width row");
    row.resize(metric_count, 0.0);
    bool save_due = false;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.values[g] = std::move(row);
      state.done[g] = 1;
      ++state.fresh_done;
      if (adaptive) {
        fold_point_locked(g / replicas);
        update_gauges_locked();
      }
      if (options.max_new_replicas > 0 &&
          state.fresh_done >= options.max_new_replicas) {
        state.stop.store(true, std::memory_order_relaxed);
      }
      if (options.progress) {
        options.progress(resumed + state.fresh_done, state.effective_total);
      }
      if (!options.checkpoint_path.empty() &&
          ++state.since_checkpoint >= options.checkpoint_every) {
        state.since_checkpoint = 0;
        state.save_requested = true;
        save_due = true;
      }
    }
    if (save_due) state.save_wanted.notify_one();
    // Wake window-blocked workers: the fold frontier (and the stop flag)
    // may have moved. The published state change happened under the
    // mutex, so notifying after release cannot lose a wakeup.
    state.claimable.notify_all();
  };

  // Workers pull from the claim queue until it runs dry (or the
  // max_new_replicas budget trips the stop flag); a claimed replica is
  // always completed and recorded. kBlocked parks the worker until a
  // completion moves a frontier — a blocked point always has claimed
  // rows in flight with another worker, so a wakeup is guaranteed.
  auto worker_loop = [&] {
    for (;;) {
      if (state.stop.load(std::memory_order_relaxed)) return;
      std::size_t g = kDry;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        g = claim_locked();
        while (g == kBlocked &&
               !state.stop.load(std::memory_order_relaxed)) {
          state.claimable.wait(lock);
          g = claim_locked();
        }
      }
      if (g >= total) return;
      run_one(g);
    }
  };

  std::optional<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    writer.emplace(options.checkpoint_path, state);
  }
  if (options.threads == 1) {
    worker_loop();
  } else {
    ThreadPool pool(options.threads, "campaign");
    const std::size_t workers = pool.thread_count();
    for (std::size_t t = 0; t < workers; ++t) pool.submit(worker_loop);
    pool.wait_idle();
  }

  // The final save runs after the workers and the writer stop, so the
  // file holds every completed row whatever the writer was doing.
  if (writer) {
    SEG_SPAN("checkpoint_drain");
    writer->finish();
    write_checkpoint(options.checkpoint_path, state);
  }

  // Deterministic fold: global replica order, independent of which thread
  // produced each row and of any checkpoint/resume boundary. Fixed
  // campaigns fold every completed row; adaptive campaigns fold exactly
  // the frontier prefix each stopper consumed.
  CampaignResult result;
  result.seed = seed;
  result.metric_names = metric_names;
  result.points.resize(npoints);
  std::size_t done_total = 0;
  for (std::size_t g = 0; g < total; ++g) done_total += state.done[g] != 0;
  for (std::size_t i = 0; i < npoints; ++i) {
    PointResult& pr = result.points[i];
    pr.point = points[i];
    pr.stats.resize(metric_count);
    if (!adaptive) {
      pr.state = PointState::kFixed;
      pr.stop_bound = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < replicas; ++r) {
        const std::size_t g = i * replicas + r;
        if (!state.done[g]) continue;
        ++pr.replicas_used;
        for (std::size_t m = 0; m < metric_count; ++m) {
          pr.stats[m].add(state.values[g][m]);
        }
      }
    } else {
      const SequentialStopper& st = state.stoppers[i];
      const std::size_t used = state.frontier[i];
      for (std::size_t r = 0; r < used; ++r) {
        const std::size_t g = i * replicas + r;
        for (std::size_t m = 0; m < metric_count; ++m) {
          pr.stats[m].add(state.values[g][m]);
        }
      }
      pr.replicas_used = used;
      if (st.fired()) {
        pr.state = PointState::kStopped;
        pr.stop_bound = st.bound_at_stop();
      } else if (used == replicas) {
        pr.state = PointState::kCapped;
        pr.stop_bound = st.half_width();
      } else {
        pr.state = PointState::kOpen;
        pr.stop_bound = st.half_width();
      }
    }
  }
  result.replicas_done = done_total;
  result.replicas_resumed = resumed;
  if (adaptive) {
    result.decision_trace = state.trace;
    std::sort(result.decision_trace.begin(), result.decision_trace.end(),
              [](const StopDecision& a, const StopDecision& b) {
                return a.point < b.point;
              });
    bool resolved = true;
    for (const PointResult& pr : result.points) {
      if (pr.state == PointState::kOpen) {
        resolved = false;
        break;
      }
    }
    result.complete = resolved;
  } else {
    result.complete = done_total == total;
  }
  result.checkpoint_write_failed = state.checkpoint_write_failed;
  return result;
}

CampaignResult run_campaign(const ScenarioSpec& spec, std::uint64_t seed,
                            const CampaignOptions& options) {
  return run_campaign(spec, expand_grid(spec), expand_metric_names(spec.metrics),
                      make_schelling_replica(spec), seed, options);
}

}  // namespace seg

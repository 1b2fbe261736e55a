// Live campaign progress: a periodic reporter that renders a one-line
// status to stderr (in-place when stderr is a TTY) and appends
// machine-readable JSON lines to a progress file.
//
// The reporter owns a ticker thread that wakes every interval and
// samples (a) the replica completion counters fed through callback() —
// wired to CampaignOptions::progress, which fires under the campaign
// engine lock, so the callback only touches atomics — and (b) the
// telemetry registry: engine flip counters for flips/sec, the
// per-worker pool busy counters for utilization, the sharded
// conflict-queue gauge, and the live magnetization gauge, published at
// every sample by a serial campaign replica's snapshot hook and at the
// end of a sharded replica that samples (and by analysis/streaming,
// which no program path runs). ETA extrapolates the replica
// completion rate over the remaining replicas.
//
// Each JSONL record:
//   {"t": seconds_since_start, "done": N, "total": N,
//    "replicas_per_s": R, "flips_per_s": F, "eta_s": E,
//    "workers": [u0, u1, ...],            // busy fraction per worker
//    "conflict_queue_depth": D,           // sharded runs, else 0
//    "streaming": {"magnetization": M},
//    "adaptive": {"open_points": P, "max_ci_half_width": W}}  // opt-in
//
// The "adaptive" object (and an "open P" status-line segment) appears
// when ProgressOptions::adaptive is set: the reporter then samples the
// campaign engine's live stopping gauges — campaign.open_points and
// campaign.max_ci_half_width_ppm (widest confidence interval over the
// still-open points, in parts-per-million of the metric range).
//
// A final record (and status line) is always emitted by finish(), so a
// zero-replica or faster-than-interval run still produces output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace seg::obs {

struct ProgressOptions {
  double interval_s = 1.0;    // ticker period
  std::string jsonl_path;     // empty: no progress file
  bool stderr_line = true;    // render the status line
  // TTY detection override for tests: 0 = auto (isatty(stderr)),
  // 1 = force carriage-return in-place line, -1 = force full lines.
  int force_tty = 0;
  // Worker-utilization counter prefix in the telemetry registry; the
  // campaign pool publishes under "pool.campaign.worker.".
  std::string worker_prefix = "pool.campaign.worker.";
  // Sample the adaptive-campaign stopping gauges (open points / widest
  // CI) into each record and the status line.
  bool adaptive = false;
};

class ProgressReporter {
 public:
  // `total` is the campaign's replica count (points x replicas).
  ProgressReporter(std::size_t total, ProgressOptions options = {});
  ~ProgressReporter();  // implies finish()
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  // Thread-safe completion update; shaped for CampaignOptions::progress.
  void replica_done(std::size_t done, std::size_t total);
  std::function<void(std::size_t, std::size_t)> callback();

  // Stops the ticker and emits the final record + status line.
  // Idempotent.
  void finish();

  // Number of JSONL records written (tests).
  std::size_t records_written() const;

  // The most recent JSONL record as a JSON object string (no trailing
  // newline), or "{}" before the first emission. Built on every tick
  // whether or not a progress file is open — this is what the metrics
  // endpoint serves as GET /progress. Thread-safe.
  std::string latest_record() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace seg::obs

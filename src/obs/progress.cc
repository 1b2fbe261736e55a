#include "obs/progress.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/telemetry.h"

namespace seg::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::string format_rate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

struct ProgressReporter::Impl {
  ProgressOptions options;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> total{0};
  Clock::time_point start = Clock::now();

  std::FILE* jsonl = nullptr;
  std::mutex emit_mutex;
  std::atomic<std::size_t> records{0};
  mutable std::mutex latest_mutex;
  std::string latest = "{}";  // newest record, no trailing newline
  bool tty = false;
  bool wrote_tty_line = false;

  // Previous sample, for instantaneous rates (guarded by emit_mutex).
  double prev_t = 0.0;
  std::size_t prev_done = 0;
  std::uint64_t prev_flips = 0;
  std::map<std::string, std::uint64_t> prev_busy;

  // Ticker.
  std::thread ticker;
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stopping = false;
  bool finished = false;

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  void emit(bool final) {
    std::lock_guard<std::mutex> lock(emit_mutex);
    const double t = elapsed_s();
    const std::size_t done_now = done.load(std::memory_order_relaxed);
    const std::size_t total_now = total.load(std::memory_order_relaxed);
    Registry& reg = Registry::instance();
    const std::uint64_t flips = reg.counter_value("engine.flips");

    const double dt = std::max(1e-9, t - prev_t);
    const double replicas_per_s =
        static_cast<double>(done_now - prev_done) / dt;
    const double flips_per_s =
        static_cast<double>(flips - prev_flips) / dt;
    // ETA from the overall average rate — steadier than the
    // instantaneous one, and defined from the first completed replica.
    const double overall_rate = done_now > 0 ? done_now / std::max(t, 1e-9)
                                             : 0.0;
    const double eta_s =
        overall_rate > 0.0 && total_now >= done_now
            ? static_cast<double>(total_now - done_now) / overall_rate
            : -1.0;

    // Per-worker utilization from the pool busy counters.
    std::vector<double> workers;
    double util_sum = 0.0;
    for (const auto& [name, busy_us] :
         reg.counters_with_prefix(options.worker_prefix)) {
      const auto it = prev_busy.find(name);
      const std::uint64_t prev = it == prev_busy.end() ? 0 : it->second;
      const double u = std::clamp(
          static_cast<double>(busy_us - prev) / (dt * 1e6), 0.0, 1.0);
      workers.push_back(u);
      util_sum += u;
      prev_busy[name] = busy_us;
    }
    const std::int64_t conflict_depth =
        reg.gauge_value("dynamics.conflict_queue_depth");
    const std::int64_t live_mag = reg.gauge_value("streaming.magnetization");
    const std::int64_t open_points = reg.gauge_value("campaign.open_points");
    const double max_ci = static_cast<double>(reg.gauge_value(
                              "campaign.max_ci_half_width_ppm")) /
                          1e6;

    prev_t = t;
    prev_done = done_now;
    prev_flips = flips;

    // The record is built on every tick — even with no progress file —
    // because the metrics endpoint serves the newest one as /progress.
    std::string line;
    {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"t\":%.3f,\"done\":%zu,\"total\":%zu,"
                    "\"replicas_per_s\":%.6g,\"flips_per_s\":%.6g,"
                    "\"eta_s\":%.3f,\"workers\":[",
                    t, done_now, total_now, replicas_per_s, flips_per_s,
                    eta_s);
      line = buf;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : ",",
                      workers[i]);
        line += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "],\"conflict_queue_depth\":%lld,"
                    "\"streaming\":{\"magnetization\":%lld}",
                    static_cast<long long>(conflict_depth),
                    static_cast<long long>(live_mag));
      line += buf;
      if (options.adaptive) {
        std::snprintf(buf, sizeof(buf),
                      ",\"adaptive\":{\"open_points\":%lld,"
                      "\"max_ci_half_width\":%.6g}",
                      static_cast<long long>(open_points), max_ci);
        line += buf;
      }
      line += "}";
    }
    {
      std::lock_guard<std::mutex> latest_lock(latest_mutex);
      latest = line;
    }
    if (jsonl != nullptr) {
      line += "\n";
      std::fwrite(line.data(), 1, line.size(), jsonl);
      std::fflush(jsonl);
      records.fetch_add(1, std::memory_order_relaxed);
    }

    if (options.stderr_line) {
      const double pct =
          total_now > 0 ? 100.0 * static_cast<double>(done_now) /
                              static_cast<double>(total_now)
                        : 100.0;
      char eta_buf[32];
      if (eta_s >= 0.0) {
        std::snprintf(eta_buf, sizeof(eta_buf), "%.0fs", eta_s);
      } else {
        std::snprintf(eta_buf, sizeof(eta_buf), "?");
      }
      char open_buf[40] = "";
      if (options.adaptive) {
        std::snprintf(open_buf, sizeof(open_buf), " | open %lld",
                      static_cast<long long>(open_points));
      }
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "campaign %zu/%zu (%.1f%%) | %s rep/s | %s flips/s | "
          "util %.0f%% (%zu) | ETA %s%s",
          done_now, total_now, pct, format_rate(replicas_per_s).c_str(),
          format_rate(flips_per_s).c_str(),
          workers.empty() ? 0.0 : 100.0 * util_sum / workers.size(),
          workers.size(), eta_buf, open_buf);
      if (tty) {
        // In-place line; pad to wipe a longer previous render.
        std::fprintf(stderr, "\r%-100s", line);
        wrote_tty_line = true;
        if (final) std::fputc('\n', stderr);
      } else {
        std::fprintf(stderr, "%s\n", line);
      }
      std::fflush(stderr);
    }
  }

  void ticker_loop() {
    const auto interval = std::chrono::duration<double>(
        std::max(0.001, options.interval_s));
    std::unique_lock<std::mutex> lock(stop_mutex);
    while (!stop_cv.wait_for(lock, interval, [this] { return stopping; })) {
      lock.unlock();
      emit(/*final=*/false);
      lock.lock();
    }
  }
};

ProgressReporter::ProgressReporter(std::size_t total,
                                   ProgressOptions options)
    : impl_(new Impl()) {
  impl_->options = std::move(options);
  impl_->total.store(total, std::memory_order_relaxed);
  impl_->tty = impl_->options.force_tty > 0 ||
               (impl_->options.force_tty == 0 && isatty(fileno(stderr)));
  if (!impl_->options.jsonl_path.empty()) {
    impl_->jsonl = std::fopen(impl_->options.jsonl_path.c_str(), "w");
    if (impl_->jsonl == nullptr) {
      std::fprintf(stderr, "warning: cannot open progress file %s\n",
                   impl_->options.jsonl_path.c_str());
    }
  }
  impl_->ticker = std::thread([this] { impl_->ticker_loop(); });
}

ProgressReporter::~ProgressReporter() {
  finish();
  delete impl_;
}

void ProgressReporter::replica_done(std::size_t done, std::size_t total) {
  impl_->done.store(done, std::memory_order_relaxed);
  impl_->total.store(total, std::memory_order_relaxed);
}

std::function<void(std::size_t, std::size_t)> ProgressReporter::callback() {
  return [this](std::size_t done, std::size_t total) {
    replica_done(done, total);
  };
}

void ProgressReporter::finish() {
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    if (impl_->finished) return;
    impl_->finished = true;
    impl_->stopping = true;
  }
  impl_->stop_cv.notify_all();
  if (impl_->ticker.joinable()) impl_->ticker.join();
  impl_->emit(/*final=*/true);
  if (impl_->jsonl != nullptr) {
    std::fclose(impl_->jsonl);
    impl_->jsonl = nullptr;
  }
}

std::size_t ProgressReporter::records_written() const {
  return impl_->records.load(std::memory_order_relaxed);
}

std::string ProgressReporter::latest_record() const {
  std::lock_guard<std::mutex> lock(impl_->latest_mutex);
  return impl_->latest;
}

}  // namespace seg::obs

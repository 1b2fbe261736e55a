#include "obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "campaign/stopping.h"
#include "obs/telemetry.h"

namespace seg::obs {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// A histogram is a phase latency when SEG_SPAN named it ("span.<name>_ns").
bool is_phase_histogram(const std::string& name) {
  return name.rfind("span.", 0) == 0;
}

}  // namespace

RunReport build_report(const CampaignResult& result, double wall_time_s) {
  RunReport rep;
  rep.seed = result.seed;
  rep.points = result.points.size();
  for (const PointResult& p : result.points) {
    switch (p.state) {
      case PointState::kFixed: ++rep.points_fixed; break;
      case PointState::kStopped: ++rep.points_stopped; break;
      case PointState::kCapped: ++rep.points_capped; break;
      case PointState::kOpen: ++rep.points_open; break;
    }
  }
  rep.replicas_done = result.replicas_done;
  rep.replicas_resumed = result.replicas_resumed;
  rep.complete = result.complete;
  rep.checkpoint_write_failed = result.checkpoint_write_failed;
  rep.wall_time_s = wall_time_s;

  Registry& reg = Registry::instance();
  rep.flips = reg.counter_value("engine.flips");
  rep.checkpoints_written = reg.counter_value("campaign.checkpoints");

  for (const MetricSample& s : reg.snapshot()) {
    if (s.kind != MetricKind::kHistogram || !is_phase_histogram(s.name)) {
      continue;
    }
    if (s.histogram_count == 0) continue;
    PhaseLatency ph;
    ph.name = s.name;
    ph.count = s.histogram_count;
    ph.p50_us = quantile_from_log2_buckets(s.buckets, 0.50) / 1e3;
    ph.p95_us = quantile_from_log2_buckets(s.buckets, 0.95) / 1e3;
    ph.p99_us = quantile_from_log2_buckets(s.buckets, 0.99) / 1e3;
    rep.phases.push_back(std::move(ph));
  }
  std::sort(rep.phases.begin(), rep.phases.end(),
            [](const PhaseLatency& a, const PhaseLatency& b) {
              return a.name < b.name;
            });

  const double wall_us = wall_time_s * 1e6;
  for (const auto& [name, busy_us] :
       reg.counters_with_prefix("pool.campaign.worker.")) {
    WorkerUtilization w;
    w.name = name;
    w.busy_us = busy_us;
    w.utilization =
        wall_us > 0.0
            ? std::clamp(static_cast<double>(busy_us) / wall_us, 0.0, 1.0)
            : 0.0;
    rep.workers.push_back(std::move(w));
  }

  rep.decisions = result.decision_trace.size();
  if (!result.decision_trace.empty()) {
    rep.decision_trace_hash = decision_trace_hash(result.decision_trace);
    std::size_t lo = result.decision_trace.front().replicas;
    std::size_t hi = lo;
    double sum = 0.0;
    for (const StopDecision& d : result.decision_trace) {
      lo = std::min<std::size_t>(lo, d.replicas);
      hi = std::max<std::size_t>(hi, d.replicas);
      sum += d.replicas;
    }
    rep.min_stop_replicas = lo;
    rep.max_stop_replicas = hi;
    rep.mean_stop_replicas =
        sum / static_cast<double>(result.decision_trace.size());
  }
  return rep;
}

std::string render_json(const RunReport& r) {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"campaign\": {\n";
  out += "    \"seed\": " + fmt_u64(r.seed) + ",\n";
  out += "    \"points\": " + fmt_u64(r.points) + ",\n";
  out += "    \"points_by_state\": {\"fixed\": " + fmt_u64(r.points_fixed) +
         ", \"stopped\": " + fmt_u64(r.points_stopped) +
         ", \"capped\": " + fmt_u64(r.points_capped) +
         ", \"open\": " + fmt_u64(r.points_open) + "},\n";
  out += "    \"replicas_done\": " + fmt_u64(r.replicas_done) + ",\n";
  out += "    \"replicas_resumed\": " + fmt_u64(r.replicas_resumed) + ",\n";
  out += std::string("    \"complete\": ") + (r.complete ? "true" : "false") +
         ",\n";
  out += "    \"wall_time_s\": " + fmt_double(r.wall_time_s) + ",\n";
  out += "    \"flips\": " + fmt_u64(r.flips) + "\n  },\n";

  out += "  \"phases\": [";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseLatency& p = r.phases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + p.name + "\", \"count\": " +
           fmt_u64(p.count) + ", \"p50_us\": " + fmt_double(p.p50_us) +
           ", \"p95_us\": " + fmt_double(p.p95_us) +
           ", \"p99_us\": " + fmt_double(p.p99_us) + "}";
  }
  out += r.phases.empty() ? "],\n" : "\n  ],\n";

  out += "  \"workers\": [";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerUtilization& w = r.workers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + w.name + "\", \"busy_us\": " +
           fmt_u64(w.busy_us) + ", \"utilization\": " +
           fmt_double(w.utilization) + "}";
  }
  out += r.workers.empty() ? "],\n" : "\n  ],\n";

  out += "  \"adaptive\": {\"decisions\": " + fmt_u64(r.decisions);
  if (r.decisions > 0) {
    out += ", \"decision_trace_hash\": " + fmt_u64(r.decision_trace_hash) +
           ", \"min_stop_replicas\": " + fmt_u64(r.min_stop_replicas) +
           ", \"max_stop_replicas\": " + fmt_u64(r.max_stop_replicas) +
           ", \"mean_stop_replicas\": " + fmt_double(r.mean_stop_replicas);
  }
  out += "},\n";

  out += "  \"checkpoints\": {\"written\": " + fmt_u64(r.checkpoints_written) +
         ", \"write_failed\": " +
         (r.checkpoint_write_failed ? "true" : "false") +
         ", \"replicas_resumed\": " + fmt_u64(r.replicas_resumed) + "}\n";
  out += "}\n";
  return out;
}

std::string render_markdown(const RunReport& r) {
  std::string out;
  out.reserve(2048);
  out += "# Campaign run report\n\n";
  out += "- seed: " + fmt_u64(r.seed) + "\n";
  out += "- points: " + fmt_u64(r.points) + " (fixed " +
         fmt_u64(r.points_fixed) + ", stopped " + fmt_u64(r.points_stopped) +
         ", capped " + fmt_u64(r.points_capped) + ", open " +
         fmt_u64(r.points_open) + ")\n";
  out += "- replicas: " + fmt_u64(r.replicas_done) + " done, " +
         fmt_u64(r.replicas_resumed) + " resumed from checkpoint\n";
  out += std::string("- complete: ") + (r.complete ? "yes" : "no") + "\n";
  out += "- wall time: " + fmt_double(r.wall_time_s) + " s\n";
  out += "- flips: " + fmt_u64(r.flips) + "\n";
  out += "- checkpoints written: " + fmt_u64(r.checkpoints_written) +
         (r.checkpoint_write_failed ? " (a write FAILED)" : "") + "\n";

  if (!r.phases.empty()) {
    out += "\n## Phase latencies (us)\n\n";
    out += "| phase | count | p50 | p95 | p99 |\n";
    out += "|---|---:|---:|---:|---:|\n";
    for (const PhaseLatency& p : r.phases) {
      out += "| " + p.name + " | " + fmt_u64(p.count) + " | " +
             fmt_double(p.p50_us) + " | " + fmt_double(p.p95_us) + " | " +
             fmt_double(p.p99_us) + " |\n";
    }
  }

  if (!r.workers.empty()) {
    out += "\n## Worker utilization\n\n";
    out += "| worker | busy (us) | utilization |\n";
    out += "|---|---:|---:|\n";
    for (const WorkerUtilization& w : r.workers) {
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * w.utilization);
      out += "| " + w.name + " | " + fmt_u64(w.busy_us) + " | " + pct +
             " |\n";
    }
  }

  if (r.decisions > 0) {
    out += "\n## Adaptive stopping\n\n";
    out += "- decisions: " + fmt_u64(r.decisions) + "\n";
    out += "- decision trace hash: " + fmt_u64(r.decision_trace_hash) + "\n";
    out += "- replicas to stop: min " + fmt_u64(r.min_stop_replicas) +
           ", mean " + fmt_double(r.mean_stop_replicas) + ", max " +
           fmt_u64(r.max_stop_replicas) + "\n";
  }
  return out;
}

bool write_report(const RunReport& report, const std::string& path) {
  const bool markdown =
      (path.size() >= 3 && path.compare(path.size() - 3, 3, ".md") == 0) ||
      (path.size() >= 9 &&
       path.compare(path.size() - 9, 9, ".markdown") == 0);
  const std::string body =
      markdown ? render_markdown(report) : render_json(report);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace seg::obs

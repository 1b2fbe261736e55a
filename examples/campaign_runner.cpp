// campaign_runner: run a scenario campaign from the command line.
//
//   ./campaign_runner [--scenario NAME | --spec FILE] [--key-name VALUE]...
//
// Every spec key is also a --key-name flag that overrides the builtin's
// or the spec file's value; `--help` lists them and the run-only flags.
// For a fixed --seed the outputs are bitwise identical at any --threads
// and across an interrupted run resumed with --checkpoint/--resume, and
// no telemetry flag touches any RNG stream.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/builtin.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "obs/endpoint.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/parse.h"

namespace {

// Flags that steer the run but are not part of the spec (and so never
// enter its canonical text or hash).
struct RunFlag {
  const char* name;
  const char* help;
};

constexpr RunFlag kRunFlags[] = {
    {"scenario", "built-in campaign NAME (default phase_diagram)"},
    {"spec", "key = value spec FILE, run instead of --scenario"},
    {"seed", "campaign seed (default 37)"},
    {"threads", "worker threads (default 1, 0 = hardware)"},
    {"out", "aggregated CSV path (default <name>.csv)"},
    {"manifest", "run manifest path (default <name>.manifest)"},
    {"checkpoint", "checkpoint path; enables checkpointing"},
    {"checkpoint-every", "replicas between checkpoints (default 64)"},
    {"resume", "load the checkpoint before running"},
    {"max-new-replicas", "stop after K new replicas; open points resumable"},
    {"quiet", "skip the console table"},
    {"list", "list built-in scenarios and registry metrics"},
    {"help", "print this help"},
    {"telemetry", "enable counters and gauges"},
    {"trace", "write a Chrome trace / Perfetto JSON of the run to FILE"},
    {"progress", "live one-line status on stderr"},
    {"progress-file", "append JSONL progress records to FILE"},
    {"progress-every", "progress period in seconds (default 1.0)"},
    {"metrics-port", "serve /metrics, /healthz, /progress on port (0 = any)"},
    {"metrics-debug", "also serve /debug/flight"},
    {"report", "end-of-run report FILE (.md: markdown, else JSON)"},
    {"flight-dump", "dump the flight recorder to FILE on a crash"},
};

std::string dashed(std::string key) {
  std::replace(key.begin(), key.end(), '_', '-');
  return key;
}

int print_help() {
  std::printf("usage: campaign_runner [--scenario NAME | --spec FILE] "
              "[--key-name VALUE]...\n\nrun flags:\n");
  for (const RunFlag& f : kRunFlags) {
    std::printf("  --%-22s %s\n", f.name, f.help);
  }
  std::printf("\nspec keys (override the scenario's value; lists are "
              "comma-separated):\n");
  for (const seg::SpecKeyInfo& key : seg::spec_keys()) {
    std::printf("  --%-22s %s\n", dashed(key.name).c_str(),
                key.help.c_str());
  }
  return 0;
}

int list_scenarios() {
  std::printf("built-in scenarios:\n");
  for (const std::string& name : seg::builtin_campaign_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("\nregistry metrics (for spec files):\n");
  for (const std::string& name : seg::known_metrics()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

// Applies every flag that is not a run flag to `spec` as the spec key
// of the same name with dashes for underscores. False, after printing
// why, on a malformed value or on a flag that is neither (naming the
// nearest known flag).
bool apply_spec_flags(const seg::ArgParser& args, seg::ScenarioSpec* spec) {
  std::vector<std::string> known;
  for (const RunFlag& f : kRunFlags) known.emplace_back(f.name);
  for (const seg::SpecKeyInfo& key : seg::spec_keys()) {
    known.push_back(dashed(key.name));
  }
  for (const auto& [flag, value] : args.flags()) {
    const auto it = std::find(known.begin(), known.end(), flag);
    if (it == known.end()) {
      std::fprintf(stderr, "unknown flag --%s (did you mean --%s?)\n",
                   flag.c_str(), seg::nearest_name(flag, known).c_str());
      return false;
    }
    // `known` lists the run flags first; the rest are spec keys.
    if (it - known.begin() < std::ssize(kRunFlags)) continue;
    std::string key = flag, error;
    std::replace(key.begin(), key.end(), '-', '_');
    if (!spec->set(key, value, &error)) {
      std::fprintf(stderr, "--%s: %s\n", flag.c_str(), error.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  if (!args.positional().empty()) {
    std::fprintf(stderr, "unexpected argument '%s' (see --help)\n",
                 args.positional()[0].c_str());
    return 1;
  }
  if (args.get_bool("help", false)) return print_help();
  if (args.get_bool("list", false)) return list_scenarios();

  // The scenario's spec, then the --key-name overrides, all before the
  // points are expanded and the replica fn captures the spec.
  const std::string spec_path = args.get_string("spec", "");
  const std::string builtin =
      spec_path.empty() ? args.get_string("scenario", "phase_diagram") : "";
  seg::ScenarioSpec spec;
  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "cannot read spec file %s\n", spec_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!seg::ScenarioSpec::parse(text.str(), &spec, &error)) {
      std::fprintf(stderr, "bad spec %s: %s\n", spec_path.c_str(),
                   error.c_str());
      return 1;
    }
  } else if (!seg::builtin_spec(builtin, {}, &spec)) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 builtin.c_str());
    return 1;
  }
  if (!apply_spec_flags(args, &spec)) return 1;
  seg::BuiltinCampaign campaign;
  std::string error;
  if (!seg::build_campaign(builtin, spec, &campaign, &error)) {
    std::fprintf(stderr, "bad spec: %s\n", error.c_str());
    return 1;
  }
  const bool adaptive = campaign.spec.stop.rule != seg::StopRule::kNone;

  const std::uint64_t seed = args.get_u64("seed", 37);
  seg::CampaignOptions options;
  options.threads = args.get_u64("threads", 1);
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.checkpoint_every = args.get_u64("checkpoint-every", 64);
  options.resume = args.get_bool("resume", false);
  options.max_new_replicas = args.get_u64("max-new-replicas", 0);

  const std::string trace_path = args.get_string("trace", "");
  const bool progress_line = args.get_bool("progress", false);
  const std::string progress_file = args.get_string("progress-file", "");
  const double progress_every = args.get_double("progress-every", 1.0);
  const std::int64_t metrics_port_arg = args.get_int("metrics-port", -1);
  const bool metrics_debug = args.get_bool("metrics-debug", false);
  const std::string report_path = args.get_string("report", "");
  const std::string flight_dump = args.get_string("flight-dump", "");
  const bool quiet = args.get_bool("quiet", false);
  const bool telemetry_flag = args.get_bool("telemetry", false);
  // Every run flag is read by now; a malformed value ("--seed 10x", an
  // overflowing count, "--resume=maybe") is a hard usage error, not a
  // silent fallback to the default.
  if (!args.errors().empty()) {
    for (const std::string& e : args.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    return 1;
  }
  if (metrics_port_arg > 65535) {
    std::fprintf(stderr, "--metrics-port must be in [0, 65535]\n");
    return 1;
  }
  const bool metrics_endpoint = metrics_port_arg >= 0;
  const bool telemetry = telemetry_flag ||
                         !trace_path.empty() || progress_line ||
                         !progress_file.empty() || metrics_endpoint ||
                         !report_path.empty();
  if (telemetry) seg::obs::set_enabled(true);
  if (!flight_dump.empty() || metrics_debug) {
    seg::obs::flight::set_enabled(true);
    if (!flight_dump.empty()) {
      seg::obs::flight::install_crash_handler(flight_dump);
    }
  }

  const std::size_t total =
      campaign.points.size() * campaign.spec.layout_replicas();
  std::printf("campaign '%s': %zu points x %s%zu replicas",
              campaign.spec.name.c_str(), campaign.points.size(),
              adaptive ? "<= " : "", campaign.spec.layout_replicas());
  if (adaptive) {
    std::printf(" (rule %s, delta %g, alpha %g, min %zu)",
                seg::stop_rule_name(campaign.spec.stop.rule),
                campaign.spec.stop.delta, campaign.spec.stop.alpha,
                campaign.spec.stop.min_replicas);
  } else {
    std::printf(" = %zu runs", total);
  }
  std::printf(", seed %llu, %zu thread(s), %zu shard(s)/replica\n",
              static_cast<unsigned long long>(seed), options.threads,
              campaign.spec.shards);

  seg::obs::TraceSession trace_session;
  if (!trace_path.empty()) trace_session.start();

  std::unique_ptr<seg::obs::ProgressReporter> progress;
  // The endpoint serves /progress from the reporter's latest record, so
  // a live endpoint keeps a (silent) reporter ticking even when neither
  // progress flag asked for one.
  if (progress_line || !progress_file.empty() || metrics_endpoint) {
    seg::obs::ProgressOptions popt;
    popt.interval_s = progress_every;
    popt.jsonl_path = progress_file;
    popt.stderr_line = progress_line;
    popt.adaptive = adaptive;
    progress = std::make_unique<seg::obs::ProgressReporter>(total, popt);
    options.progress = progress->callback();
  }

  seg::obs::MetricsServer metrics_server([&] {
    seg::obs::MetricsServerOptions mopt;
    if (progress) {
      seg::obs::ProgressReporter* reporter = progress.get();
      mopt.progress_json = [reporter] { return reporter->latest_record(); };
    }
    mopt.debug_routes = metrics_debug;
    return mopt;
  }());
  if (metrics_endpoint) {
    std::string error;
    if (!metrics_server.start(static_cast<std::uint16_t>(metrics_port_arg),
                              &error)) {
      std::fprintf(stderr, "cannot start metrics endpoint: %s\n",
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics endpoint on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(metrics_server.port()));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const seg::CampaignResult result = seg::run_campaign(
      campaign.spec, campaign.points, campaign.metric_names,
      campaign.replica, seed, options);
  const double wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // run_campaign has joined its worker pool, so every instrumented region
  // is quiescent before the session stops and the reporter finalizes.
  if (progress) progress->finish();
  if (trace_session.active()) {
    trace_session.stop();
    if (!trace_session.write_json(trace_path)) {
      std::fprintf(stderr, "warning: failed to write trace %s\n",
                   trace_path.c_str());
    } else {
      std::printf("trace -> %s (%zu events)\n", trace_path.c_str(),
                  trace_session.event_count());
    }
  }

  if (!quiet) {
    seg::ConsoleSink console;
    console.write(campaign.spec, result);
  }

  const std::string out =
      args.get_string("out", campaign.spec.name + ".csv");
  const std::string manifest_path =
      args.get_string("manifest", campaign.spec.name + ".manifest");
  seg::CsvSink csv(out);
  seg::ManifestSink manifest(manifest_path);
  manifest.set_info("threads", std::to_string(options.threads));
  manifest.set_info("shards", std::to_string(campaign.spec.shards));
  manifest.set_info("csv", out);
  if (!spec_path.empty()) manifest.set_info("spec_file", spec_path);
  if (!trace_path.empty()) manifest.set_info("trace", trace_path);
  if (metrics_endpoint) {
    manifest.set_info("metrics_port", std::to_string(metrics_server.port()));
  }
  if (!report_path.empty()) manifest.set_info("report", report_path);
  if (telemetry) {
    manifest.set_telemetry(seg::obs::Registry::instance().summary());
  }
  if (!seg::write_all(campaign.spec, result, {&csv, &manifest})) {
    std::fprintf(stderr, "failed to write %s or %s\n", out.c_str(),
                 manifest_path.c_str());
    return 1;
  }
  std::printf("aggregates -> %s, manifest -> %s\n", out.c_str(),
              manifest_path.c_str());
  if (!report_path.empty()) {
    const seg::obs::RunReport report =
        seg::obs::build_report(result, wall_time_s);
    if (!seg::obs::write_report(report, report_path)) {
      std::fprintf(stderr, "failed to write report %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("report -> %s\n", report_path.c_str());
  }
  if (adaptive) {
    std::size_t stopped = 0, capped = 0, open = 0, used = 0;
    for (const seg::PointResult& pr : result.points) {
      used += pr.replicas_used;
      if (pr.state == seg::PointState::kStopped) ++stopped;
      else if (pr.state == seg::PointState::kCapped) ++capped;
      else if (pr.state == seg::PointState::kOpen) ++open;
    }
    const double saved =
        total > 0 ? 100.0 * (1.0 - static_cast<double>(result.replicas_done) /
                                       static_cast<double>(total))
                  : 0.0;
    std::printf("adaptive: %zu stopped, %zu capped, %zu open; %zu replicas "
                "folded, %zu run (%.1f%% of the %zu-replica cap saved)\n",
                stopped, capped, open, used, result.replicas_done, saved,
                total);
  }
  if (result.checkpoint_write_failed) {
    std::fprintf(stderr, "warning: checkpoint writes to %s failed; a kill "
                         "would lose this run's progress\n",
                 options.checkpoint_path.c_str());
  }
  if (!result.complete) {
    std::printf("run incomplete (%zu/%zu replicas); resume with "
                "--checkpoint %s --resume\n",
                result.replicas_done, total,
                options.checkpoint_path.empty()
                    ? "<path>"
                    : options.checkpoint_path.c_str());
  }
  return result.complete ? 0 : 2;
}

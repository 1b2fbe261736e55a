// Campaign-replica benchmark: runs one named workload through the public
// campaign API, validates its outputs, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer split) as one JSON line on stdout.
//
//   replica_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--expect-digest HEX] [--digest-only]
//
// Set-up is timed in fresh processes: from spawning a copy of this
// harness to its first replica entering the ReplicaFn, median of several.
// Timed run: after one untimed reference campaign at threads = nproc, the
// workload's campaign is set up and run again and again on one worker for
// S seconds, each time on a fresh campaign seed drawn from --seed. The
// only instrumentation is two clock reads around each ReplicaFn call.
// Traced run (--trace 1): after the timed run, every folded replica of
// the last campaign is re-executed single-threaded, layer by layer,
// through the same public functions make_schelling_replica
// (campaign/metrics.cc) calls, with the same
// Rng::stream(replica_seed, 0/1/2) layout, each call timed from outside.
// A re-execution that does not reproduce the ReplicaFn's metric row
// bitwise counts as a failed replica.
//
// A human-readable report goes to stderr; its "host" line is JSON.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/almost.h"
#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "analysis/streaming.h"
#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "graph/topology.h"
#include "lattice/engine.h"
#include "lattice/sharded.h"
#include "obs/telemetry.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"

namespace {

using namespace seg;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// ---- host and build facts ----------------------------------------------

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The packed backend routes flips to its AVX-512BW kernel when the kernel
// is compiled in, the CPU reports avx512bw and the default storage is
// packed (the engine also needs a dense torus window, which every torus
// workload here has).
bool avx512_flip_kernel() {
#if SEG_ENGINE_AVX512
  return __builtin_cpu_supports("avx512bw") &&
         resolve_storage(EngineStorage::kDefault) == EngineStorage::kPacked;
#else
  return false;
#endif
}

bool telemetry_compiled() {
#ifdef SEG_TELEMETRY_DISABLED
  return false;
#else
  return true;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---- workloads ----------------------------------------------------------

// Fixed replica counts; sized so one campaign takes one to a few seconds
// on one worker. region_size's latency tail is set by its few w = 5
// replicas, so it needs enough of them for a tail percentile that does
// not hinge on one seed's slowest replica.
constexpr std::size_t kPhaseReplicas = 4;
constexpr std::size_t kRegionReplicas = 24;
// The engine's default cadence. Every 16 replicas puts ~550 fsyncs into
// one campaign, and their latency on a shared virtual disk swings the
// campaign time by more than any bound could absorb.
constexpr std::size_t kCheckpointEvery = 64;
constexpr std::size_t kSetupProbes = 41;
constexpr std::size_t kMinReps = 3;
constexpr int kCheckpointSaves = 5;
// Timed campaigns run on one worker. On a 4-vCPU host shared with other
// work, a campaign on all four waits on whichever worker the host
// descheduled: two busy neighbour processes slowed phase_diagram's
// campaigns by 50% at four workers, 7% at two and not measurably at one.
constexpr std::size_t kTimedThreads = 1;
// nproc-thread campaigns the traced run measures the campaign engine on.
constexpr std::size_t kEngineReps = 3;

struct Workload {
  BuiltinCampaign campaign;
  CampaignOptions options;
  bool checkpoints = false;
  bool requires_terminated = false;
};

std::string checkpoint_file(const std::string& work_dir) {
  return work_dir + "/campaign.ckpt";
}

bool make_workload(const std::string& name, const std::string& work_dir,
                   Workload* out, std::string* why) {
  BuiltinOverrides overrides;
  if (name == "phase_diagram") {
    overrides.n = 256;
    overrides.w = 2;
    overrides.replicas = kPhaseReplicas;
    make_builtin_campaign("phase_diagram", overrides, &out->campaign);
  } else if (name == "region_size") {
    overrides.replicas = kRegionReplicas;
    make_builtin_campaign("region_size", overrides, &out->campaign);
    // The built-in has no flips column, which flips_per_s needs. The value
    // comes from the replica's RunResult and draws no randomness, so every
    // other column keeps its bytes.
    ScenarioSpec& spec = out->campaign.spec;
    spec.metrics.push_back("flips");
    out->campaign.metric_names = expand_metric_names(spec.metrics);
    out->campaign.replica = make_schelling_replica(spec);
  } else if (name == "sharded") {
    // n = 384 gives ~50 ms replicas, so a 20 s window on 4 workers pools
    // over 1000 latency samples for p99. At n = 2048 the run-to-run
    // spread of campaign_s on a shared 4-vCPU host exceeded 30%.
    ScenarioSpec& spec = out->campaign.spec;
    spec.name = "sharded";
    spec.n = {384};
    spec.w = {4};
    spec.tau = {0.40, 0.45};
    spec.p = {0.5};
    spec.shards = 4;
    // Two replicas alone land on whichever two vCPUs the host runs
    // slowest at the moment (2.5x swings between runs); eight per point
    // let the claim queue balance them over every worker.
    spec.replicas = 8;
    spec.metrics = {"flips", "terminated", "majority", "happy_fraction"};
    out->campaign.points = expand_grid(spec);
    out->campaign.metric_names = expand_metric_names(spec.metrics);
    out->campaign.replica = make_schelling_replica(spec);
    out->requires_terminated = true;
  } else if (name == "graph_adaptive") {
    overrides.stop.rule = StopRule::kBernstein;
    overrides.stop.delta = 0.05;
    overrides.stop.min_replicas = 16;
    overrides.stop.max_replicas = 2048;
    overrides.stop.metric = "majority";
    make_builtin_campaign("graph_topologies", overrides, &out->campaign);
    out->options.checkpoint_path = checkpoint_file(work_dir);
    out->options.checkpoint_every = kCheckpointEvery;
    out->checkpoints = true;
  } else {
    *why = "unknown workload '" + name + "'";
    return false;
  }
  return out->campaign.spec.valid(why);
}

// ---- timed run ----------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  bool setup_probe = false;
  std::string work_dir;
  std::string expect_digest;  // empty = no frozen digest for this seed
  std::size_t threads = 1;
};

// What one campaign run leaves behind for the checks and the metrics.
struct Rep {
  std::uint64_t seed = 0;  // campaign seed
  ScenarioSpec spec;
  std::vector<ScenarioPoint> points;
  std::size_t layout = 0;
  Clock::time_point first_entry;  // first ReplicaFn entry
  double engine_s = 0.0;    // run_campaign call -> its return
  double campaign_s = 0.0;  // run_campaign call -> validated result
  std::string csv;
  CampaignResult result;
  bool valid = true;
  // Per global replica index: did it run, its ReplicaFn row, and its
  // start/end offsets in seconds from the run_campaign call.
  std::vector<std::uint8_t> ran;
  std::vector<std::vector<double>> rows;
  std::vector<double> start_s, end_s;
  std::size_t run = 0, folded = 0;
  double busy_s = 0.0;
  double tail_s = 0.0;
};

// Seconds at the end of the run during which fewer replicas were in
// flight than there are workers: the whole run if the pool never filled.
double tail_seconds(const Rep& rep, std::size_t workers) {
  std::vector<std::pair<double, int>> events;
  for (std::size_t g = 0; g < rep.ran.size(); ++g) {
    if (!rep.ran[g]) continue;
    events.emplace_back(rep.start_s[g], +1);
    events.emplace_back(rep.end_s[g], -1);
  }
  std::sort(events.begin(), events.end());  // ends sort before starts
  std::size_t in_flight = 0;
  double last_full = 0.0;
  for (const auto& [t, delta] : events) {
    if (delta < 0 && in_flight >= workers) last_full = t;
    in_flight = delta > 0 ? in_flight + 1 : in_flight - 1;
  }
  return std::max(0.0, rep.engine_s - last_full);
}

// Sets the workload up and runs its campaign once on campaign seed `seed`.
// A probe run returns a zero row without simulating and stops after one
// replica: only its first ReplicaFn entry matters, so it skips this
// harness's bookkeeping. Any other run is checked inside the timed span:
// complete, against `reference` (a run on the same seed) if given, and
// against the frozen digest if `seed` is --seed.
Rep run_once(const Config& cfg, std::uint64_t seed, std::size_t threads,
             bool probe, const Rep* reference) {
  Workload wl;
  std::string why;
  std::remove(checkpoint_file(cfg.work_dir).c_str());
  if (!make_workload(cfg.workload, cfg.work_dir, &wl, &why)) {
    std::fprintf(stderr, "replica_bench: %s\n", why.c_str());
    std::exit(2);
  }
  Rep rep;
  rep.seed = seed;
  rep.layout = wl.campaign.spec.layout_replicas();
  const std::size_t total = probe ? 0 : wl.campaign.points.size() * rep.layout;
  const std::size_t width = wl.campaign.metric_names.size();
  rep.ran.assign(total, 0);
  rep.rows.assign(total, {});
  rep.start_s.assign(total, 0.0);
  rep.end_s.assign(total, 0.0);
  std::vector<Clock::time_point> start(total), end(total);
  std::atomic<bool> entered{false};
  Clock::time_point first_entry{};
  const ReplicaFn inner = wl.campaign.replica;
  const std::size_t layout = rep.layout;
  const ReplicaFn fn = [&](const ScenarioPoint& point, std::size_t r,
                           std::uint64_t replica_seed) {
    const Clock::time_point t0 = Clock::now();
    if (!entered.exchange(true, std::memory_order_relaxed)) first_entry = t0;
    if (probe) return std::vector<double>(width, 0.0);
    std::vector<double> row = inner(point, r, replica_seed);
    const Clock::time_point t1 = Clock::now();
    const std::size_t g = point.index * layout + r;
    start[g] = t0;
    end[g] = t1;
    rep.rows[g] = row;
    rep.ran[g] = 1;
    return row;
  };
  CampaignOptions options = wl.options;
  options.threads = threads;
  if (probe) options.max_new_replicas = 1;

  const Clock::time_point t_call = Clock::now();
  rep.result = run_campaign(wl.campaign.spec, wl.campaign.points,
                            wl.campaign.metric_names, fn, seed, options);
  rep.engine_s = since(t_call);
  rep.first_entry = first_entry;
  if (probe) return rep;
  rep.csv = CsvSink::render(wl.campaign.spec, rep.result);
  rep.valid = rep.result.complete;
  if (reference) {
    rep.valid = rep.valid && rep.csv == reference->csv &&
                rep.result.decision_trace == reference->result.decision_trace;
  }
  if (seed == cfg.seed && !cfg.expect_digest.empty()) {
    rep.valid = rep.valid && hex64(fnv1a(rep.csv)) == cfg.expect_digest;
  }
  if (wl.requires_terminated) {
    for (std::size_t i = 0; i < rep.result.points.size(); ++i) {
      const RunningStats* t = rep.result.stats_for(i, "terminated");
      rep.valid = rep.valid && t && t->count() > 0 && t->min() == 1.0;
    }
  }
  rep.campaign_s = since(t_call);

  for (const PointResult& pr : rep.result.points) rep.folded += pr.replicas_used;
  for (std::size_t g = 0; g < total; ++g) {
    if (!rep.ran[g]) continue;
    ++rep.run;
    rep.start_s[g] = seconds_between(t_call, start[g]);
    rep.end_s[g] = seconds_between(t_call, end[g]);
    rep.busy_s += rep.end_s[g] - rep.start_s[g];
  }
  rep.tail_s = tail_seconds(rep, threads);
  rep.spec = wl.campaign.spec;
  rep.points = wl.campaign.points;
  return rep;
}

// Folded replicas of a finished run: every replica of a fixed campaign,
// the first replicas_used of each point of an adaptive one.
template <class F>
void for_each_folded(const Rep& rep, F&& f) {
  for (std::size_t p = 0; p < rep.result.points.size(); ++p) {
    for (std::size_t r = 0; r < rep.result.points[p].replicas_used; ++r) {
      f(rep.points[p], r, p * rep.layout + r);
    }
  }
}

// ---- traced re-execution -----------------------------------------------

// Wall seconds per layer, summed over the traced replicas.
struct Layers {
  double setup = 0, graph = 0, dynamics = 0, sharded = 0, measure = 0,
         streaming = 0;
  double total() const {
    return setup + graph + dynamics + sharded + measure + streaming;
  }
};

struct TraceStats {
  Layers layers;
  double wall = 0;  // traced replica wall, summed
  std::size_t replicas = 0, mismatches = 0;
  std::vector<double> model_ms, graph_build_ms, mono_field_ms,
      mono_sample_ms, almost_field_ms, almost_sample_ms, snapshot_ms;
  std::uint64_t dyn_flips = 0, graph_flips = 0, sharded_flips = 0,
                streaming_flips = 0;
  double dyn_s = 0, graph_dyn_s = 0, sharded_s = 0, streaming_extra_s = 0;
  std::uint64_t sweeps = 0, deferred = 0, reconciled = 0;
  double sharded_wide_s = 0;  // same replicas at threads = nproc
};

// Seconds since t, also recorded in ms into `samples`; restarts t.
double lap(Clock::time_point& t, std::vector<double>& samples) {
  const double s = since(t);
  samples.push_back(s * 1e3);
  t = Clock::now();
  return s;
}

// Mirror of build_topology in campaign/metrics.cc for the synthetic
// families; nullptr for the rest (edge lists are not traced).
std::shared_ptr<const GraphTopology> build_graph(const ScenarioSpec& spec,
                                                 const ScenarioPoint& point) {
  switch (point.topology) {
    case TopologyFamily::kLollipop:
      return std::make_shared<const GraphTopology>(
          GraphTopology::lollipop(spec.graph_clique, spec.graph_path));
    case TopologyFamily::kRandomRegular: {
      const std::size_t nodes =
          spec.graph_nodes > 0
              ? spec.graph_nodes
              : static_cast<std::size_t>(point.params.n) * point.params.n;
      return std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(static_cast<int>(nodes),
                                        spec.graph_degree, spec.graph_seed));
    }
    case TopologyFamily::kSmallWorld:
      return std::make_shared<const GraphTopology>(GraphTopology::small_world(
          point.params.n,
          neighborhood_offsets(point.params.shape, point.params.w),
          spec.graph_beta, spec.graph_seed));
    default:
      return nullptr;
  }
}

SchellingModel torus_model(const ScenarioSpec& spec, const ScenarioPoint& pt,
                           std::uint64_t seed, bool sharded) {
  Rng init = Rng::stream(seed, 0);
  if (!sharded) return SchellingModel(pt.params, init);
  return SchellingModel(pt.params, init,
                        ShardLayout::stripes(pt.params.n, pt.params.w,
                                             static_cast<int>(spec.shards)));
}

RunResult run_serial(SchellingModel& model, std::uint64_t seed,
                     const RunOptions& options) {
  Rng dyn = Rng::stream(seed, 1);
  return run_glauber(model, dyn, options);
}

ParallelRunResult run_sharded(SchellingModel& model, const ScenarioSpec& spec,
                              std::uint64_t seed, std::size_t threads) {
  ParallelOptions options;
  options.threads = threads;
  if (spec.max_flips > 0) options.max_flips = spec.max_flips;
  return run_parallel_glauber(model, mix_seed(seed, 1), options);
}

// Evaluates the metric row in spec order, as MetricContext does (lazy
// mono/almost fields shared across metrics, one measurement stream).
// False for a metric the tracer does not mirror.
bool measure(const SchellingModel& model, const RunResult& run,
             const ScenarioSpec& spec, std::uint64_t seed,
             const StreamingObservables* streaming, TraceStats& st,
             std::vector<double>* row) {
  Rng sample = Rng::stream(seed, 2);
  std::optional<MonoRegionField> mono;
  std::optional<AlmostMonoField> almost;
  auto snapshot = [&] {
    Clock::time_point t = Clock::now();
    std::vector<std::int8_t> spins = model.spins();
    lap(t, st.snapshot_ms);
    return spins;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string& name : expand_metric_names(spec.metrics)) {
    double v = 0.0;
    if (name == "flips") {
      v = static_cast<double>(run.flips);
    } else if (name == "terminated") {
      v = run.terminated ? 1.0 : 0.0;
    } else if (name == "fixation") {
      v = completely_segregated(snapshot()) ? 1.0 : 0.0;
    } else if (name == "majority") {
      v = majority_fraction(snapshot());
    } else if (name == "happy_fraction") {
      v = model.happy_fraction();
    } else if (name == "plus_fraction") {
      v = model.plus_fraction();
    } else if (name == "mean_mono_region") {
      if (!mono) {
        const std::vector<std::int8_t> spins = snapshot();
        Clock::time_point t = Clock::now();
        mono = mono_region_field(spins, model.side());
        lap(t, st.mono_field_ms);
      }
      Clock::time_point t = Clock::now();
      v = mean_mono_region_size(*mono, spec.region_samples, sample);
      lap(t, st.mono_sample_ms);
    } else if (name == "mean_almost_region") {
      if (!almost) {
        const std::vector<std::int8_t> spins = snapshot();
        Clock::time_point t = Clock::now();
        almost = almost_mono_field(
            spins, model.side(),
            almost_mono_threshold(spec.almost_eps, model.neighborhood_size()));
        lap(t, st.almost_field_ms);
      }
      Clock::time_point t = Clock::now();
      v = mean_almost_region_size(*almost, spec.region_samples, sample);
      lap(t, st.almost_sample_ms);
    } else if (name == "streaming_largest_cluster") {
      v = streaming ? static_cast<double>(streaming->largest_cluster()) : nan;
    } else if (name == "streaming_interface_length") {
      v = streaming ? static_cast<double>(streaming->interface_length()) : nan;
    } else {
      std::fprintf(stderr, "replica_bench: metric '%s' is not traced\n",
                   name.c_str());
      return false;
    }
    row->push_back(v);
  }
  return true;
}

// Re-executes one replica layer by layer, mirroring make_schelling_replica
// call for call (Glauber dynamics, the kind every workload runs). Work
// done only to split layers (a second dynamics pass without the streaming
// observer, the sharded pass at threads = nproc) runs outside the
// replica's wall span. False on a mirror failure.
bool replay(const ScenarioSpec& spec, const ScenarioPoint& point,
            std::uint64_t seed, std::size_t threads, TraceStats& st,
            std::vector<double>* row) {
  if (point.dynamics != DynamicsKind::kGlauber) return false;
  Layers& L = st.layers;
  const bool sharded = spec.shards > 1;
  bool needs_streaming = false;
  for (const std::string& name : expand_metric_names(spec.metrics)) {
    needs_streaming |= name.rfind("streaming_", 0) == 0;
  }
  RunOptions run_options;
  if (spec.max_flips > 0) run_options.max_flips = spec.max_flips;

  const Clock::time_point t_replica = Clock::now();
  std::optional<SchellingModel> model;
  std::unique_ptr<StreamingObservables> streaming;
  RunResult run;
  ParallelRunResult parallel;
  double observed_s = 0.0;  // dynamics with the streaming observer attached
  Clock::time_point t = Clock::now();
  if (point.topology != TopologyFamily::kTorus) {
    if (sharded) return false;
    const std::shared_ptr<const GraphTopology> graph =
        build_graph(spec, point);
    if (!graph) return false;
    L.graph += lap(t, st.graph_build_ms);
    Rng init = Rng::stream(seed, 0);
    std::vector<std::int8_t> spins =
        random_spins_count(graph->node_count(), point.params.p, init);
    model.emplace(point.params, graph, std::move(spins));
    L.setup += lap(t, st.model_ms);
    run = run_serial(*model, seed, run_options);
    const double d = since(t);
    L.graph += d;
    st.graph_dyn_s += d;
    st.graph_flips += run.flips;
  } else {
    model.emplace(torus_model(spec, point, seed, sharded));
    L.setup += lap(t, st.model_ms);
    if (needs_streaming) {
      if (sharded) return false;
      t = Clock::now();
      StreamingConfig config;
      config.autocorr_window = 64;
      streaming = std::make_unique<StreamingObservables>(
          model->spins(), point.params.n, config);
      L.streaming += since(t);
      const std::uint64_t sample_every =
          spec.streaming_sample_every > 0
              ? spec.streaming_sample_every
              : std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(point.params.n) *
                           point.params.n / 64);
      model->set_flip_observer(streaming.get());
      run_options.snapshot_every = sample_every;
      StreamingObservables* sink = streaming.get();
      run_options.on_snapshot = [sink](const SchellingModel&, std::uint64_t,
                                       double) { sink->record_sample(); };
    }
    t = Clock::now();
    if (sharded) {
      parallel = run_sharded(*model, spec, seed, 1);
      const double d = since(t);
      L.sharded += d;
      st.sharded_s += d;
      st.sharded_flips += parallel.flips;
      st.sweeps += parallel.sweeps;
      st.deferred += parallel.deferred;
      st.reconciled += parallel.reconciled;
      run = to_run_result(parallel);
    } else {
      run = run_serial(*model, seed, run_options);
      model->set_flip_observer(nullptr);
      observed_s = since(t);
      if (!streaming) {
        L.dynamics += observed_s;
        st.dyn_s += observed_s;
        st.dyn_flips += run.flips;
      }
    }
  }
  t = Clock::now();
  const bool measured = measure(*model, run, spec, seed, streaming.get(), st,
                                row);
  L.measure += since(t);
  st.wall += since(t_replica);
  if (!measured) return false;

  if (streaming) {
    // Same seed without the observer: the difference is streaming's cost.
    SchellingModel plain = torus_model(spec, point, seed, false);
    RunOptions plain_options;
    plain_options.max_flips = run_options.max_flips;
    t = Clock::now();
    const RunResult bare = run_serial(plain, seed, plain_options);
    const double plain_s = since(t);
    L.dynamics += plain_s;
    st.dyn_s += plain_s;
    st.dyn_flips += run.flips;
    L.streaming += observed_s - plain_s;
    st.streaming_extra_s += observed_s - plain_s;
    st.streaming_flips += run.flips;
    if (bare.flips != run.flips) return false;
  }
  if (sharded) {
    SchellingModel wide = torus_model(spec, point, seed, true);
    t = Clock::now();
    const ParallelRunResult wide_run = run_sharded(wide, spec, seed, threads);
    st.sharded_wide_s += since(t);
    if (wide_run.flips != parallel.flips) return false;
  }
  return true;
}

// ---- set-up -------------------------------------------------------------

// Set-up as a user pays it: spawns a fresh copy of this harness that
// builds the workload, starts the campaign and reports the steady_clock
// instant (CLOCK_MONOTONIC, shared by all processes) its first replica
// entered the ReplicaFn. Returns seconds from the spawn to that instant,
// or NaN on failure.
double spawn_setup_probe(const Config& cfg) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int fds[2];
  if (pipe(fds) != 0) return nan;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::string seed = std::to_string(cfg.seed);
  std::vector<std::string> args = {"replica_bench", "--workload", cfg.workload,
                                   "--seed", seed, "--work-dir", cfg.work_dir,
                                   "--setup-probe"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t got; rc == 0 && (got = read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return nan;
  }
  const Clock::time_point entry{std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(std::strtoll(out.c_str(), nullptr, 10)))};
  return seconds_between(t0, entry);
}

// ---- checkpoint layer ---------------------------------------------------

struct CheckpointStats {
  double save_ms = 0, bytes = 0, mb_written = 0;
  bool round_trip = true;
};

// save_checkpoint on the run's final data (the engine's own final file
// for a checkpointing workload), timed; for a checkpointing workload also
// the round-trip check and the bytes its periodic writes put on disk,
// computed from the completion order: a write every `every` completions
// holding the rows done so far, plus the final write.
CheckpointStats checkpoint_layer(const Config& cfg, const Workload& wl,
                                 const Rep& rep) {
  CheckpointStats cs;
  CheckpointData data;
  if (wl.checkpoints) {
    cs.round_trip = load_checkpoint(wl.options.checkpoint_path, &data);
  } else {
    data.seed = rep.seed;
    data.spec_hash = rep.spec.hash();
    data.metric_count = rep.result.metric_names.size();
    data.done = rep.ran;
    data.values = rep.rows;
  }
  const std::string path = cfg.work_dir + "/save_probe.ckpt";
  std::vector<double> saves;
  for (int i = 0; i < kCheckpointSaves; ++i) {
    const Clock::time_point t = Clock::now();
    cs.round_trip = save_checkpoint(path, data) && cs.round_trip;
    saves.push_back(since(t) * 1e3);
  }
  cs.save_ms = median(saves);
  const std::string bytes = read_file(path);
  cs.bytes = static_cast<double>(bytes.size());
  if (!wl.checkpoints) return cs;

  CheckpointData again;
  cs.round_trip = cs.round_trip && load_checkpoint(path, &again) &&
                  read_file(wl.options.checkpoint_path) == bytes &&
                  again.seed == data.seed &&
                  again.spec_hash == data.spec_hash &&
                  again.done == data.done && again.trace == data.trace;
  for (std::size_t g = 0; cs.round_trip && g < data.values.size(); ++g) {
    cs.round_trip = same_bits(again.values[g], data.values[g]);
  }

  std::vector<std::size_t> order;
  for (std::size_t g = 0; g < rep.ran.size(); ++g) {
    if (rep.ran[g]) order.push_back(g);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rep.end_s[a] < rep.end_s[b];
  });
  auto row_bytes = [&](std::size_t g) {
    return 3.0 + std::to_string(g).size() + 17.0 * data.metric_count;
  };
  double rows_total = 0;
  for (const std::size_t g : order) rows_total += row_bytes(g);
  const double fixed = cs.bytes - rows_total;
  double written = cs.bytes, prefix = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    prefix += row_bytes(order[i]);
    if ((i + 1) % wl.options.checkpoint_every == 0) written += fixed + prefix;
  }
  cs.mb_written = written / 1e6;
  return cs;
}

// ---- output -------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool parse_args(int argc, char** argv, Config* cfg) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--digest-only" || key == "--setup-probe") {
      (key == "--digest-only" ? cfg->digest_only : cfg->setup_probe) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* endp = nullptr;
    if (key == "--workload") {
      cfg->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), &endp, 10);
      have_seed = *endp == '\0' && !value.empty();
    } else if (key == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), &endp);
      if (*endp != '\0' || !(cfg->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg->trace = value == "1";
    } else if (key == "--work-dir") {
      cfg->work_dir = value;
    } else if (key == "--expect-digest") {
      cfg->expect_digest = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && !cfg->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse_args(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: replica_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--expect-digest HEX] "
                 "[--digest-only]\n");
    return 2;
  }
  cfg.threads = nproc();
  if (cfg.setup_probe) {
    const Rep rep = run_once(cfg, cfg.seed, kTimedThreads, true, nullptr);
    std::printf("%lld\n", static_cast<long long>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  rep.first_entry.time_since_epoch())
                                  .count()));
    return 0;
  }
  if (cfg.digest_only) {
    const Rep rep = run_once(cfg, cfg.seed, cfg.threads, false, nullptr);
    std::printf("{\"digest\": \"%s\", \"complete\": %s}\n",
                hex64(fnv1a(rep.csv)).c_str(),
                rep.result.complete ? "true" : "false");
    return 0;
  }
  std::fprintf(stderr,
               "host {\"nproc\": %zu, \"cpu_model\": \"%s\", "
               "\"avx512bw_flip_kernel\": %s, \"build_type\": \"%s\", "
               "\"telemetry_compiled\": %s, \"telemetry_runtime\": %s}\n",
               cfg.threads, json_escape(cpu_model()).c_str(),
               avx512_flip_kernel() ? "true" : "false", SEG_BENCH_BUILD_TYPE,
               telemetry_compiled() ? "true" : "false",
               obs::enabled() ? "true" : "false");

  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    const double s = spawn_setup_probe(cfg);
    if (!(s > 0)) {
      std::fprintf(stderr, "replica_bench: set-up probe failed\n");
      return 1;
    }
    setups.push_back(s);
  }

  // The first campaign, on nproc workers, warms caches and the allocator
  // up and is the reference the same seed must reproduce; it is not timed.
  const Rep first = run_once(cfg, cfg.seed, cfg.threads, false, nullptr);
  std::size_t attempted = first.run;
  std::size_t failed = first.valid ? 0 : first.run;

  // Timed run: whole campaigns on one worker until the window closes; the
  // last is kept whole. The first repeats the reference's seed, so the
  // CSV bytes are checked across runs and between 1 and nproc workers
  // inside the window; every later one draws a fresh campaign seed from
  // --seed, so the figures describe the workload rather than one seed's
  // replicas. Replica latencies are pooled over every timed campaign
  // before the percentiles are taken.
  std::vector<double> campaign_s, replicas_per_s, flips_per_s, latency_ms;
  std::optional<Rep> last;
  const Clock::time_point t_window = Clock::now();
  for (std::uint64_t i = 0;
       campaign_s.size() < kMinReps || since(t_window) < cfg.seconds; ++i) {
    const std::uint64_t seed = i == 0 ? cfg.seed : mix_seed(cfg.seed, i);
    Rep rep =
        run_once(cfg, seed, kTimedThreads, false, i == 0 ? &first : nullptr);
    const std::size_t flips_col =
        metric_index(rep.result.metric_names, "flips");
    double flips = 0;
    for_each_folded(rep, [&](const ScenarioPoint&, std::size_t,
                             std::size_t g) { flips += rep.rows[g][flips_col]; });
    campaign_s.push_back(rep.campaign_s);
    replicas_per_s.push_back(
        ratio(static_cast<double>(rep.folded), rep.campaign_s));
    flips_per_s.push_back(ratio(flips, rep.campaign_s));
    for (std::size_t g = 0; g < rep.ran.size(); ++g) {
      if (rep.ran[g]) latency_ms.push_back((rep.end_s[g] - rep.start_s[g]) * 1e3);
    }
    attempted += rep.run;
    if (!rep.valid) failed += rep.run;
    last = std::move(rep);
  }
  const double window_s = since(t_window);
  const Rep& final_rep = *last;
  Workload wl;
  std::string why;
  make_workload(cfg.workload, cfg.work_dir, &wl, &why);

  TraceStats st;
  if (cfg.trace) {
    for_each_folded(final_rep, [&](const ScenarioPoint& point, std::size_t,
                                   std::size_t g) {
      std::vector<double> row;
      const bool ok =
          replay(final_rep.spec, point,
                 derive_replica_seed(final_rep.seed, g), cfg.threads, st,
                 &row) &&
          same_bits(row, final_rep.rows[g]);
      ++st.replicas;
      if (!ok) ++st.mismatches;
    });
    attempted += st.replicas;
    failed += st.mismatches;
  }

  CheckpointStats cs;
  if (cfg.trace || wl.checkpoints) {
    cs = checkpoint_layer(cfg, wl, final_rep);
    if (!cs.round_trip) failed += final_rep.folded;
  }

  // Campaign engine at nproc workers, on the window's first seeds (the
  // first is --seed again, checked against the reference). These runs
  // rewrite the checkpoint file, so they come after the checkpoint layer.
  std::vector<double> busy_frac, tail_s, wasted;
  for (std::uint64_t i = 0; cfg.trace && i < kEngineReps; ++i) {
    const std::uint64_t seed = i == 0 ? cfg.seed : mix_seed(cfg.seed, i);
    const Rep rep =
        run_once(cfg, seed, cfg.threads, false, i == 0 ? &first : nullptr);
    busy_frac.push_back(
        ratio(rep.busy_s, static_cast<double>(cfg.threads) * rep.engine_s));
    tail_s.push_back(rep.tail_s);
    wasted.push_back(static_cast<double>(rep.run - rep.folded));
    attempted += rep.run;
    if (!rep.valid) failed += rep.run;
  }
  failed = std::min(failed, attempted);
  const bool correct = failed == 0;

  const std::string digest_check =
      cfg.expect_digest.empty()
          ? "no frozen digest for seed " + std::to_string(cfg.seed)
          : "frozen digest checked";
  std::fprintf(stderr,
               "workload %s seed %" PRIu64 ": %zu timed campaigns in %.1f s "
               "on %zu worker, %zu replicas run per campaign, %zu latency "
               "samples pooled, %zu set-up samples, csv digest %s (%s); "
               "%zu/%zu replicas failed validation\n",
               cfg.workload.c_str(), cfg.seed, campaign_s.size(),
               window_s, kTimedThreads, final_rep.run, latency_ms.size(),
               setups.size(), hex64(fnv1a(first.csv)).c_str(),
               digest_check.c_str(), failed, attempted);
  std::fprintf(stderr, "campaign_s samples:");
  for (const double s : campaign_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\nsetup_us samples:");
  for (const double s : setups) std::fprintf(stderr, " %.0f", s * 1e6);
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    metrics = {
        {"campaign_s", "s", median(campaign_s)},
        {"replicas_per_s", "1/s", median(replicas_per_s)},
        {"flips_per_s", "1/s", median(flips_per_s)},
        {"replica_ms_p50", "ms", percentile(latency_ms, 0.50)},
        {"replica_ms_p90", "ms", percentile(latency_ms, 0.90)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  } else {
    const Layers& L = st.layers;
    const double unattributed = st.wall > 0 ? 1.0 - L.total() / st.wall : 0.0;
    metrics = {
        {"campaign.worker_busy_frac", "fraction", median(busy_frac)},
        {"campaign.tail_s", "s", median(tail_s)},
        {"campaign.replicas_wasted", "count", median(wasted)},
        {"checkpoint.save_ms", "ms", cs.save_ms},
        {"checkpoint.bytes", "B", cs.bytes},
        {"checkpoint.mb_written", "MB", cs.mb_written},
        {"setup.model_ms_p50", "ms", median(st.model_ms)},
        {"setup.share", "fraction", ratio(L.setup, st.wall)},
        {"graph.build_ms_p50", "ms", median(st.graph_build_ms)},
        {"graph.share", "fraction", ratio(L.graph, st.wall)},
        {"graph.ns_per_flip", "ns",
         ratio(st.graph_dyn_s * 1e9, static_cast<double>(st.graph_flips))},
        {"dynamics.ns_per_flip", "ns",
         ratio(st.dyn_s * 1e9, static_cast<double>(st.dyn_flips))},
        {"dynamics.share", "fraction", ratio(L.dynamics, st.wall)},
        {"dynamics.flips", "count", static_cast<double>(st.dyn_flips)},
        {"sharded.ns_per_flip", "ns",
         ratio(st.sharded_s * 1e9, static_cast<double>(st.sharded_flips))},
        {"sharded.share", "fraction", ratio(L.sharded, st.wall)},
        {"sharded.flips_per_sweep", "count",
         ratio(static_cast<double>(st.sharded_flips),
               static_cast<double>(st.sweeps))},
        {"sharded.deferred_frac", "fraction",
         ratio(static_cast<double>(st.deferred),
               static_cast<double>(st.sharded_flips))},
        {"sharded.reconcile_yield", "fraction",
         ratio(static_cast<double>(st.reconciled),
               static_cast<double>(st.deferred))},
        {"sharded.thread_speedup", "x", ratio(st.sharded_s, st.sharded_wide_s)},
        {"measure.mono_field_ms_p50", "ms", median(st.mono_field_ms)},
        {"measure.mono_sample_ms_p50", "ms", median(st.mono_sample_ms)},
        {"measure.almost_field_ms_p50", "ms", median(st.almost_field_ms)},
        {"measure.almost_sample_ms_p50", "ms", median(st.almost_sample_ms)},
        {"measure.snapshot_ms_p50", "ms", median(st.snapshot_ms)},
        {"measure.share", "fraction", ratio(L.measure, st.wall)},
        {"streaming.ns_per_flip", "ns",
         ratio(st.streaming_extra_s * 1e9,
               static_cast<double>(st.streaming_flips))},
        {"streaming.share", "fraction", ratio(L.streaming, st.wall)},
        {"trace.unattributed_frac", "fraction", unattributed},
    };
    std::fprintf(stderr,
                 "traced %zu replicas single-threaded: wall %.3f s; split "
                 "setup %.3f graph %.3f dynamics %.3f sharded %.3f measure "
                 "%.3f streaming %.3f unattributed %.3f\n",
                 st.replicas, st.wall, ratio(L.setup, st.wall),
                 ratio(L.graph, st.wall), ratio(L.dynamics, st.wall),
                 ratio(L.sharded, st.wall), ratio(L.measure, st.wall),
                 ratio(L.streaming, st.wall), unattributed);
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::remove(checkpoint_file(cfg.work_dir).c_str());
  std::remove((cfg.work_dir + "/save_probe.ckpt").c_str());
  print_result(correct, attempted, failed, metrics);
  return 0;
}

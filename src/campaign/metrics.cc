#include "campaign/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "analysis/correlation.h"
#include "core/parallel_dynamics.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "lattice/sharded.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rng/splitmix64.h"

namespace seg {
namespace {

double nan_metric() { return std::numeric_limits<double>::quiet_NaN(); }

template <class T>
double count(T v) {
  return static_cast<double>(v);
}

// The group the "streaming" pseudo-metric expands to, in column order.
constexpr const char* kStreamingGroup[] = {
    "streaming_magnetization",      "streaming_interface_length",
    "streaming_cluster_count",      "streaming_largest_cluster",
    "streaming_mean_cluster_size",  "streaming_autocorr_lag1",
};

struct MetricEntry {
  const char* name;
  MetricFn fn;
  // Meaningful on an arbitrary graph topology? The region, cluster and
  // streaming metrics read 2-d lattice structure (distance transforms,
  // site coordinates) and are lattice-only.
  bool graph_ok;
};

using Ctx = MetricContext;

// Registry order is the order known_metrics() reports; metric evaluation
// order within a replica follows spec.metrics, not this table.
constexpr MetricEntry kRegistry[] = {
    {"flips", [](Ctx& c) { return count(c.run.flips); }, true},
    {"time", [](Ctx& c) { return c.run.final_time; }, true},
    {"terminated", [](Ctx& c) { return c.run.terminated ? 1.0 : 0.0; },
     true},
    // fixation and majority read the +1 popcount, not the unpacked
    // snapshot: the values of completely_segregated and majority_fraction
    // on c.spins(), with the same division.
    {"fixation",
     [](Ctx& c) {
       const double frac = c.model.plus_fraction();
       return frac == 0.0 || frac == 1.0 ? 1.0 : 0.0;
     },
     true},
    {"majority",
     [](Ctx& c) {
       const double frac = c.model.plus_fraction();
       return std::max(frac, 1.0 - frac);
     },
     true},
    {"happy_fraction", [](Ctx& c) { return c.model.happy_fraction(); }, true},
    {"unhappy_count", [](Ctx& c) { return count(c.model.count_unhappy()); },
     true},
    {"plus_fraction", [](Ctx& c) { return c.model.plus_fraction(); }, true},
    {"mean_mono_region",
     [](Ctx& c) {
       return mean_mono_region_size(c.mono(), c.spec.region_samples,
                                    c.sample_rng);
     },
     false},
    {"largest_mono_region",
     [](Ctx& c) { return count(largest_mono_region(c.mono())); }, false},
    {"mean_almost_region",
     [](Ctx& c) {
       return mean_almost_region_size(c.almost(), c.spec.region_samples,
                                      c.sample_rng);
     },
     false},
    {"largest_almost_region",
     [](Ctx& c) { return count(largest_almost_region(c.almost())); }, false},
    {"largest_cluster",
     [](Ctx& c) { return count(c.clusters().largest_cluster); }, false},
    {"cluster_count", [](Ctx& c) { return count(c.clusters().cluster_count); },
     false},
    {"mean_cluster_size",
     [](Ctx& c) { return c.clusters().mean_cluster_size; }, false},
    {"interface_length",
     [](Ctx& c) { return count(c.clusters().interface_length); }, false},
    // The streaming group: the values a per-flip StreamingObservables
    // engine would report at the end of the run, read off the final
    // state (tests/test_streaming_differential.cc pins streaming ==
    // batch) and the replica's magnetization samples.
    {"streaming_magnetization",
     [](Ctx& c) { return count(c.model.magnetization()); }, false},
    {"streaming_interface_length",
     [](Ctx& c) { return count(c.clusters().interface_length); }, false},
    {"streaming_cluster_count",
     [](Ctx& c) { return count(c.clusters().cluster_count); }, false},
    {"streaming_largest_cluster",
     [](Ctx& c) { return count(c.clusters().largest_cluster); }, false},
    {"streaming_mean_cluster_size",
     [](Ctx& c) { return c.clusters().mean_cluster_size; }, false},
    {"streaming_autocorr_lag1", [](Ctx& c) { return c.autocorr_lag1; },
     false},
};

std::shared_ptr<const GraphTopology> build_family(const ScenarioSpec& spec,
                                                  const ScenarioPoint& point,
                                                  std::string* why) {
  switch (point.topology) {
    case TopologyFamily::kTorus:
      break;
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
    case TopologyFamily::kEdgeList: {
      GraphTopology g;
      if (!GraphTopology::load_edge_list(spec.graph_file, &g, why)) {
        return nullptr;
      }
      return std::make_shared<const GraphTopology>(std::move(g));
    }
  }
  if (why) *why = "torus points do not build a graph";
  return nullptr;
}

}  // namespace

std::shared_ptr<const GraphTopology> build_topology(const ScenarioSpec& spec,
                                                    const ScenarioPoint& point,
                                                    std::size_t shards,
                                                    std::string* why) {
  std::shared_ptr<const GraphTopology> graph = build_family(spec, point, why);
  // ScenarioSpec::valid() bounds shards by every synthetic graph's node
  // count; a loaded edge list is first counted here.
  if (graph && shards > graph->node_count()) {
    if (why) {
      *why = "shards = " + std::to_string(shards) +
             " exceeds its node count: at most " +
             std::to_string(graph->node_count());
    }
    return nullptr;
  }
  return graph;
}

const std::vector<std::int8_t>& MetricContext::spins() {
  if (spins_.empty()) spins_ = model.spins();
  return spins_;
}

const MonoRegionField& MetricContext::mono() {
  if (!mono_) {
    const std::vector<std::int8_t>& s = spins();
    SEG_SPAN("mono_field");
    mono_ = std::make_unique<MonoRegionField>(
        mono_region_field(s, model.side()));
  }
  return *mono_;
}

const AlmostMonoField& MetricContext::almost() {
  if (!almost_) {
    // Each center's scan starts at its mono radius, which M has usually
    // paid for already.
    const MonoRegionField& m = mono();
    SEG_SPAN("almost_field");
    almost_ = std::make_unique<AlmostMonoField>(almost_mono_field(
        spins(), m,
        almost_mono_threshold(spec.almost_eps, model.neighborhood_size())));
  }
  return *almost_;
}

const ClusterStats& MetricContext::clusters() {
  if (!clusters_) {
    const std::vector<std::int8_t>& s = spins();
    SEG_SPAN("cluster_field");
    clusters_ = std::make_unique<ClusterStats>(cluster_stats(s, model.side()));
  }
  return *clusters_;
}

bool lookup_metric(const std::string& name, MetricFn* fn) {
  for (const MetricEntry& entry : kRegistry) {
    if (name == entry.name) {
      if (fn) *fn = entry.fn;
      return true;
    }
  }
  return false;
}

bool metric_supports_graph(const std::string& name) {
  for (const MetricEntry& entry : kRegistry) {
    if (name == entry.name) return entry.graph_ok;
  }
  return false;
}

std::vector<std::string> known_metrics() {
  std::vector<std::string> names;
  for (const MetricEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::size_t metric_index(const std::vector<std::string>& names,
                         const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

std::vector<std::string> expand_metric_names(
    const std::vector<std::string>& metrics) {
  std::vector<std::string> out;
  out.reserve(metrics.size());
  for (const std::string& name : metrics) {
    if (name == "streaming") {
      for (const char* member : kStreamingGroup) out.emplace_back(member);
    } else {
      out.push_back(name);
    }
  }
  return out;
}

namespace {

// The immutable structure a non-torus point's replicas share: its
// topology and, for sharded points, the greedy-BFS partition each engine
// copies. graph is null when the topology could not be built.
struct PointGraph {
  std::once_flag built;
  std::shared_ptr<const GraphTopology> graph;
  GraphPartition partition;
};

// Per-campaign cache of PointGraphs, keyed by point.index and filled on
// the first replica of each point, so set-up before the first replica
// stays graph-free. Node-based map: a slot's address is stable while
// other points insert theirs.
class TopologyCache {
 public:
  const PointGraph& get(const ScenarioSpec& spec, const ScenarioPoint& point,
                        std::size_t shards) {
    SEG_SPAN("topology_lookup");
    PointGraph* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot = &slots_[point.index];
    }
    std::call_once(slot->built, [&] {
      std::string why;
      slot->graph = build_topology(spec, point, shards, &why);
      if (!slot->graph) {
        // Reported once; every replica of the point returns the NaN row.
        std::fprintf(stderr,
                     "campaign: point %zu: cannot build %s topology: %s\n",
                     point.index, topology_name(point.topology), why.c_str());
      } else if (shards > 1) {
        slot->partition = GraphPartition::greedy_bfs(
            *slot->graph, static_cast<int>(shards));
      }
    });
    return *slot;
  }

 private:
  std::mutex mu_;
  std::map<std::size_t, PointGraph> slots_;
};

// A replica's initial model over the point's shared graph (nullptr: the
// native torus), split into `shards` parts for the sharded sweep engine
// when > 1.
SchellingModel make_model(const ModelParams& params, const PointGraph* shared,
                          int shards, Rng& init) {
  SEG_SPAN("replica_setup");
  if (shared) {
    return SchellingModel(params, shared->graph, init, shared->partition);
  }
  return shards > 1 ? SchellingModel(params, init,
                                     ShardLayout::stripes(params.n, params.w,
                                                          shards))
                    : SchellingModel(params, init);
}

}  // namespace

ReplicaFn make_schelling_replica(const ScenarioSpec& spec) {
  const std::vector<std::string> expanded =
      expand_metric_names(spec.metrics);
  const bool needs_autocorr =
      metric_index(expanded, "streaming_autocorr_lag1") < expanded.size();
  // Every other metric depends on the flip sequence only, so a serial
  // Glauber run keeps its clock only when the time column reads it.
  const bool needs_time = metric_index(expanded, "time") < expanded.size();
  bool needs_streaming = false;
  std::vector<MetricFn> fns;
  fns.reserve(expanded.size());
  for (const std::string& name : expanded) {
    needs_streaming |= name.rfind("streaming_", 0) == 0;
    MetricFn fn = nullptr;
    const bool known = lookup_metric(name, &fn);
    assert(known && "unknown metric; validate the spec before running");
    if (!known) {
      // Release-build fallback: a constant NaN column is visible in the
      // output instead of silently shifting later columns.
      fn = +[](MetricContext&) {
        return std::numeric_limits<double>::quiet_NaN();
      };
    }
    fns.push_back(fn);
  }
  // Shared by every copy of the returned closure: one campaign's replicas.
  auto cache = std::make_shared<TopologyCache>();
  return [spec, fns, needs_streaming, needs_autocorr, needs_time, cache](
             const ScenarioPoint& point, std::size_t /*replica*/,
             std::uint64_t replica_seed) {
    // Stream layout matches the bench convention: 0 = initial
    // configuration, 1 = dynamics, 2 = measurement sampling. The sharded
    // path derives its per-shard substreams from the dynamics stream's
    // seed (mix_seed(replica_seed, 1)), so they never collide with the
    // init or measurement streams.
    const bool sharded =
        spec.shards > 1 && point.dynamics == DynamicsKind::kGlauber;
    const std::size_t shards = sharded ? spec.shards : 1;
    // Non-torus points run over the point's shared GraphTopology with
    // per-node thresholds; everything after model construction is shared.
    const PointGraph* shared = nullptr;
    if (point.topology != TopologyFamily::kTorus) {
      shared = &cache->get(spec, point, shards);
      if (!shared->graph) return std::vector<double>(fns.size(), nan_metric());
    }
    Rng init = Rng::stream(replica_seed, 0);
    SchellingModel model =
        make_model(point.params, shared, static_cast<int>(shards), init);
    // The streaming_* metrics read the final state, except the
    // magnetization autocorrelation, which reads the magnetization after
    // every `sample_every`-th flip, taken once each (serial runs through
    // on_snapshot, sharded runs on the sweep engine's folded flip stream).
    // Sampling consumes no RNG: the trajectory is bitwise the one an
    // unmeasured run produces.
    const std::uint64_t sample_every =
        spec.streaming_sample_every > 0
            ? spec.streaming_sample_every
            : std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(point.params.n) *
                         point.params.n / 64);
    RunOptions run_options;
    if (spec.max_flips > 0) run_options.max_flips = spec.max_flips;
    run_options.track_time = needs_time;
    std::vector<std::int64_t> magnetization;
    std::uint64_t last_sample = 0;  // flip count of the last serial sample
    RunResult run;
    if (sharded) {
      SEG_SPAN("replica_dynamics");
      ParallelOptions parallel_options;
      // Campaigns parallelize at the *replica* level (the campaign pool),
      // so each replica's phase A runs single-threaded: the replica's own
      // thread runs the shards in order, and no pool or thread is started
      // per replica. With a replica fleet in flight, outer-level
      // parallelism already saturates the cores, and nesting a
      // per-replica pool would oversubscribe them.
      // --shards in a campaign therefore selects the k-shard *process*
      // (deterministic per k, comparable with the sharded drivers), not
      // a per-replica speedup; for wall-clock scaling of one giant run
      // use the drivers (fig1_dynamics --shards, exp_* --shards), which
      // give the sweep engine the whole machine.
      parallel_options.threads = 1;
      parallel_options.max_flips = run_options.max_flips;
      if (needs_autocorr) parallel_options.sample_every = sample_every;
      ParallelRunResult parallel = run_parallel_glauber(
          model, mix_seed(replica_seed, 1), parallel_options);
      magnetization = std::move(parallel.magnetization);
      run = to_run_result(parallel);
    } else {
      SEG_SPAN("replica_dynamics");
      if (needs_autocorr) {
        // The end-of-run call repeats the last cadence sample or lands
        // off cadence; neither is a sample.
        run_options.snapshot_every = sample_every;
        run_options.on_snapshot = [&magnetization, &last_sample,
                                   sample_every](const SchellingModel& m,
                                                 std::uint64_t flips,
                                                 double) {
          if (flips == last_sample || flips % sample_every != 0) return;
          last_sample = flips;
          magnetization.push_back(m.magnetization());
        };
      }
      Rng dyn = Rng::stream(replica_seed, 1);
      switch (point.dynamics) {
        case DynamicsKind::kGlauber:
          run = run_glauber(model, dyn, run_options);
          break;
        case DynamicsKind::kDiscrete:
          run = run_discrete(model, dyn, run_options);
          break;
        case DynamicsKind::kSynchronous:
          run = run_synchronous(model, spec.sync_max_rounds, run_options);
          break;
      }
    }
    SEG_HISTOGRAM("campaign.replica_flips", run.flips);
    // The --progress line's magnetization, one set per replica.
    if (needs_streaming) {
      SEG_GAUGE_SET("streaming.magnetization", model.magnetization());
    }
    SEG_SPAN("replica_measure");
    Rng sample = Rng::stream(replica_seed, 2);
    double autocorr_lag1 = nan_metric();
    if (needs_autocorr) {
      const std::vector<double> gamma = autocovariance(magnetization, 1);
      autocorr_lag1 = gamma[0] == 0.0 ? 0.0 : gamma[1] / gamma[0];
    }
    MetricContext ctx(model, run, spec, sample, autocorr_lag1);
    std::vector<double> values;
    values.reserve(fns.size());
    for (const MetricFn fn : fns) values.push_back(fn(ctx));
    return values;
  };
}

}  // namespace seg

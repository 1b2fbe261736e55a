// The metric registry for Schelling campaigns: named per-replica
// observables evaluated on the absorbing (or stopped) configuration.
// ScenarioSpec.metrics picks rows from this registry by name; the built-in
// replica function runs the configured dynamics and evaluates each metric
// in the declared order.
//
// Expensive derived structures (the mono-region distance transform, the
// cluster decomposition, the almost-mono field) are computed lazily and
// shared across the metrics of one replica. The almost-mono field starts
// from the mono field's radii, so it builds that first. Each build runs
// under a span (mono_field, almost_field, cluster_field).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/almost.h"
#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "campaign/campaign.h"
#include "core/dynamics.h"
#include "core/model.h"

namespace seg {

// Everything a metric may observe about a finished replica. Sampling
// estimators draw from `sample_rng`, a stream dedicated to measurement so
// metric evaluation never perturbs the dynamics.
class MetricContext {
 public:
  MetricContext(const SchellingModel& model, const RunResult& run,
                const ScenarioSpec& spec, Rng& sample_rng,
                double autocorr_lag1)
      : model(model),
        run(run),
        spec(spec),
        sample_rng(sample_rng),
        autocorr_lag1(autocorr_lag1) {}

  const SchellingModel& model;
  const RunResult& run;
  const ScenarioSpec& spec;
  Rng& sample_rng;
  // Lag-1 time autocorrelation (streaming_autocorr_lag1) of the
  // magnetization samples the replica took every streaming_sample_every
  // flips, serial or sharded, by the batch autocovariance()
  // (analysis/correlation.h); NaN when that metric was not requested.
  double autocorr_lag1;

  // Lazily computed, cached for the lifetime of the replica. spins() is
  // the one unpacked snapshot of the final configuration that every
  // metric reading site values shares; clusters() is one rescan of it,
  // shared by the cluster metrics and the streaming_* group.
  const std::vector<std::int8_t>& spins();
  const MonoRegionField& mono();
  const AlmostMonoField& almost();
  const ClusterStats& clusters();

 private:
  std::vector<std::int8_t> spins_;  // empty until first read
  std::unique_ptr<MonoRegionField> mono_;
  std::unique_ptr<AlmostMonoField> almost_;
  std::unique_ptr<ClusterStats> clusters_;
};

using MetricFn = double (*)(MetricContext&);

// Looks a metric up by name; fn may be nullptr to just test existence.
bool lookup_metric(const std::string& name, MetricFn* fn);

// True if the metric is meaningful on an arbitrary graph topology.
// Scalar observables (flips, time, happy_fraction, ...) qualify; the
// region/cluster/streaming metrics read 2-d lattice structure and are
// refused by ScenarioSpec::valid() on non-torus points. Unknown names
// return false.
bool metric_supports_graph(const std::string& name);

// Registry names, in registry order.
std::vector<std::string> known_metrics();

// Position of `name` in an expanded metric-name list; names.size() when
// absent. The stopper and the sinks use it to locate watched columns.
std::size_t metric_index(const std::vector<std::string>& names,
                         const std::string& name);

// Replaces the "streaming" pseudo-metric with the streaming observable
// group, in group order; every other name passes through unchanged. The
// campaign engine and sinks must be given the expanded list — the
// replica's value vector is parallel to it.
std::vector<std::string> expand_metric_names(
    const std::vector<std::string>& metrics);

// The topology a non-torus point runs on, built from the spec's graph_*
// parameters, with room for `shards` parts. nullptr, with the reason in
// *why, when it cannot be built: in practice only an edge_list file that
// fails to load or has fewer nodes than `shards`, since
// ScenarioSpec::valid() already bounds the synthetic families.
std::shared_ptr<const GraphTopology> build_topology(const ScenarioSpec& spec,
                                                    const ScenarioPoint& point,
                                                    std::size_t shards,
                                                    std::string* why);

// Builds the engine ReplicaFn for the built-in Schelling model: constructs
// the model from the point's params, runs the point's dynamics, then
// evaluates spec.metrics (which must all be known). The spec is captured
// by value. A non-torus point's topology (and graph partition, when
// sharded) is built on the point's first replica and shared by all of
// its replicas, keyed by point.index, so one ReplicaFn (and its copies)
// serves one point list; an edge-list file is read once per point.
ReplicaFn make_schelling_replica(const ScenarioSpec& spec);

}  // namespace seg

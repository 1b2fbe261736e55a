#include "campaign/builtin.h"

#include <algorithm>

#include "campaign/metrics.h"
#include "percolation/chemical.h"
#include "percolation/clusters.h"
#include "percolation/field.h"

namespace seg {
namespace {

// The bench ties the torus side to the horizon so the grid stays large
// relative to the neighborhood: n = max(64, 24w).
void tie_side_to_horizon(std::vector<ScenarioPoint>& points) {
  for (ScenarioPoint& pt : points) {
    pt.params.n = std::max(64, 24 * pt.params.w);
  }
}

std::vector<double> percolation_stretch_replica(const ScenarioPoint& point,
                                                std::size_t /*replica*/,
                                                std::uint64_t replica_seed) {
  Rng rng = Rng::stream(replica_seed, 0);
  const int L = point.params.n;
  const SiteField field(L, point.params.p, rng);
  const StretchSample s =
      chemical_stretch(field, L / 8, L / 2, 7 * L / 8, L / 2);
  // Unconnected pairs contribute zeros; conditional means are recovered
  // downstream as sum(stretch) / sum(connected).
  return {s.connected ? 1.0 : 0.0, s.connected ? s.stretch : 0.0,
          s.connected && s.stretch >= 1.25 ? 1.0 : 0.0};
}

std::vector<double> percolation_radius_replica(const ScenarioPoint& point,
                                               std::size_t /*replica*/,
                                               std::uint64_t replica_seed) {
  Rng rng = Rng::stream(replica_seed, 0);
  const int L = point.params.n;
  const SiteField field(L, point.params.p, rng);
  const int r = cluster_l1_radius(field, L / 2, L / 2);
  std::vector<double> values{r >= 0 ? 1.0 : 0.0};
  for (const int k : {2, 4, 8, 16}) values.push_back(r >= k ? 1.0 : 0.0);
  return values;
}

struct Builtin {
  ScenarioSpec spec;
  // Custom replica fn emitting spec.metrics as columns; nullptr runs the
  // Schelling replica over the registry metrics.
  std::vector<double> (*replica)(const ScenarioPoint&, std::size_t,
                                 std::uint64_t) = nullptr;
  // Adjusts the expanded points (nullptr: the plain grid).
  void (*adjust_points)(std::vector<ScenarioPoint>&) = nullptr;
};

const std::vector<Builtin>& builtins() {
  static const std::vector<Builtin> table = {
      {ScenarioSpec{
          .name = "phase_diagram",
          .tau = {0.30, 0.36, 0.40, 0.44, 0.48, 0.50},
          .p = {0.50, 0.55, 0.60, 0.70, 0.80, 0.90},
          .region_samples = 16,
          .metrics = {"mean_mono_region", "fixation", "majority", "flips"}}},
      // The cluster/interface companions to the region metrics: the
      // streaming group's values, from one rescan of the absorbing state.
      {ScenarioSpec{.name = "region_size",
                    .w = {1, 2, 3, 4, 5},
                    .tau = {0.45, 0.40, 0.55},
                    .region_samples = 24,
                    .almost_eps = 0.1,
                    .metrics = {"mean_mono_region", "mean_almost_region",
                                "streaming_largest_cluster",
                                "streaming_interface_length"}},
       nullptr, tie_side_to_horizon},
      {ScenarioSpec{.name = "percolation_stretch",
                    .n = {192},  // box side L
                    .p = {0.65, 0.70, 0.75, 0.85, 0.95},
                    .replicas = 24,
                    .metrics = {"connected", "stretch", "tail_125"}},
       percolation_stretch_replica},
      {ScenarioSpec{.name = "percolation_radius",
                    .n = {61},  // box side L
                    .p = {0.30, 0.40, 0.50},
                    .replicas = 400,
                    .metrics = {"open", "r_ge_2", "r_ge_4", "r_ge_8",
                                "r_ge_16"}},
       percolation_radius_replica},
      // n/w/shape parameterize the small_world base torus; the lollipop
      // family reads only graph_clique/graph_path. Graph mode has no
      // termination certificate on every family (small worlds can cycle
      // through near-regular degree classes for a long time), so the
      // replicas are flip-capped.
      {ScenarioSpec{.name = "graph_topologies",
                    .n = {32},
                    .w = {1},
                    .tau = {0.35, 0.45},
                    .topology = {TopologyFamily::kLollipop,
                                 TopologyFamily::kRandomRegular,
                                 TopologyFamily::kSmallWorld},
                    .graph_nodes = 1024,
                    .max_flips = 200000,
                    .metrics = {"flips", "terminated", "majority",
                                "happy_fraction", "plus_fraction"}}},
  };
  return table;
}

const Builtin* find_builtin(const std::string& name) {
  for (const Builtin& b : builtins()) {
    if (name == b.spec.name) return &b;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> builtin_campaign_names() {
  std::vector<std::string> names;
  for (const Builtin& b : builtins()) names.push_back(b.spec.name);
  return names;
}

bool builtin_spec(const std::string& name, const BuiltinOverrides& overrides,
                  ScenarioSpec* out) {
  const Builtin* builtin = find_builtin(name);
  if (!builtin) return false;
  *out = builtin->spec;
  if (overrides.n > 0) out->n = {overrides.n};
  if (overrides.w > 0) out->w = {overrides.w};
  if (overrides.replicas > 0) out->replicas = overrides.replicas;
  if (overrides.stop.rule != StopRule::kNone) out->stop = overrides.stop;
  return true;
}

bool build_campaign(const std::string& builtin, const ScenarioSpec& spec,
                    BuiltinCampaign* out, std::string* error) {
  const Builtin* b = builtin.empty() ? nullptr : find_builtin(builtin);
  if (!builtin.empty() && !b) {
    if (error) *error = "unknown scenario '" + builtin + "'";
    return false;
  }
  const bool custom = b && b->replica;
  if (custom ? !spec.valid_for_columns(spec.metrics, error)
             : !spec.valid(error)) {
    return false;
  }
  std::vector<ScenarioPoint> points = expand_grid(spec);
  // valid() bounds every synthetic graph family, so their set-up stays
  // graph-free; an edge list is only known once loaded, so load it once
  // here and refuse the campaign before any replica runs.
  const auto edge_list =
      std::find_if(points.begin(), points.end(), [](const ScenarioPoint& pt) {
        return pt.topology == TopologyFamily::kEdgeList;
      });
  std::string why;
  if (!custom && edge_list != points.end() &&
      !build_topology(spec, *edge_list, spec.shards, &why)) {
    if (error) {
      *error = "cannot build edge_list topology from '" + spec.graph_file +
               "': " + why;
    }
    return false;
  }
  out->spec = spec;
  out->points = std::move(points);
  if (b && b->adjust_points) b->adjust_points(out->points);
  out->metric_names = custom ? spec.metrics : expand_metric_names(spec.metrics);
  out->replica = custom ? ReplicaFn(b->replica) : make_schelling_replica(spec);
  return true;
}

bool make_builtin_campaign(const std::string& name,
                           const BuiltinOverrides& overrides,
                           BuiltinCampaign* out) {
  ScenarioSpec spec;
  return builtin_spec(name, overrides, &spec) &&
         build_campaign(name, spec, out);
}

}  // namespace seg

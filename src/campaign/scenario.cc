#include "campaign/scenario.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "campaign/metrics.h"
#include "util/parse.h"

namespace seg {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Spec-text names of each enum, indexed by enumerator.
constexpr const char* kShapeNames[] = {"moore", "von_neumann"};
constexpr const char* kDynamicsNames[] = {"glauber", "discrete",
                                          "synchronous"};
constexpr const char* kTopologyNames[] = {
    "torus", "lollipop", "random_regular", "small_world", "edge_list"};

std::span<const char* const> enum_names(NeighborhoodShape) {
  return kShapeNames;
}
std::span<const char* const> enum_names(DynamicsKind) {
  return kDynamicsNames;
}
std::span<const char* const> enum_names(TopologyFamily) {
  return kTopologyNames;
}
std::span<const char* const> enum_names(StopRule) { return kStopRuleNames; }

template <class E>
const char* enum_name(E v) {
  return enum_names(v)[static_cast<std::size_t>(v)];
}

// Value codecs of the spec-key table. Scalars go through the checked
// parsers (util/parse.h): trailing garbage ("10x") and out-of-range
// values are hard errors naming the offending token. Lists are
// comma-separated and must be non-empty.
template <class T>
bool decode(const std::string& s, T* out, std::string* why) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = s;
    return !s.empty() || fail(why, "empty value");
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double_checked(s, out, why);
  } else if constexpr (std::is_same_v<T, int>) {
    return parse_int_checked(s, out, why);
  } else if constexpr (std::is_enum_v<T>) {
    const std::span<const char* const> names = enum_names(T{});
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (s == names[i]) {
        *out = static_cast<T>(i);
        return true;
      }
    }
    return fail(why, "unknown name '" + s + "'");
  } else if constexpr (std::is_unsigned_v<T>) {
    std::uint64_t v = 0;
    if (!parse_u64_checked(s, &v, why)) return false;
    *out = static_cast<T>(v);
    return true;
  } else {
    out->clear();
    for (const std::string& item : split_list(s)) {
      typename T::value_type v{};
      if (!decode(item, &v, why)) return false;
      out->push_back(v);
    }
    return !out->empty() || fail(why, "empty list");
  }
}

template <class T>
std::string encode(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  } else if constexpr (std::is_enum_v<T>) {
    return enum_name(v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ',';
      out += encode(v[i]);
    }
    return out;
  }
}

// When a key enters the canonical text (and so the checkpoint hash).
// Keys added after the format's first release are written only when they
// matter, so every older spec keeps its hash and its checkpoints stay
// resumable.
enum class Show {
  kAlways,
  kNonDefault,          // differs from a default-constructed spec
  kStopRule,            // a stopping rule is set
  kStopRuleNonDefault,  // both of the above
  kPassRate,            // the stopping rule is pass_rate
};

bool shown(Show show, const ScenarioSpec& spec, bool is_default) {
  const bool rule = spec.stop.rule != StopRule::kNone;
  switch (show) {
    case Show::kAlways: return true;
    case Show::kNonDefault: return !is_default;
    case Show::kStopRule: return rule;
    case Show::kStopRuleNonDefault: return rule && !is_default;
    case Show::kPassRate: return spec.stop.rule == StopRule::kPassRate;
  }
  return true;
}

struct SpecKey {
  const char* name;
  const char* help;
  // Decodes `value` into the spec; false with a reason on bad input.
  std::function<bool(ScenarioSpec&, const std::string&, std::string*)> set;
  // The canonical value text; nullopt keeps the key out of the text.
  std::function<std::optional<std::string>(const ScenarioSpec&)> emit;
};

// A table entry over one spec field; `field` maps a (const or mutable)
// spec to the field. `positive` rejects 0 for counts that need >= 1.
template <class Field>
SpecKey key(const char* name, Field field, const char* help,
            Show show = Show::kAlways, bool positive = false) {
  using T = std::remove_cvref_t<decltype(field(std::declval<ScenarioSpec&>()))>;
  return SpecKey{
      name, help,
      [field, positive](ScenarioSpec& spec, const std::string& value,
                        std::string* why) {
        T parsed{};
        if (!decode(value, &parsed, why)) return false;
        if constexpr (std::is_arithmetic_v<T>) {
          if (positive && parsed == 0) return fail(why, "must be >= 1");
        }
        field(spec) = std::move(parsed);
        return true;
      },
      [field, show](const ScenarioSpec& spec) -> std::optional<std::string> {
        static const ScenarioSpec defaults;
        if (!shown(show, spec, field(spec) == field(defaults))) {
          return std::nullopt;
        }
        return encode(field(spec));
      }};
}

#define FIELD(member) [](auto& s) -> auto& { return s.member; }
// An entry whose key is spelled like its ScenarioSpec member.
#define SPEC_KEY(member, ...) key(#member, FIELD(member), __VA_ARGS__)

// The spec keys, in canonical-text order: the one place a key is spelled
// out besides its ScenarioSpec field. parse(), to_text(), set() and the
// campaign_runner flags and --help all derive from it.
const std::vector<SpecKey>& key_table() {
  using enum Show;
  static const std::vector<SpecKey> table = {
      SPEC_KEY(name, "campaign name; default stem of the CSV and manifest"),
      SPEC_KEY(n, "grid side(s); box side L for percolation"),
      SPEC_KEY(w, "neighborhood horizon(s); the window is (2w+1)^2"),
      SPEC_KEY(tau, "intolerance(s): happy with >= tau of the window alike"),
      SPEC_KEY(tau_minus, "intolerance(s) of the minus type; < 0 = tau"),
      SPEC_KEY(p, "initial density (or densities) of the plus type"),
      SPEC_KEY(shape, "neighborhood shape(s): moore | von_neumann"),
      SPEC_KEY(dynamics, "dynamics: glauber | discrete | synchronous"),
      SPEC_KEY(topology,
               "torus | lollipop | random_regular | small_world | edge_list",
               kNonDefault),
      SPEC_KEY(graph_clique, "lollipop clique size (>= 2)", kNonDefault),
      SPEC_KEY(graph_path, "lollipop path length (>= 1)", kNonDefault),
      SPEC_KEY(graph_degree, "random_regular node degree", kNonDefault),
      SPEC_KEY(graph_beta, "small_world rewiring probability", kNonDefault),
      SPEC_KEY(graph_seed, "graph builder seed", kNonDefault),
      SPEC_KEY(graph_nodes, "random_regular node count; 0 = n*n", kNonDefault),
      SPEC_KEY(graph_file, "edge_list file of \"u v\" lines", kNonDefault),
      SPEC_KEY(replicas, "replicas per point (the cap under a stop rule)",
               kAlways, true),
      SPEC_KEY(shards, "lattice shards per Glauber replica; 1 = serial",
               kNonDefault, true),
      SPEC_KEY(max_flips, "flip cap per replica; 0 = run to absorption"),
      SPEC_KEY(streaming_sample_every,
               "flips between streaming autocorrelation samples; 0 = n^2/64",
               kNonDefault),
      SPEC_KEY(sync_max_rounds, "round cap of synchronous dynamics"),
      SPEC_KEY(region_samples, "sampled agents per E[M] estimate"),
      SPEC_KEY(almost_eps, "epsilon of almost-monochromatic regions"),
      SPEC_KEY(metrics, "metric columns (see --list); streaming = its group"),
      key("stop_rule", FIELD(stop.rule),
          "sequential stopping: none | hoeffding | bernstein | pass_rate",
          kStopRule),
      key("stop_delta", FIELD(stop.delta),
          "target confidence-sequence half-width", kStopRule),
      key("stop_alpha", FIELD(stop.alpha), "anytime miscoverage budget",
          kStopRule),
      key("min_replicas", FIELD(stop.min_replicas),
          "replica floor before a stop rule may fire", kStopRule, true),
      key("max_replicas", FIELD(stop.max_replicas),
          "per-point replica cap; 0 = replicas", kStopRuleNonDefault),
      key("stop_metric", FIELD(stop.metric),
          "watched metric; default the first metric", kStopRuleNonDefault),
      SpecKey{"stop_range", "known range lo,hi of the watched metric",
              [](ScenarioSpec& spec, const std::string& value,
                 std::string* why) {
                std::vector<double> range;
                if (!decode(value, &range, why)) return false;
                if (range.size() != 2) return fail(why, "expected lo,hi");
                spec.stop.range_lo = range[0];
                spec.stop.range_hi = range[1];
                return true;
              },
              [](const ScenarioSpec& spec) -> std::optional<std::string> {
                if (!shown(kStopRule, spec, false)) return std::nullopt;
                return encode(std::vector<double>{spec.stop.range_lo,
                                                  spec.stop.range_hi});
              }},
      key("stop_threshold", FIELD(stop.threshold),
          "pass_rate decision threshold", kPassRate),
  };
  return table;
}

#undef SPEC_KEY
#undef FIELD

}  // namespace

const char* dynamics_name(DynamicsKind kind) { return enum_name(kind); }
const char* topology_name(TopologyFamily family) { return enum_name(family); }
const char* shape_name(NeighborhoodShape shape) { return enum_name(shape); }

std::size_t ScenarioSpec::grid_size() const {
  return topology.size() * n.size() * w.size() * tau.size() *
         tau_minus.size() * p.size() * shape.size() * dynamics.size();
}

bool ScenarioSpec::valid(std::string* error) const {
  const std::vector<std::string> columns = expand_metric_names(metrics);
  const bool any_graph = !std::all_of(
      topology.begin(), topology.end(),
      [](TopologyFamily f) { return f == TopologyFamily::kTorus; });
  for (const std::string& m : columns) {
    if (!lookup_metric(m, nullptr)) return fail(error, "unknown metric: " + m);
    if (any_graph && !metric_supports_graph(m)) {
      return fail(error, "metric '" + m +
                             "' is lattice-only and cannot run on a graph "
                             "topology");
    }
  }
  return valid_for_columns(columns, error);
}

bool ScenarioSpec::valid_for_columns(const std::vector<std::string>& columns,
                                     std::string* error) const {
  if (n.empty() || w.empty() || tau.empty() || tau_minus.empty() ||
      p.empty() || shape.empty() || dynamics.empty() || topology.empty()) {
    return fail(error, "every grid axis needs at least one value");
  }
  if (replicas == 0) return fail(error, "replicas must be >= 1");
  if (shards == 0) return fail(error, "shards must be >= 1");
  if (columns.empty()) return fail(error, "at least one metric is required");
  // Builder preconditions are validated here, not in the builders: their
  // SEG_ASSERTs compile out of release builds, so the spec layer is the
  // real guard for user-supplied parameters.
  for (const TopologyFamily f : topology) {
    switch (f) {
      case TopologyFamily::kTorus:
        break;
      case TopologyFamily::kLollipop:
        if (graph_clique < 2 || graph_path < 1) {
          return fail(error,
                      "lollipop needs graph_clique >= 2, graph_path >= 1");
        }
        // The clique node the path hangs off has the largest row.
        if (graph_clique >= kMaxNeighborhoodSize) {
          const std::string hub =
              "lollipop node " + std::to_string(graph_clique - 1);
          return fail(error, over_neighborhood_limit(
                                 hub, std::int64_t{graph_clique} + 1));
        }
        break;
      case TopologyFamily::kRandomRegular:
        if (graph_degree < 1) return fail(error, "graph_degree must be >= 1");
        if (graph_degree >= kMaxNeighborhoodSize) {
          return fail(error,
                      over_neighborhood_limit("random_regular node 0",
                                              std::int64_t{graph_degree} + 1));
        }
        for (const int side : n) {
          const std::size_t nodes =
              graph_nodes > 0 ? graph_nodes
                              : static_cast<std::size_t>(side) * side;
          if (nodes <= static_cast<std::size_t>(graph_degree)) {
            return fail(error,
                        "random_regular needs node count > graph_degree");
          }
          if ((nodes * static_cast<std::size_t>(graph_degree)) % 2 != 0) {
            return fail(error,
                        "random_regular needs nodes * graph_degree even");
          }
        }
        break;
      case TopologyFamily::kSmallWorld:
        if (!(graph_beta >= 0.0 && graph_beta <= 1.0)) {
          return fail(error, "graph_beta must be in [0, 1]");
        }
        break;
      case TopologyFamily::kEdgeList:
        if (graph_file.empty()) {
          return fail(error, "edge_list topology needs graph_file");
        }
        break;
    }
  }
  if (!valid_stop_config(stop, layout_replicas(), columns, error)) {
    return false;
  }
  for (const ScenarioPoint& pt : expand_grid(*this)) {
    const std::int64_t window =
        window_site_count(pt.params.shape, pt.params.w);
    if (window > kMaxNeighborhoodSize) {
      const std::string where = "point (n=" + std::to_string(pt.params.n) +
                                ", w=" + std::to_string(pt.params.w) + ")";
      return fail(error, over_neighborhood_limit(where, window));
    }
    if (!pt.params.valid()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "invalid point (n=%d, w=%d, tau=%g, p=%g)", pt.params.n,
                    pt.params.w, pt.params.tau, pt.params.p);
      return fail(error, buf);
    }
  }
  return true;
}

bool ScenarioSpec::set(const std::string& key, const std::string& value,
                       std::string* error) {
  std::vector<std::string> names;
  for (const SpecKey& k : key_table()) {
    if (key != k.name) {
      names.push_back(k.name);
      continue;
    }
    // The setters decode fully before they assign, so a rejected value
    // leaves the spec unchanged.
    std::string why;
    if (k.set(*this, value, &why)) return true;
    return fail(error, "bad value for '" + key + "'" +
                           (why.empty() ? "" : " (" + why + ")"));
  }
  return fail(error, "unknown key '" + key + "' (did you mean '" +
                         nearest_name(key, names) + "'?)");
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  for (const SpecKey& k : key_table()) {
    if (const std::optional<std::string> value = k.emit(*this)) {
      out += std::string(k.name) + " = " + *value + '\n';
    }
  }
  return out;
}

bool ScenarioSpec::parse(const std::string& text, ScenarioSpec* out,
                         std::string* error) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    std::string why = "expected key = value";
    if (eq == std::string::npos ||
        !spec.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)),
                  &why)) {
      return fail(error, "line " + std::to_string(line_no) + ": " + why);
    }
  }
  std::string why;
  if (!spec.valid(&why)) return fail(error, why);
  *out = spec;
  return true;
}

std::vector<SpecKeyInfo> spec_keys() {
  std::vector<SpecKeyInfo> keys;
  for (const SpecKey& k : key_table()) keys.push_back({k.name, k.help});
  return keys;
}

std::uint64_t ScenarioSpec::hash() const {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : to_text()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<ScenarioPoint> expand_grid(const ScenarioSpec& spec) {
  std::vector<ScenarioPoint> points;
  points.reserve(spec.grid_size());
  // Topology is the outermost loop: a torus-only spec enumerates exactly
  // the legacy point order, so adding the axis never renumbers (or
  // reseeds) existing campaigns.
  for (const TopologyFamily topology : spec.topology)
    for (const int n : spec.n)
      for (const int w : spec.w)
        for (const double tau : spec.tau)
          for (const double tau_minus : spec.tau_minus)
            for (const double p : spec.p)
              for (const NeighborhoodShape shape : spec.shape)
                for (const DynamicsKind dynamics : spec.dynamics) {
                  ScenarioPoint pt;
                  pt.index = points.size();
                  pt.params = ModelParams{.n = n,
                                          .w = w,
                                          .tau = tau,
                                          .p = p,
                                          .tau_minus = tau_minus,
                                          .shape = shape};
                  pt.dynamics = dynamics;
                  pt.topology = topology;
                  points.push_back(pt);
                }
  return points;
}

}  // namespace seg

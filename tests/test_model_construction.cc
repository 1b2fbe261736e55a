// Differential test of model construction. The engine builds a model from
// a packed field in three passes (window counts, codes, one ascending bulk
// fill per set); this suite rebuilds the same state naively — a per-site
// recount of every stencil row and ascending AgentSet::insert calls — and
// requires identical counts, codes, set items() sequences and membership,
// for Moore and von Neumann windows, asymmetric thresholds, the comfort
// cap, stripe layouts, and graph partitions. It also pins the model's one
// membership rule (membership_code) to reference tables at every count,
// the Rng constructors to the random_spins draw sequence, and the loud
// refusal of malformed explicit fields.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "core/params.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "grid/prefix_sum.h"
#include "lattice/engine.h"
#include "lattice/membership.h"
#include "lattice/sharded.h"
#include "rng/rng.h"

namespace seg {
namespace {

// +1 count of every site's window: each stencil row's wrapped interval
// summed separately (a Moore window is one box).
std::vector<std::int32_t> reference_counts(
    const std::vector<std::int8_t>& spins, int n, int w,
    NeighborhoodShape shape) {
  std::vector<std::int32_t> plus(spins.size());
  for (std::size_t i = 0; i < spins.size(); ++i) plus[i] = spins[i] > 0;
  const PrefixSum2D prefix(plus, n);
  std::vector<std::int32_t> counts(spins.size(), 0);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      std::int64_t c = 0;
      if (shape == NeighborhoodShape::kMoore) {
        c = prefix.box_sum(x, y, w);
      } else {
        for (int dy = -w; dy <= w; ++dy) {
          const int r = w - (dy < 0 ? -dy : dy);
          c += prefix.rect_sum(x - r, y + dy, x + r, y + dy);
        }
      }
      counts[static_cast<std::size_t>(y) * n + x] =
          static_cast<std::int32_t>(c);
    }
  }
  return counts;
}

// The Schelling membership rule (model.cc) over explicit thresholds: bit 0
// unhappy, bit 1 unhappy and the flip makes the agent happy.
MembershipTable schelling_table(int N, int k_plus, int k_minus) {
  return MembershipTable(N, [=](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    if (same >= (plus ? k_plus : k_minus)) return 0;
    return N - same + 1 >= (plus ? k_minus : k_plus) ? 3 : 1;
  });
}

// The comfort-band rule over explicit band edges: bit 0 when the
// same-type count lies outside [k_type, k_hi], bit 1 when in addition the
// flip lands inside the new type's band. At k_plus == k_minus its bit 1 is
// the rule of the former one-set comfort model.
MembershipTable comfort_table(int N, int k_plus, int k_minus, int k_hi) {
  return MembershipTable(N, [=](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    if (same >= (plus ? k_plus : k_minus) && same <= k_hi) return 0;
    const int after = N - same + 1;
    return after >= (plus ? k_minus : k_plus) && after <= k_hi ? 3 : 1;
  });
}

// floor(tau_hi * N) for the band edges above; exact for the fractions the
// tests use.
int floor_of(double tau_hi, int N) {
  return static_cast<int>(std::floor(tau_hi * N + 1e-9));
}

std::string describe(int n, int w, NeighborhoodShape shape, double p,
                     const ShardLayout& layout) {
  return "n=" + std::to_string(n) + " w=" + std::to_string(w) +
         (shape == NeighborhoodShape::kMoore ? " moore" : " von-neumann") +
         " p=" + std::to_string(p) + " shards=" +
         std::to_string(layout.shard_count());
}

// Builds the engine from the packed field and compares it with the naive
// build: counts, codes, and every set slice's items() and membership.
void expect_engine_matches_reference(int n, int w, NeighborhoodShape shape,
                                     double p, const MembershipTable& table,
                                     int set_count,
                                     const ShardLayout& layout,
                                     std::uint64_t seed) {
  const std::string what = describe(n, w, shape, p, layout);
  Rng rng(seed);
  const std::vector<std::int8_t> spins = random_spins(n, p, rng);
  const BinarySpinEngine engine(
      n, w, shape == NeighborhoodShape::kMoore,
      neighborhood_offsets(shape, w), BitField(spins, n), table, set_count,
      layout);

  const std::vector<std::int32_t> counts =
      reference_counts(spins, n, w, shape);
  std::vector<std::uint8_t> codes(spins.size());
  for (std::size_t id = 0; id < spins.size(); ++id) {
    codes[id] = table.code(spins[id] > 0, counts[id]);
    ASSERT_EQ(engine.plus_count(static_cast<std::uint32_t>(id)), counts[id])
        << what << " site " << id;
  }
  ASSERT_EQ(engine.codes(), codes) << what;

  const int shards = layout.shard_count();
  for (int s = 0; s < set_count; ++s) {
    for (int shard = 0; shard < shards; ++shard) {
      const auto [base, extent] = layout.id_window(shard);
      AgentSet reference = extent == 0 ? AgentSet(spins.size())
                                       : AgentSet(extent, base);
      for (std::uint32_t id = 0; id < spins.size(); ++id) {
        if (((codes[id] >> s) & 1u) != 0 && layout.shard_of(id) == shard) {
          reference.insert(id);
        }
      }
      const AgentSet& built = engine.set(s, shard);
      ASSERT_EQ(built.items(), reference.items())
          << what << " set " << s << " shard " << shard;
      for (std::uint32_t id = 0; id < spins.size(); ++id) {
        ASSERT_EQ(built.contains(id), reference.contains(id))
            << what << " set " << s << " shard " << shard << " id " << id;
      }
    }
  }
}

void expect_schelling_engine(int n, int w, NeighborhoodShape shape, double p,
                             const ShardLayout& layout = ShardLayout()) {
  const ModelParams params{
      .n = n, .w = w, .tau = 0.45, .p = p, .tau_minus = 0.3, .shape = shape};
  ASSERT_TRUE(params.valid()) << describe(n, w, shape, p, layout);
  expect_engine_matches_reference(
      n, w, shape, p,
      schelling_table(params.neighborhood_size(),
                      params.happy_threshold_of(+1),
                      params.happy_threshold_of(-1)),
      /*set_count=*/2, layout, 1000003u * n + 1009u * w);
}

TEST(ModelConstruction, MooreEveryRadius) {
  for (const int n : {5, 63, 64, 65, 130, 256}) {
    for (int w = 1; 2 * w + 1 <= n; ++w) {
      if (window_site_count(NeighborhoodShape::kMoore, w) >
          kMaxNeighborhoodSize) {
        break;
      }
      expect_schelling_engine(n, w, NeighborhoodShape::kMoore, 0.5);
    }
  }
}

// The non-dense stencil path costs O(n^2 N) to build, so the large tori
// take a spread of radii rather than every one.
TEST(ModelConstruction, VonNeumann) {
  for (const int n : {5, 63, 64, 65}) {
    for (int w = 1; 2 * w + 1 <= n; ++w) {
      expect_schelling_engine(n, w, NeighborhoodShape::kVonNeumann, 0.5);
    }
  }
  for (const int n : {130, 256}) {
    for (const int w : {1, 2, 3, 5, 8, 13, 21}) {
      expect_schelling_engine(n, w, NeighborhoodShape::kVonNeumann, 0.5);
    }
  }
}

TEST(ModelConstruction, UniformAndMixedFields) {
  for (const double p : {0.0, 0.5, 1.0}) {
    for (const int n : {5, 64, 65, 130}) {
      for (const int w : {1, 2}) {
        expect_schelling_engine(n, w, NeighborhoodShape::kMoore, p);
        expect_schelling_engine(n, w, NeighborhoodShape::kVonNeumann, p);
      }
    }
  }
}

TEST(ModelConstruction, ComfortBand) {
  for (const int n : {5, 63, 64, 65, 130}) {
    for (const int w : {1, 2, 4}) {
      if (2 * w + 1 > n) continue;
      const ModelParams params{
          .n = n, .w = w, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
      const int N = params.neighborhood_size();
      expect_engine_matches_reference(
          n, w, NeighborhoodShape::kMoore, params.p,
          comfort_table(N, params.happy_threshold(), params.happy_threshold(),
                        floor_of(params.tau_hi, N)),
          /*set_count=*/2, ShardLayout(), 7919u * n + w);
    }
  }
}

// membership_code is the one rule both engine builds tabulate. Without a
// cap it is the paper's rule at every count, the unreachable +1/count-0
// and -1/count-N entries included, so the table, its crossings and the
// flip kernel choice are those of the uncapped model. Under a cap its
// unhappy bit is "outside the band" and its flippable bit the comfort
// rule.
TEST(ModelConstruction, MembershipCodeMatchesReferenceRules) {
  struct Stencil {
    NeighborhoodShape shape;
    int w;
  };
  const Stencil stencils[] = {{NeighborhoodShape::kMoore, 1},
                              {NeighborhoodShape::kMoore, 2},
                              {NeighborhoodShape::kMoore, 5},
                              {NeighborhoodShape::kVonNeumann, 3}};
  for (const Stencil& st : stencils) {
    for (const double tau_minus : {-1.0, 0.3}) {
      for (const double tau_hi : {1.0, 0.9, 0.8, 0.7, 0.6}) {
        const ModelParams params{.n = 16, .w = st.w, .tau = 0.45, .p = 0.5,
                                 .tau_minus = tau_minus, .shape = st.shape,
                                 .tau_hi = tau_hi};
        ASSERT_TRUE(params.valid());
        const int N = params.neighborhood_size();
        const int k_plus = params.happy_threshold_of(+1);
        const int k_minus = params.happy_threshold_of(-1);
        const MembershipTable reference =
            tau_hi == 1.0
                ? schelling_table(N, k_plus, k_minus)
                : comfort_table(N, k_plus, k_minus, floor_of(tau_hi, N));
        for (const bool plus : {true, false}) {
          for (int count = 0; count <= N; ++count) {
            ASSERT_EQ(membership_code(params, N, plus, count),
                      reference.code(plus, count))
                << "N=" << N << " tau_minus=" << tau_minus
                << " tau_hi=" << tau_hi << " plus=" << plus
                << " count=" << count;
          }
        }
      }
    }
  }
}

// Each stripe slice holds its own sites, ascending, at even and uneven
// stripe heights.
TEST(ModelConstruction, ShardLayoutsKeepSliceOrder) {
  for (const int n : {63, 64, 65, 130}) {
    for (const int w : {1, 2, 5}) {
      for (const auto shape :
           {NeighborhoodShape::kMoore, NeighborhoodShape::kVonNeumann}) {
        for (const double p : {0.0, 0.5, 1.0}) {
          expect_schelling_engine(n, w, shape, p,
                                  ShardLayout::stripes(n, w, 3));
          expect_schelling_engine(n, w, shape, p,
                                  ShardLayout::stripes(n, w, 7));
        }
      }
    }
  }
}

// The models on top: their thresholds and set plumbing against the
// per-agent predicates, which read nothing but spins and counts.
TEST(ModelConstruction, SchellingModelSetsAreAscendingPredicates) {
  for (const int n : {63, 65}) {
    const ModelParams params{
        .n = n, .w = 2, .tau = 0.45, .p = 0.5, .tau_minus = 0.3};
    Rng rng(60000u + n);
    const std::vector<std::int8_t> spins = random_spins(n, params.p, rng);
    const std::vector<std::int32_t> counts =
        reference_counts(spins, n, params.w, params.shape);
    const ShardLayout stripes = ShardLayout::stripes(n, params.w, 2);
    for (const ShardLayout& layout : {ShardLayout(), stripes}) {
      const SchellingModel model(params, spins, layout);
      for (int shard = 0; shard < layout.shard_count(); ++shard) {
        std::vector<std::uint32_t> unhappy, flippable;
        for (std::uint32_t id = 0; id < model.agent_count(); ++id) {
          ASSERT_EQ(model.plus_count(id), counts[id]) << "n=" << n;
          if (layout.shard_of(id) != shard) continue;
          if (model.is_unhappy(id)) unhappy.push_back(id);
          if (model.is_flippable(id)) flippable.push_back(id);
        }
        EXPECT_EQ(model.unhappy_set(shard).items(), unhappy) << "n=" << n;
        EXPECT_EQ(model.flippable_set(shard).items(), flippable)
            << "n=" << n;
      }
    }
  }
}

// Under a comfort cap, on the torus and on torus-as-graph.
TEST(ModelConstruction, ComfortCapSetsAreAscendingPredicates) {
  const ModelParams params{
      .n = 65, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  Rng rng(60100);
  const std::vector<std::int8_t> spins = random_spins(params.n, params.p, rng);
  const auto graph = std::make_shared<const GraphTopology>(GraphTopology::torus(
      params.n, neighborhood_offsets(params.shape, params.w)));
  for (const bool on_graph : {false, true}) {
    const SchellingModel model = on_graph
                                     ? SchellingModel(params, graph, spins)
                                     : SchellingModel(params, spins);
    std::vector<std::uint32_t> unhappy, flippable;
    for (std::uint32_t id = 0; id < model.agent_count(); ++id) {
      if (model.is_unhappy(id)) unhappy.push_back(id);
      if (model.is_flippable(id)) flippable.push_back(id);
    }
    EXPECT_EQ(model.unhappy_set().items(), unhappy) << "graph " << on_graph;
    EXPECT_EQ(model.flippable_set().items(), flippable)
        << "graph " << on_graph;
    EXPECT_GT(unhappy.size(), flippable.size()) << "graph " << on_graph;
    EXPECT_TRUE(model.check_invariants());
  }
}

// Graph mode counts each CSR row off the flat bits and shares the fill:
// every part's slice holds its own nodes, ascending.
TEST(ModelConstruction, GraphPartitionsKeepSliceOrder) {
  const ModelParams params{
      .n = 12, .w = 2, .tau = 0.45, .p = 0.5, .tau_minus = 0.3};
  const std::vector<std::shared_ptr<const GraphTopology>> graphs = {
      std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(101, 4, 5)),
      std::make_shared<const GraphTopology>(GraphTopology::torus(
          12, neighborhood_offsets(NeighborhoodShape::kMoore, 2))),
      std::make_shared<const GraphTopology>(GraphTopology::ring(131, 3))};
  for (const auto& graph : graphs) {
    for (const int parts : {1, 3}) {
      Rng rng(60200u + graph->node_count());
      const std::vector<std::int8_t> spins =
          random_spins_count(graph->node_count(), params.p, rng);
      const GraphPartition partition =
          parts == 1 ? GraphPartition()
                     : GraphPartition::greedy_bfs(*graph, parts);
      const SchellingModel model(params, graph, spins, partition);
      for (int part = 0; part < partition.part_count(); ++part) {
        std::vector<std::uint32_t> unhappy, flippable;
        for (std::uint32_t v = 0; v < graph->node_count(); ++v) {
          if (part == 0) {
            const auto [row, len] = graph->row(v);
            std::int32_t plus = 0;
            for (int i = 0; i < len; ++i) plus += spins[row[i]] > 0;
            ASSERT_EQ(model.plus_count(v), plus) << "node " << v;
          }
          if (partition.part_of(v) != part) continue;
          if (model.is_unhappy(v)) unhappy.push_back(v);
          if (model.is_flippable(v)) flippable.push_back(v);
        }
        EXPECT_EQ(model.unhappy_set(part).items(), unhappy)
            << graph->node_count() << " nodes, part " << part;
        EXPECT_EQ(model.flippable_set(part).items(), flippable)
            << graph->node_count() << " nodes, part " << part;
      }
      EXPECT_TRUE(model.check_invariants());
    }
  }
}

// The Rng constructors draw straight into packed words; the field and the
// generator state afterwards must equal random_spins' from the same seed.
TEST(ModelConstruction, RngConstructorsFollowRandomSpinsDrawOrder) {
  for (const double p : {0.0, 0.37, 1.0}) {
    const ModelParams params{.n = 100, .w = 3, .tau = 0.45, .p = p};
    {
      Rng a(61000), b(61000);
      const SchellingModel model(params, a);
      EXPECT_EQ(model.spins(), random_spins(params.n, p, b)) << "p=" << p;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
    }
    {
      Rng a(61001), b(61001);
      const SchellingModel model(params, a,
                                 ShardLayout::stripes(params.n, params.w, 4));
      EXPECT_EQ(model.spins(), random_spins(params.n, p, b)) << "p=" << p;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
    }
    {
      ModelParams capped = params;
      capped.tau_hi = 0.8;
      Rng a(61002), b(61002);
      const SchellingModel model(capped, a);
      EXPECT_EQ(model.spins(), random_spins(capped.n, p, b)) << "p=" << p;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
    }
    {
      const auto graph = std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(101, 4, 5));
      Rng a(61003), b(61003);
      const SchellingModel model(params, graph, a);
      EXPECT_EQ(model.spins(),
                random_spins_count(graph->node_count(), p, b))
          << "p=" << p;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "p=" << p;
    }
  }
}

// Explicit fields are refused loudly in every build type: a wrong size
// names the expected size, a bad entry names its index.
TEST(ModelConstructionDeathTest, RefusesMalformedExplicitFields) {
  const ModelParams params{.n = 16, .w = 2, .tau = 0.45, .p = 0.5};
  std::vector<std::int8_t> field(16 * 16, 1);
  std::vector<std::int8_t> short_field(16 * 16 - 1, 1);
  std::vector<std::int8_t> zero_entry = field;
  zero_entry[37] = 0;
  EXPECT_DEATH(SchellingModel(params, short_field),
               "has 255 entries, expected 256");
  EXPECT_DEATH(SchellingModel(params, zero_entry), "entry 37 is 0");
  ModelParams capped = params;
  capped.tau_hi = 0.8;
  EXPECT_DEATH(SchellingModel(capped, short_field),
               "has 255 entries, expected 256");
  EXPECT_DEATH(SchellingModel(capped, zero_entry), "entry 37 is 0");

  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::random_regular(101, 4, 5));
  std::vector<std::int8_t> nodes(101, -1);
  std::vector<std::int8_t> short_nodes(100, -1);
  std::vector<std::int8_t> bad_node = nodes;
  bad_node[99] = 2;
  EXPECT_DEATH(SchellingModel(params, graph, short_nodes),
               "has 100 entries, expected 101");
  EXPECT_DEATH(SchellingModel(params, graph, bad_node), "entry 99 is 2");
  EXPECT_DEATH(SchellingModel(capped, graph, short_nodes),
               "has 100 entries, expected 101");
  EXPECT_DEATH(SchellingModel(capped, graph, bad_node), "entry 99 is 2");
}

}  // namespace
}  // namespace seg

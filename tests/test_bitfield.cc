// The bit-packed storage battery.
//
// Layer 1 pins BitField itself: pack/unpack roundtrips (square, rows x
// cols, and the flat one-row graph layout), masked-popcount row counts
// against a scalar reference at every alignment (word-multiple and ragged
// sides), and the wrapped window popcount at every center.
// Layer 2 pins PackedHaloField against the byte HaloField it replaces.
// Layer 3 is the golden differential: every model policy (Glauber,
// discrete, synchronous, comfort, Kawasaki, asymmetric von Neumann) must
// reproduce the *frozen golden trajectory hashes* captured from the
// pre-packing byte engine — the packed engine is not "close to" it, it is
// bit-for-bit the same dynamical system. Layer 4 drives sharded engines
// (4 torus stripes, and a 4-part graph partition whose parts share
// 64-node words, exercising the atomic shared-word bit flips) through the
// same arbitrary flip sequence as a trivial-layout engine, and a mutation
// fuzz with full recount audits.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "golden_fixtures.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "lattice/bitfield.h"
#include "lattice/halo_field.h"
#include "lattice/sharded.h"
#include "lattice/window.h"
#include "rng/rng.h"

namespace seg {
namespace {

using golden::hash_bytes;
using golden::mix;
using golden::mix_double;

std::vector<std::int8_t> random_field(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> spins(static_cast<std::size_t>(n) * n);
  for (auto& s : spins) s = rng.bernoulli(0.5) ? 1 : -1;
  return spins;
}

// Scalar reference for count_row: walk the wrapped interval cell by cell.
std::int32_t count_row_reference(const std::vector<std::int8_t>& spins,
                                 int n, int y, int x0, int len) {
  std::int32_t c = 0;
  for (int i = 0; i < len; ++i) {
    c += spins[static_cast<std::size_t>(y) * n + (x0 + i) % n] > 0;
  }
  return c;
}

TEST(BitField, PackUnpackRoundtrip) {
  // 130 = 2*64 + 2 exercises ragged final words; 64 exercises the exact
  // word-multiple layout with no tail masking.
  for (const int n : {64, 130}) {
    const auto spins = random_field(n, 40001 + n);
    const BitField bits(spins, n);
    EXPECT_EQ(bits.side(), n);
    EXPECT_EQ(bits.unpack(), spins);
    std::int64_t plus = 0;
    for (const std::int8_t s : spins) plus += (s == 1);
    EXPECT_EQ(bits.count_all(), plus);
    for (std::uint32_t id = 0; id < spins.size(); ++id) {
      EXPECT_EQ(bits.spin(id), spins[id]) << "id " << id;
    }
  }
}

TEST(BitField, RectangularAndFlatLayouts) {
  // 3 x 70 exercises a non-square padded layout; 1 x 200 is the graph
  // layout, whose flat accessors must agree with the row/column ones.
  for (const auto [rows, cols] : {std::pair{3, 70}, std::pair{1, 200}}) {
    Rng rng(40010 + rows);
    std::vector<std::int8_t> spins(static_cast<std::size_t>(rows) * cols);
    for (auto& s : spins) s = rng.bernoulli(0.5) ? 1 : -1;
    BitField bits(spins, rows, cols);
    EXPECT_EQ(bits.rows(), rows);
    EXPECT_EQ(bits.cols(), cols);
    EXPECT_EQ(bits.unpack(), spins);
    for (std::uint32_t id = 0; id < spins.size(); ++id) {
      ASSERT_EQ(bits.spin(id), spins[id]) << "id " << id;
    }
    if (rows != 1) continue;
    for (std::uint32_t i = 0; i < spins.size(); ++i) {
      ASSERT_EQ(bits.flat_spin(i), spins[i]) << "node " << i;
    }
    std::int64_t plus = bits.count_all();
    for (int step = 0; step < 2000; ++step) {
      const auto i = static_cast<std::uint32_t>(rng.uniform_below(cols));
      const bool was_plus = bits.flat_test(i);
      if (rng.bernoulli(0.5)) {
        bits.flat_flip(i);
      } else {
        bits.flat_flip_atomic(i);
      }
      plus += was_plus ? -1 : 1;
      ASSERT_EQ(bits.test(i), !was_plus);
      ASSERT_EQ(bits.count_all(), plus) << "step " << step;
    }
  }
}

TEST(BitField, FlipAndAssignKeepPaddingClear) {
  const int n = 70;  // 6 padding bits per row
  const auto spins = random_field(n, 40002);
  BitField bits(spins, n);
  Rng rng(40003);
  std::int64_t plus = bits.count_all();
  for (int step = 0; step < 4000; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(std::uint64_t(n) * n));
    const bool was_plus = bits.test(id);
    bits.flip(id);
    plus += was_plus ? -1 : 1;
    ASSERT_EQ(bits.test(id), !was_plus);
    // count_all sums raw words: any bit leaked into row padding breaks it.
    ASSERT_EQ(bits.count_all(), plus) << "step " << step;
  }
  for (std::uint32_t id = 0; id < std::uint64_t(n) * n; ++id) {
    bits.assign(id, spins[id] > 0);
  }
  EXPECT_EQ(bits.unpack(), spins);
}

TEST(BitField, CountRowMatchesScalarAtEveryAlignment) {
  // n = 192 keeps rows at exact word multiples; n = 130 leaves a 62-bit
  // ragged tail. Every (x0, len) pair covers all head/tail mask shapes,
  // the multi-word middle loop, and the wrap-around split.
  for (const int n : {192, 130}) {
    const auto spins = random_field(n, 40004 + n);
    const BitField bits(spins, n);
    for (const int y : {0, 1, n - 1}) {
      for (int x0 = 0; x0 < n; ++x0) {
        for (const int len : {1, 2, 63, 64, 65, 127, 128, n}) {
          ASSERT_EQ(bits.count_row(y, x0, len),
                    count_row_reference(spins, n, y, x0, len))
              << "n=" << n << " y=" << y << " x0=" << x0 << " len=" << len;
        }
      }
    }
  }
}

TEST(BitField, PackedWindowCountMatchesScalarAtEveryCenter) {
  for (const int n : {130, 64}) {
    const auto spins = random_field(n, 40005 + n);
    const BitField bits(spins, n);
    // r = 31 makes 2r+1 = 63 of a 64/130 torus: nearly every window wraps.
    for (const int r : {1, 5, 31}) {
      for (int cy = 0; cy < n; ++cy) {
        for (int cx = 0; cx < n; ++cx) {
          std::int32_t want = 0;
          for_each_window_cell(cx, cy, r, n, [&](std::uint32_t id) {
            want += spins[id] > 0;
          });
          ASSERT_EQ(packed_window_count(bits, cx, cy, r), want)
              << "n=" << n << " r=" << r << " center (" << cx << ", " << cy
              << ")";
        }
      }
    }
  }
}

TEST(PackedHaloField, MatchesByteHaloField) {
  const int n = 96;
  const auto spins = random_field(n, 40006);
  const BitField bits(spins, n);
  for (const int halo : {3, 17}) {
    const HaloField<std::int8_t> bytes(spins, n, halo);
    const PackedHaloField packed(bits, halo);
    for (int y = -halo; y < n + halo; ++y) {
      for (int x = -halo; x < n + halo; ++x) {
        ASSERT_EQ(packed.spin(x, y), bytes.at(x, y))
            << "halo=" << halo << " (" << x << ", " << y << ")";
      }
    }
    for (int cy = 0; cy < n; ++cy) {
      for (int cx = 0; cx < n; ++cx) {
        ASSERT_EQ(packed.count_window(cx, cy, halo),
                  packed_window_count(bits, cx, cy, halo))
            << "halo=" << halo << " center (" << cx << ", " << cy << ")";
      }
    }
  }
}

// ---- Layer 3: the frozen golden hashes ----

std::uint64_t spins_hash(const std::vector<std::int8_t>& spins) {
  return hash_bytes(spins.data(), spins.size());
}

TEST(PackedDifferential, GlauberReproducesGolden) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kGlauber);
}

TEST(PackedDifferential, DiscreteReproducesGolden) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.55, .p = 0.5};
  Rng init = Rng::stream(1002, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1002, 1);
  RunOptions opt;
  opt.max_flips = 3000;
  const RunResult r = run_discrete(m, dyn, opt);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kDiscrete);
}

TEST(PackedDifferential, SynchronousReproducesGolden) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1004, 0);
  SchellingModel m(p, init);
  const RunResult r = run_synchronous(m, 64);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.flips);
  h = mix(h, r.rounds);
  h = mix(h, r.cycle_detected ? 1 : 0);
  EXPECT_EQ(h, golden::kSynchronous);
}

TEST(PackedDifferential, ComfortReproducesGolden) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  Rng init = Rng::stream(1005, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1005, 1);
  RunOptions opt;
  opt.max_flips = 5000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kComfort);
}

TEST(PackedDifferential, KawasakiReproducesGolden) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init = Rng::stream(1007, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1007, 1);
  KawasakiOptions opt;
  opt.max_swaps = 1500;
  const KawasakiResult r = run_kawasaki(m, dyn, opt);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.swaps);
  h = mix(h, r.proposals);
  EXPECT_EQ(h, golden::kKawasaki);
}

// The sparse von Neumann stencil takes the generic (non-span) flip path,
// asymmetric thresholds included.
TEST(PackedDifferential, AsymVonNeumannReproducesGolden) {
  ModelParams p{.n = 40, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.55,
                .shape = NeighborhoodShape::kVonNeumann};
  Rng init = Rng::stream(1003, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1003, 1);
  RunOptions opt;
  opt.max_flips = 4000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = spins_hash(m.spins());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kAsymVonNeumann);
}

// ---- Layer 4: sharded layouts and mutation fuzz ----

// Drives `serial` (trivial layout) and `sharded` through the same
// arbitrary flip sequence. After every flip the sharded engine must hold
// the serial engine's spin and count at the flipped site; at the end its
// per-shard sets must partition the serial ones.
void expect_flip_for_flip(SchellingModel& serial, SchellingModel& sharded,
                          std::uint64_t seed) {
  Rng rng(seed);
  for (int step = 0; step < 6000; ++step) {
    const auto id = static_cast<std::uint32_t>(
        rng.uniform_below(serial.agent_count()));
    serial.flip(id);
    sharded.flip(id);
    ASSERT_EQ(sharded.spin(id), serial.spin(id)) << "step " << step;
    ASSERT_EQ(sharded.plus_count(id), serial.plus_count(id))
        << "step " << step;
  }
  ASSERT_TRUE(sharded.check_invariants());
  ASSERT_TRUE(serial.check_invariants());
  EXPECT_EQ(sharded.spins(), serial.spins());
  EXPECT_EQ(sharded.count_unhappy(), serial.count_unhappy());
  std::size_t unhappy = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    unhappy += sharded.unhappy_set(s).size();
  }
  EXPECT_EQ(unhappy, serial.unhappy_set().size());
  for (std::uint32_t id = 0; id < serial.agent_count(); ++id) {
    ASSERT_EQ(sharded.plus_count(id), serial.plus_count(id)) << id;
    ASSERT_EQ(sharded.in_unhappy_set(id), serial.in_unhappy_set(id)) << id;
  }
}

TEST(PackedDifferential, ShardedLayoutsMatchTrivialLayoutFlipForFlip) {
  // Torus stripes: whole rows per shard, plain bit flips.
  ModelParams params{.n = 36, .w = 2, .tau = 0.45, .p = 0.5};
  Rng spin_rng(41001);
  const auto spins = random_spins(params.n, 0.5, spin_rng);
  SchellingModel serial(params, spins);
  SchellingModel striped(params, spins,
                         ShardLayout::stripes(params.n, params.w, 4));
  ASSERT_EQ(striped.shard_count(), 4);
  expect_flip_for_flip(serial, striped, 41002);

  // Graph parts: greedy BFS over a random regular graph scatters each
  // part across node ids, so parts share 64-node spin words and the
  // engine routes those flips through the atomic fetch-xor path.
  const auto graph = std::make_shared<const GraphTopology>(
      GraphTopology::random_regular(512, 8, /*seed=*/41003));
  const GraphPartition partition = GraphPartition::greedy_bfs(*graph, 4);
  bool shared_word = false;
  for (std::uint32_t v = 1; v < graph->node_count(); ++v) {
    shared_word |= (v & 63) != 0 &&
                   partition.part_of(v) != partition.part_of(v - 1);
  }
  ASSERT_TRUE(shared_word) << "no 64-node word holds two parts";
  Rng graph_rng(41004);
  const auto graph_spins =
      random_spins_count(graph->node_count(), 0.5, graph_rng);
  SchellingModel graph_serial(params, graph, graph_spins);
  SchellingModel graph_parts(params, graph, graph_spins, partition);
  ASSERT_EQ(graph_parts.shard_count(), 4);
  expect_flip_for_flip(graph_serial, graph_parts, 41005);
}

TEST(PackedFuzz, ArbitraryFlipsKeepPackedInvariants) {
  // Arbitrary-site mutation fuzz with full recount audits. w = 10 on
  // n = 24 wraps every window past the seam.
  struct Config {
    ModelParams params;
    std::uint64_t seed;
  };
  const Config configs[] = {
      {{.n = 32, .w = 2, .tau = 0.45, .p = 0.5}, 42001},
      {{.n = 24, .w = 10, .tau = 0.55, .p = 0.4}, 42002},
  };
  for (const Config& config : configs) {
    Rng rng(config.seed);
    SchellingModel model(config.params, rng);
    ASSERT_TRUE(model.check_invariants());
    for (int step = 0; step < 6000; ++step) {
      model.flip(static_cast<std::uint32_t>(
          rng.uniform_below(model.agent_count())));
      if (rng.uniform_below(400) == 0) {
        ASSERT_TRUE(model.check_invariants()) << "step " << step;
      }
    }
    ASSERT_TRUE(model.check_invariants());
    // The packed bits and the byte snapshot must be two views of one
    // field.
    EXPECT_EQ(model.packed_spins().unpack(), model.spins());
  }
}

}  // namespace
}  // namespace seg

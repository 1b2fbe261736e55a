// Lattice layer tests: window span decomposition (order and coverage),
// halo-padded fields, membership tables, and the BinarySpinEngine's
// threshold-crossing fast path against brute-force recounts — including
// the dense fallback used when a code table has too many boundaries.
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "lattice/engine.h"
#include "lattice/halo_field.h"
#include "lattice/membership.h"
#include "lattice/window.h"

namespace seg {
namespace {

// Reference order: the legacy double loop, dy then dx, wrapped.
std::vector<std::uint32_t> legacy_window(int cx, int cy, int r, int n) {
  std::vector<std::uint32_t> ids;
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      ids.push_back(static_cast<std::uint32_t>(
          static_cast<std::size_t>(torus_wrap(cy + dy, n)) * n +
          torus_wrap(cx + dx, n)));
    }
  }
  return ids;
}

TEST(WindowSpans, MatchLegacyStencilOrderEverywhere) {
  for (const auto& [n, r] : {std::pair{7, 1}, {7, 3}, {16, 2}, {16, 5},
                             {9, 4}}) {
    for (int cy = 0; cy < n; ++cy) {
      for (int cx = 0; cx < n; ++cx) {
        std::vector<std::uint32_t> ids;
        for_each_window_cell(cx, cy, r, n,
                             [&](std::uint32_t id) { ids.push_back(id); });
        ASSERT_EQ(ids, legacy_window(cx, cy, r, n))
            << "n=" << n << " r=" << r << " center=(" << cx << "," << cy
            << ")";
      }
    }
  }
}

TEST(WindowSpans, PointVariantAgreesWithCellVariant) {
  const int n = 11, r = 3;
  for (const auto [cx, cy] : {std::pair{0, 0}, {10, 10}, {5, 5}, {1, 9}}) {
    std::vector<std::uint32_t> from_cells, from_points;
    for_each_window_cell(cx, cy, r, n,
                         [&](std::uint32_t id) { from_cells.push_back(id); });
    for_each_window_point(cx, cy, r, n, [&](int x, int y, std::uint32_t id) {
      EXPECT_EQ(static_cast<std::uint32_t>(y * n + x), id);
      from_points.push_back(id);
    });
    EXPECT_EQ(from_cells, from_points);
  }
}

TEST(WindowSpans, UntilVariantStopsEarly) {
  const int n = 8, r = 2;
  int visited = 0;
  const bool completed =
      for_each_window_point_until(4, 4, r, n, [&](int, int, std::uint32_t) {
        return ++visited < 7;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 7);
  visited = 0;
  EXPECT_TRUE(for_each_window_point_until(
      4, 4, r, n, [&](int, int, std::uint32_t) {
        ++visited;
        return true;
      }));
  EXPECT_EQ(visited, (2 * r + 1) * (2 * r + 1));
}

TEST(WindowGeometry, IdPointRoundTrip) {
  const WindowGeometry g(12, 3);
  EXPECT_EQ(g.window_size(), 49);
  for (std::uint32_t id = 0; id < g.site_count(); ++id) {
    const Point p = g.point_of(id);
    EXPECT_EQ(g.id_of(p.x, p.y), id);
  }
  EXPECT_EQ(g.id_of(-1, -1), g.id_of(11, 11));
}

TEST(HaloField, MatchesTorusEverywhere) {
  const int n = 10, halo = 4;
  Rng rng(5);
  std::vector<std::int8_t> field(static_cast<std::size_t>(n) * n);
  for (auto& v : field) v = static_cast<std::int8_t>(rng.uniform_below(5));
  const HaloField<std::int8_t> padded(field, n, halo);
  for (int y = -halo; y < n + halo; ++y) {
    for (int x = -halo; x < n + halo; ++x) {
      ASSERT_EQ(padded.at(x, y),
                field[static_cast<std::size_t>(torus_wrap(y, n)) * n +
                      torus_wrap(x, n)]);
    }
  }
}

TEST(HaloField, WindowRowsCoverTheWindow) {
  const int n = 9, halo = 3, r = 3;
  Rng rng(6);
  std::vector<std::int32_t> field(static_cast<std::size_t>(n) * n);
  for (auto& v : field) v = static_cast<std::int32_t>(rng.uniform_below(100));
  const HaloField<std::int32_t> padded(field, n, halo);
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      std::int64_t via_rows = 0;
      padded.for_each_window_row(cx, cy, r,
                                 [&](const std::int32_t* row, int len) {
                                   for (int i = 0; i < len; ++i) {
                                     via_rows += row[i];
                                   }
                                 });
      std::int64_t direct = 0;
      for_each_window_cell(cx, cy, r, n,
                           [&](std::uint32_t id) { direct += field[id]; });
      ASSERT_EQ(via_rows, direct);
    }
  }
}

TEST(MembershipTable, StoresCodesPerSpinAndCount) {
  const int N = 9;
  const MembershipTable table(N, [&](bool plus, int count) -> std::uint8_t {
    return plus ? (count >= 5 ? 0 : 1) : (count <= 3 ? 0 : 3);
  });
  for (int c = 0; c <= N; ++c) {
    EXPECT_EQ(table.code(true, c), c >= 5 ? 0 : 1);
    EXPECT_EQ(table.code(false, c), c <= 3 ? 0 : 3);
  }
  EXPECT_EQ(table.data()[table.spin_offset(+1) + 2], table.code(true, 2));
  EXPECT_EQ(table.data()[table.spin_offset(-1) + 2], table.code(false, 2));
}

// Random flips against the full recount audit, on both engine paths.
TEST(BinarySpinEngine, RandomFlipsKeepInvariants) {
  const int n = 12, w = 2;
  Rng rng(42);
  auto spins = random_spins(n, 0.5, rng);
  const int N = (2 * w + 1) * (2 * w + 1);
  // A Schelling-like two-set table (few boundaries: sparse fast path).
  MembershipTable table(N, [&](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    if (same >= 12) return 0;
    return (N - same + 1 >= 12) ? 3 : 1;
  });
  BinarySpinEngine engine(n, w, /*dense_window=*/true,
                          neighborhood_offsets(NeighborhoodShape::kMoore, w),
                          BitField(spins, n), std::move(table), 2);
  ASSERT_TRUE(engine.check_invariants());
  for (int step = 0; step < 500; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(engine.size()));
    engine.flip(id);
    if (step % 50 == 0) ASSERT_TRUE(engine.check_invariants());
  }
  EXPECT_TRUE(engine.check_invariants());
}

TEST(BinarySpinEngine, DenseFallbackHandlesManyBoundaries) {
  const int n = 10, w = 1;
  Rng rng(43);
  auto spins = random_spins(n, 0.5, rng);
  const int N = (2 * w + 1) * (2 * w + 1);
  // Alternating code: a boundary at every count, forcing the per-cell
  // table fallback instead of the sparse-crossing fast path.
  MembershipTable table(N, [](bool plus, int count) -> std::uint8_t {
    return static_cast<std::uint8_t>((count + (plus ? 0 : 1)) & 1);
  });
  BinarySpinEngine engine(n, w, /*dense_window=*/true,
                          neighborhood_offsets(NeighborhoodShape::kMoore, w),
                          BitField(spins, n), std::move(table), 1);
  ASSERT_TRUE(engine.check_invariants());
  for (int step = 0; step < 300; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(engine.size()));
    engine.flip(id);
  }
  EXPECT_TRUE(engine.check_invariants());
}

TEST(BinarySpinEngine, GenericStencilPathKeepsInvariants) {
  const int n = 11, w = 2;
  Rng rng(44);
  auto spins = random_spins(n, 0.4, rng);
  auto offsets = neighborhood_offsets(NeighborhoodShape::kVonNeumann, w);
  const int N = static_cast<int>(offsets.size());
  MembershipTable table(N, [&](bool plus, int count) -> std::uint8_t {
    const int same = plus ? count : N - count;
    return same < 6 ? 1 : 0;
  });
  BinarySpinEngine engine(n, w, /*dense_window=*/false, std::move(offsets),
                          BitField(spins, n), std::move(table), 1);
  ASSERT_TRUE(engine.check_invariants());
  for (int step = 0; step < 300; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(engine.size()));
    engine.flip(id);
  }
  EXPECT_TRUE(engine.check_invariants());
}

}  // namespace
}  // namespace seg

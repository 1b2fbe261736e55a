// Differential pins for the region measurement: the one-transform radius
// field against the two-BFS transform it replaced, the almost-mono radius
// field against direct counting, and the per-agent sizes M(u) / M'(u),
// the sampled means and the grid-wide maxima against the
// O(n^2)-per-agent scan over centers, on random, dynamics-evolved and
// hand-built fields at odd and even n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/almost.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "grid/distance_transform.h"
#include "grid/point.h"
#include "rng/rng.h"

namespace seg {
namespace {

using Spins = std::vector<std::int8_t>;
using Field = std::vector<std::int32_t>;

// The radius field as two multi-source BFS passes computed it: for each
// type, the distance from its sites to the nearest opposite-type site,
// minus 1, capped at (n-1)/2.
Field two_bfs_radius(const Spins& spins, int n) {
  const std::int32_t max_radius = (n - 1) / 2;
  Field radius(spins.size(), max_radius);
  for (const bool plus : {true, false}) {
    Field dist(spins.size(), -1);
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < spins.size(); ++i) {
      if ((spins[i] > 0) != plus) {
        dist[i] = 0;
        queue.push_back(i);
      }
    }
    if (queue.empty()) continue;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int x = static_cast<int>(queue[head] % n);
      const int y = static_cast<int>(queue[head] / n);
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::size_t j =
              static_cast<std::size_t>(torus_wrap(y + dy, n)) * n +
              torus_wrap(x + dx, n);
          if (dist[j] < 0) {
            dist[j] = dist[queue[head]] + 1;
            queue.push_back(j);
          }
        }
      }
    }
    for (std::size_t i = 0; i < spins.size(); ++i) {
      if ((spins[i] > 0) == plus) {
        radius[i] = std::min(max_radius, dist[i] - 1);
      }
    }
  }
  return radius;
}

// Largest radius r <= (n-1)/2 whose ball around (cx, cy) is one type,
// by direct enumeration.
std::int32_t brute_mono_radius(const Spins& spins, int n, int cx, int cy) {
  const std::int8_t t = spins[static_cast<std::size_t>(cy) * n + cx];
  for (int r = (n - 1) / 2; r >= 1; --r) {
    bool mono = true;
    for (int dy = -r; dy <= r && mono; ++dy) {
      for (int dx = -r; dx <= r && mono; ++dx) {
        mono = spins[static_cast<std::size_t>(torus_wrap(cy + dy, n)) * n +
                     torus_wrap(cx + dx, n)] == t;
      }
    }
    if (mono) return r;
  }
  return 0;
}

// Largest radius r <= max_radius (and <= (n-1)/2) whose ball passes the
// almost-monochromatic ratio test, by direct counting.
std::int32_t brute_almost_radius(const Spins& spins, int n, int cx, int cy,
                                 double threshold, int max_radius = 0) {
  if (max_radius <= 0) max_radius = (n - 1) / 2;
  std::int32_t best = 0;
  for (int r = 1; r <= std::min(max_radius, (n - 1) / 2); ++r) {
    std::int64_t plus = 0;
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        plus += spins[static_cast<std::size_t>(torus_wrap(cy + dy, n)) * n +
                      torus_wrap(cx + dx, n)] > 0;
      }
    }
    const std::int64_t size = ball_size(r);
    const std::int64_t minority = std::min(plus, size - plus);
    if (static_cast<double>(minority) <=
        threshold * static_cast<double>(size - minority)) {
      best = r;
    }
  }
  return best;
}

// Size of the largest ball containing u: the scan over every center, with
// none of the query's tile pruning.
std::int64_t scan_size(const Field& radius, int n, Point u) {
  std::int64_t best = 1;
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      const std::int32_t r = radius[static_cast<std::size_t>(cy) * n + cx];
      if (r > 0 && torus_linf(Point{cx, cy}, u, n) <= r) {
        best = std::max(best, ball_size(r));
      }
    }
  }
  return best;
}

// The mean the per-sample scan produced: same draws, same summation order.
double scan_mean(const Field& radius, int n, std::size_t samples, Rng& rng) {
  const auto total = static_cast<std::uint64_t>(n) * n;
  double sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto id = rng.uniform_below(total);
    sum += static_cast<double>(scan_size(
        radius, n, Point{static_cast<int>(id % n), static_cast<int>(id / n)}));
  }
  return sum / static_cast<double>(samples);
}

struct Case {
  std::string name;
  int n;
  Spins spins;
};

Spins random_field(int n, double p, std::uint64_t seed) {
  Rng rng(seed);
  Spins spins(static_cast<std::size_t>(n) * n);
  for (auto& s : spins) s = rng.bernoulli(p) ? 1 : -1;
  return spins;
}

Spins evolved_field(int n, int w, double tau, std::uint64_t seed) {
  Rng init(seed);
  SchellingModel model({.n = n, .w = w, .tau = tau, .p = 0.5}, init);
  Rng dyn(seed + 1);
  run_glauber(model, dyn);
  return model.spins();
}

// Random fields at several densities, dynamics-evolved fields, and the
// hand-built extremes: uniform, one minority site, half-and-half stripes.
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const int n : {3, 4, 5, 6, 7, 8, 9, 10, 13, 16, 21, 32}) {
    for (const double p : {0.5, 0.8, 0.95}) {
      out.push_back({"random n=" + std::to_string(n) +
                         " p=" + std::to_string(p),
                     n, random_field(n, p, 1000 * n + 100 * p)});
    }
  }
  for (const auto& [n, w, tau] :
       {std::tuple{12, 1, 0.45}, std::tuple{17, 1, 0.4},
        std::tuple{24, 2, 0.45}, std::tuple{31, 2, 0.42},
        std::tuple{40, 2, 0.45}, std::tuple{45, 3, 0.44}}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      out.push_back({"evolved n=" + std::to_string(n) +
                         " seed=" + std::to_string(seed),
                     n, evolved_field(n, w, tau, seed)});
    }
  }
  for (const int n : {3, 4, 9, 10, 33}) {
    const std::size_t total = static_cast<std::size_t>(n) * n;
    out.push_back({"uniform n=" + std::to_string(n), n, Spins(total, -1)});
    Spins single(total, 1);
    single[static_cast<std::size_t>(n / 2) * n + n / 3] = -1;
    out.push_back({"single minority n=" + std::to_string(n), n, single});
    Spins columns(total), rows(total);
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        columns[static_cast<std::size_t>(y) * n + x] = x < n / 2 ? 1 : -1;
        rows[static_cast<std::size_t>(y) * n + x] = y < n / 2 ? 1 : -1;
      }
    }
    out.push_back({"column halves n=" + std::to_string(n), n, columns});
    out.push_back({"row halves n=" + std::to_string(n), n, rows});
  }
  return out;
}

// Every site's size against the scan, and the sampled mean bitwise
// against the scan mean drawn from the same seed, leaving the stream in
// the same state.
void expect_cover_matches_scan(const RegionField& field,
                               const std::string& name) {
  const int n = field.n;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      ASSERT_EQ(region_size_of(field, {x, y}), scan_size(field.radius, n, {x, y}))
          << name << " at (" << x << "," << y << ")";
    }
  }
  for (const std::size_t samples : {1u, 16u, 61u}) {
    Rng a(samples * 7 + n), b(samples * 7 + n);
    EXPECT_EQ(mean_region_size(field, samples, a),
              scan_mean(field.radius, n, samples, b))
        << name << " samples=" << samples;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << name;
  }
}

TEST(RegionDifferential, ChessboardSweepsMatchNaiveAcrossSeams) {
  // Sparse sources put most geodesics across a torus seam, where the
  // raster sweeps must revisit rows and columns. Every single-source
  // position is tried on the small grids, alone and beside a full source
  // row, which stops the revisiting of rows after the first.
  const auto naive = [](const std::vector<std::uint8_t>& sources, int n) {
    Field dist(sources.size(), -1);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (!sources[s]) continue;
        const int d = torus_linf(
            Point{static_cast<int>(i % n), static_cast<int>(i / n)},
            Point{static_cast<int>(s % n), static_cast<int>(s / n)}, n);
        dist[i] = dist[i] < 0 ? d : std::min(dist[i], d);
      }
    }
    return dist;
  };
  for (int n = 1; n <= 10; ++n) {
    const std::size_t total = static_cast<std::size_t>(n) * n;
    for (std::size_t s = 0; s < total; ++s) {
      std::vector<std::uint8_t> sources(total, 0);
      sources[s] = 1;
      ASSERT_EQ(chessboard_distance_torus(sources, n), naive(sources, n))
          << "n=" << n << " source=" << s;
      std::fill_n(sources.begin(), n, 1);
      ASSERT_EQ(chessboard_distance_torus(sources, n), naive(sources, n))
          << "n=" << n << " source=" << s << " beside row 0";
    }
  }
  for (const int n : {9, 16, 23, 40}) {
    for (const double density : {0.003, 0.02, 0.15, 0.6}) {
      Rng rng(static_cast<std::uint64_t>(n * 1000 + density * 1000));
      std::vector<std::uint8_t> sources(static_cast<std::size_t>(n) * n);
      for (auto& src : sources) src = rng.bernoulli(density) ? 1 : 0;
      EXPECT_EQ(chessboard_distance_torus(sources, n), naive(sources, n))
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(RegionDifferential, RadiusMatchesTwoBfsTransform) {
  for (const Case& c : cases()) {
    EXPECT_EQ(mono_ball_radius(c.spins, c.n), two_bfs_radius(c.spins, c.n))
        << c.name;
  }
}

TEST(RegionDifferential, RadiusMatchesBruteForceOnSmallGrids) {
  for (const Case& c : cases()) {
    if (c.n > 16) continue;
    const Field radius = mono_ball_radius(c.spins, c.n);
    for (int y = 0; y < c.n; ++y) {
      for (int x = 0; x < c.n; ++x) {
        ASSERT_EQ(radius[static_cast<std::size_t>(y) * c.n + x],
                  brute_mono_radius(c.spins, c.n, x, y))
            << c.name << " at (" << x << "," << y << ")";
      }
    }
  }
}

TEST(RegionDifferential, MonoCoverMatchesScanEverywhere) {
  for (const Case& c : cases()) {
    const MonoRegionField field = mono_region_field(c.spins, c.n);
    expect_cover_matches_scan(field, c.name);
    Rng a(11), b(11);
    EXPECT_EQ(mean_mono_region_size(field, 16, a),
              scan_mean(field.radius, c.n, 16, b))
        << c.name;
  }
}

// The paper's thresholds e^{-eps N} at eps = 0.1 and N = (2w+1)^2 for
// w = 1..5: the largest allowance runs from about 0.29 of a ball at w = 1
// down to none at w = 5, where M' is M.
std::vector<double> paper_thresholds() {
  std::vector<double> out;
  for (int w = 1; w <= 5; ++w) {
    out.push_back(almost_mono_threshold(0.1, (2 * w + 1) * (2 * w + 1)));
  }
  return out;
}

// Every center's radius against direct counting, and the mono-fed field's
// radius, top and per-site sizes against the standalone field's.
void expect_almost_matches(const Spins& spins, int n, double threshold,
                           int max_radius, const std::string& name) {
  const AlmostMonoField field =
      almost_mono_field(spins, n, threshold, max_radius);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      ASSERT_EQ(field.radius[static_cast<std::size_t>(y) * n + x],
                brute_almost_radius(spins, n, x, y, threshold, max_radius))
          << name << " threshold=" << threshold
          << " max_radius=" << max_radius << " at (" << x << "," << y << ")";
    }
  }
  const AlmostMonoField fed = almost_mono_field(
      spins, mono_region_field(spins, n), threshold, max_radius);
  EXPECT_EQ(fed.n, n) << name;
  EXPECT_EQ(fed.ratio_threshold, field.ratio_threshold) << name;
  EXPECT_EQ(fed.radius, field.radius)
      << name << " threshold=" << threshold << " max_radius=" << max_radius;
  EXPECT_EQ(fed.top, field.top) << name;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      ASSERT_EQ(almost_region_size_of(fed, {x, y}),
                almost_region_size_of(field, {x, y}))
          << name << " threshold=" << threshold
          << " max_radius=" << max_radius << " at (" << x << "," << y << ")";
    }
  }
}

TEST(RegionDifferential, AlmostRadiusMatchesDirectCount) {
  // 1/8 and 2/23 are exact minority ratios of radius-1 and radius-2 balls,
  // where the ratio test's equality case decides. Zero allows no minority;
  // a negative threshold fails even monochromatic balls.
  std::vector<double> thresholds = {1.0 / 8, 2.0 / 23, 0.05, 0.3, 1.0, 0.0,
                                    -0.1};
  for (const double t : paper_thresholds()) thresholds.push_back(t);
  for (const Case& c : cases()) {
    if (c.n > 16) continue;
    for (const double threshold : thresholds) {
      expect_almost_matches(c.spins, c.n, threshold, 0, c.name);
    }
  }
}

TEST(RegionDifferential, AlmostRadiusHonoursExplicitMaxRadius) {
  // Caps below most mono radii (1, 2), inside their range, at the largest
  // proper ball and past it (clamped to (n-1)/2).
  for (const Case& c : cases()) {
    if (c.n > 16) continue;
    for (const int max_radius : {1, 2, c.n / 4, (c.n - 1) / 2, c.n + 3}) {
      for (const double threshold : {0.05, 0.3, paper_thresholds()[1]}) {
        expect_almost_matches(c.spins, c.n, threshold, max_radius, c.name);
      }
    }
  }
}

TEST(RegionDifferential, AlmostRadiusMatchesDirectCountOnSegregatedFields) {
  // Glauber-evolved fields at the sides where whole segregated regions,
  // and so long scans past the mono radius, appear.
  for (const auto& [n, w, tau] :
       {std::tuple{31, 1, 0.45}, std::tuple{31, 2, 0.42},
        std::tuple{40, 2, 0.45}, std::tuple{40, 3, 0.44}}) {
    const Spins spins = evolved_field(n, w, tau, 5);
    const std::string name = "evolved n=" + std::to_string(n) +
                             " w=" + std::to_string(w);
    for (const double threshold : paper_thresholds()) {
      expect_almost_matches(spins, n, threshold, 0, name);
    }
    for (const int max_radius : {3, n / 3}) {
      expect_almost_matches(spins, n, paper_thresholds()[0], max_radius,
                            name);
    }
  }
}

TEST(RegionDifferential, AlmostCoverMatchesScanEverywhere) {
  for (const Case& c : cases()) {
    for (const double threshold : {0.05, 0.3}) {
      const AlmostMonoField field = almost_mono_field(c.spins, c.n, threshold);
      expect_cover_matches_scan(field, c.name);
      Rng a(12), b(12);
      EXPECT_EQ(mean_almost_region_size(field, 16, a),
                scan_mean(field.radius, c.n, 16, b))
          << c.name;
    }
  }
}

TEST(RegionDifferential, CoverExactForArbitraryRadiusFields) {
  // The tile-pruned query is exact for any radius field, not only
  // distance transforms: random radii, near-uniform plateaus, and radii
  // past the (n-1)/2 cap (whose balls wrap the whole torus), on one tile
  // and on several with a cut-short last tile.
  for (const int n : {3, 4, 7, 8, 15, 24, 33}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const std::int32_t cap = (n - 1) / 2;
    for (int trial = 0; trial < 6; ++trial) {
      RegionField field;
      field.n = n;
      field.radius.resize(static_cast<std::size_t>(n) * n);
      for (auto& r : field.radius) {
        switch (trial % 3) {
          case 0:
            r = static_cast<std::int32_t>(rng.uniform_below(cap + 1));
            break;
          case 1:
            r = cap - static_cast<std::int32_t>(rng.bernoulli(0.1));
            break;
          default:
            r = static_cast<std::int32_t>(rng.uniform_below(n + 1));
            break;
        }
      }
      index_region_field(field);
      expect_cover_matches_scan(field, "n=" + std::to_string(n) +
                                           " trial=" + std::to_string(trial));
    }
  }
}

TEST(RegionDifferential, UniformFieldIsItsOwnCover) {
  for (const int n : {3, 4, 64}) {
    RegionField field;
    field.n = n;
    field.radius.assign(static_cast<std::size_t>(n) * n, (n - 1) / 2);
    index_region_field(field);
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        ASSERT_EQ(region_size_of(field, {x, y}), ball_size((n - 1) / 2))
            << "n=" << n << " at (" << x << "," << y << ")";
      }
    }
  }
}

// The grid-wide largest balls against ball_size of the largest radius
// found by direct enumeration, on every case: a stale top shows here.
TEST(RegionDifferential, LargestRegionMatchesBruteMaximum) {
  for (const Case& c : cases()) {
    const int n = c.n;
    const MonoRegionField mono = mono_region_field(c.spins, n);
    std::int32_t mono_top = 0;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        mono_top = std::max(mono_top, brute_mono_radius(c.spins, n, x, y));
      }
    }
    EXPECT_EQ(largest_mono_region(mono), ball_size(mono_top)) << c.name;
    for (const double threshold : {0.05, 0.3}) {
      std::int32_t almost_top = 0;
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          almost_top = std::max(
              almost_top, brute_almost_radius(c.spins, n, x, y, threshold));
        }
      }
      EXPECT_EQ(largest_almost_region(almost_mono_field(c.spins, mono,
                                                        threshold)),
                ball_size(almost_top))
          << c.name << " threshold=" << threshold;
    }
  }
}

}  // namespace
}  // namespace seg

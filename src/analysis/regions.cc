#include "analysis/regions.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>

#include "core/model.h"
#include "grid/distance_transform.h"

namespace seg {
namespace {

// Side of the square tiles of RegionField::tiles.
constexpr int kRegionTile = 8;

// Per-query scratch: the torus distance from u along each axis, per site
// and per tile (the least over the tile's sites).
struct Query {
  std::vector<std::int32_t> dist_x, dist_y, tile_dx, tile_dy;
};

void axis_distances(int at, int n, std::vector<std::int32_t>& dist,
                    std::vector<std::int32_t>& tile) {
  dist.resize(n);
  tile.resize((n + kRegionTile - 1) / kRegionTile);
  for (int c = 0; c < n; ++c) {
    const int d = std::abs(c - at);
    dist[c] = std::min(d, n - d);
  }
  for (int t = 0, c0 = 0; c0 < n; ++t, c0 += kRegionTile) {
    const int c1 = std::min(c0 + kRegionTile, n) - 1;
    tile[t] = at >= c0 && at <= c1 ? 0 : std::min(dist[c0], dist[c1]);
  }
}

// cover(u): the largest radius(c) over the centers c whose ball contains
// u, i.e. with max(dist_x, dist_y) <= radius(c). A tile can hold such a
// center only if its top reaches the tile's nearest site to u, and can
// raise the answer only if its top exceeds the best so far; tiles come by
// descending top, so the scan ends at the first that does not.
std::int32_t cover_at(const RegionField& field, Point u, Query& q) {
  const int n = field.n;
  const std::int32_t* radius = field.radius.data();
  std::int32_t best = radius[static_cast<std::size_t>(u.y) * n + u.x];
  if (best == field.top) return best;
  axis_distances(u.x, n, q.dist_x, q.tile_dx);
  axis_distances(u.y, n, q.dist_y, q.tile_dy);
  const std::int32_t* dist_x = q.dist_x.data();
  for (const RegionTile& tile : field.tiles) {
    if (tile.top <= best) break;
    if (tile.top < std::max(q.tile_dx[tile.x], q.tile_dy[tile.y])) continue;
    const int x0 = tile.x * kRegionTile, x1 = std::min(x0 + kRegionTile, n);
    const int y0 = tile.y * kRegionTile, y1 = std::min(y0 + kRegionTile, n);
    // Branch-free, so each row's loop vectorizes.
    std::int32_t m = best;
    for (int y = y0; y < y1; ++y) {
      const std::int32_t dy = q.dist_y[y];
      const std::int32_t* row = radius + static_cast<std::size_t>(y) * n;
      for (int x = x0; x < x1; ++x) {
        const std::int32_t d = std::max(dy, dist_x[x]);
        m = std::max(m, row[x] >= d ? row[x] : 0);
      }
    }
    best = m;
  }
  return best;
}

}  // namespace

void index_region_field(RegionField& field) {
  const int n = field.n;
  assert(n > 0 && field.radius.size() == static_cast<std::size_t>(n) * n);
  assert(std::all_of(field.radius.begin(), field.radius.end(),
                     [](std::int32_t r) { return r >= 0 && r <= INT16_MAX; }));
  const int count = (n + kRegionTile - 1) / kRegionTile;
  // Each tile row's column-wise maxima, then each tile's. The band holds
  // them as 16-bit values, whose max SSE2 vectorizes and 32-bit max not.
  std::vector<std::int32_t> tops(static_cast<std::size_t>(count) * count);
  std::vector<std::int16_t> band(n);
  field.top = 0;
  for (int ty = 0; ty < count; ++ty) {
    const int y0 = ty * kRegionTile, y1 = std::min(y0 + kRegionTile, n);
    std::fill(band.begin(), band.end(), std::int16_t{0});
    for (int y = y0; y < y1; ++y) {
      const std::int32_t* row =
          field.radius.data() + static_cast<std::size_t>(y) * n;
      for (int x = 0; x < n; ++x) {
        band[x] = std::max(band[x], static_cast<std::int16_t>(row[x]));
      }
    }
    for (int tx = 0; tx < count; ++tx) {
      const int x0 = tx * kRegionTile, x1 = std::min(x0 + kRegionTile, n);
      const std::int32_t top =
          *std::max_element(band.begin() + x0, band.begin() + x1);
      tops[static_cast<std::size_t>(ty) * count + tx] = top;
      field.top = std::max(field.top, top);
    }
  }
  // Counting sort by descending top.
  std::vector<std::size_t> start(static_cast<std::size_t>(field.top) + 2, 0);
  for (const std::int32_t t : tops) ++start[field.top - t + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  field.tiles.resize(tops.size());
  for (std::size_t i = 0; i < tops.size(); ++i) {
    field.tiles[start[field.top - tops[i]]++] = {
        tops[i], static_cast<std::int32_t>(i % count),
        static_cast<std::int32_t>(i / count)};
  }
}

std::int64_t region_size_of(const RegionField& field, Point u) {
  assert(field.radius.size() == static_cast<std::size_t>(field.n) * field.n);
  Query q;
  return ball_size(cover_at(field, u, q));
}

double mean_region_size(const RegionField& field, std::size_t samples,
                        Rng& rng) {
  assert(samples > 0);
  const int n = field.n;
  const auto total = static_cast<std::uint64_t>(n) * n;
  assert(field.radius.size() == total);
  Query q;
  double sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t id = rng.uniform_below(total);
    sum += static_cast<double>(ball_size(cover_at(
        field, Point{static_cast<int>(id % n), static_cast<int>(id / n)},
        q)));
  }
  return sum / static_cast<double>(samples);
}

std::int64_t largest_region(const RegionField& field) {
  return ball_size(field.top);
}

MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n) {
  MonoRegionField field;
  field.n = n;
  field.radius = mono_ball_radius(spins, n);
  index_region_field(field);
  return field;
}

MonoRegionField mono_region_field(const SchellingModel& model) {
  return mono_region_field(model.spins(), model.side());
}

}  // namespace seg

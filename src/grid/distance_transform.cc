#include "grid/distance_transform.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "grid/point.h"

namespace seg {
namespace {

// One sequential raster sweep: rows top to bottom, columns left to right,
// each site relaxed against its up-left, up, up-right and left neighbors
// (distance + 1). A sweep cannot look across the torus seam it travels
// toward, so the first columns of a row are revisited from its last
// column, and the first rows from the last row, for as long as a value
// still drops. On return every site satisfies all four relaxations, which
// is what makes the forward-then-backward pair exact.
void forward_sweep(std::vector<std::int32_t>& dist, int n,
                   std::vector<std::int32_t>& above) {
  const auto relax_row = [&](int y) {
    std::int32_t* row = dist.data() + static_cast<std::size_t>(y) * n;
    const std::int32_t* up =
        dist.data() + static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * n;
    std::int32_t changed = 0;
    const auto relax = [&](int x, std::int32_t neighbor) {
      const std::int32_t d = std::min(row[x], neighbor + 1);
      changed |= d ^ row[x];
      row[x] = d;
    };
    ring_triples(up, above.data(), n, [](std::int32_t a, std::int32_t b,
                                         std::int32_t c) {
      return std::min({a, b, c});
    });
    for (int x = 0; x < n; ++x) relax(x, above[x]);
    std::int32_t left = row[n - 1];
    for (int x = 0; x < n; ++x) {
      relax(x, left);
      left = row[x];
    }
    // Carry the last column across the seam into the first ones.
    for (int x = 0; x < n && left + 1 < row[x]; ++x) {
      relax(x, left);
      left = row[x];
    }
    return changed != 0;
  };
  for (int y = 0; y < n; ++y) relax_row(y);
  // The first rows read the last row before it was final.
  for (int y = 0; relax_row(y); y = y + 1 == n ? 0 : y + 1) {
  }
}

// Relaxes dist (0 at the sources, an upper bound elsewhere) to the exact
// chessboard distance, capped by those bounds: a forward sweep, then the
// backward one as a forward sweep of the grid rotated by 180 degrees.
void chessboard_sweeps(std::vector<std::int32_t>& dist, int n) {
  std::vector<std::int32_t> above(n);
  forward_sweep(dist, n, above);
  std::reverse(dist.begin(), dist.end());
  forward_sweep(dist, n, above);
  std::reverse(dist.begin(), dist.end());
}

}  // namespace

std::vector<std::int32_t> chessboard_distance_torus(
    const std::vector<std::uint8_t>& sources, int n) {
  assert(n > 0);
  const std::size_t total = static_cast<std::size_t>(n) * n;
  assert(sources.size() == total);
  if (std::none_of(sources.begin(), sources.end(),
                   [](std::uint8_t s) { return s != 0; })) {
    return std::vector<std::int32_t>(total, -1);
  }
  // Torus distances are at most n/2, so n stands in for infinity.
  std::vector<std::int32_t> dist(total);
  for (std::size_t i = 0; i < total; ++i) dist[i] = sources[i] ? 0 : n;
  chessboard_sweeps(dist, n);
  return dist;
}

std::vector<std::int32_t> mono_ball_radius(const std::vector<std::int8_t>& spins,
                                           int n) {
  assert(n > 0);
  const std::size_t total = static_cast<std::size_t>(n) * n;
  assert(spins.size() == total);

  // Plus-site count of each row triple, then of each 3x3 block: a site is
  // in B exactly when its block holds both types.
  std::vector<std::uint8_t> triple(total);
  for (int y = 0; y < n; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * n;
    ring_triples(spins.data() + row, triple.data() + row, n,
                 [](std::int8_t a, std::int8_t b, std::int8_t c) {
                   return static_cast<std::uint8_t>((a > 0) + (b > 0) +
                                                    (c > 0));
                 });
  }
  // B is seeded at 0 and every other site at the cap, so the transform
  // yields min((n-1)/2, dist(c, B)) directly; with no B (a monochromatic
  // grid) every ball qualifies up to the cap.
  const std::int32_t max_radius = (n - 1) / 2;
  std::vector<std::int32_t> radius(total);
  std::int32_t boundary_sites = 0;
  for (int y = 0; y < n; ++y) {
    const std::uint8_t* up =
        triple.data() + static_cast<std::size_t>(y == 0 ? n - 1 : y - 1) * n;
    const std::uint8_t* mid = triple.data() + static_cast<std::size_t>(y) * n;
    const std::uint8_t* down =
        triple.data() + static_cast<std::size_t>(y + 1 == n ? 0 : y + 1) * n;
    std::int32_t* r = radius.data() + static_cast<std::size_t>(y) * n;
    for (int x = 0; x < n; ++x) {
      const std::int32_t plus = up[x] + mid[x] + down[x];
      const std::int32_t boundary = (plus != 0) & (plus != 9);
      r[x] = boundary ? 0 : max_radius;
      boundary_sites += boundary;
    }
  }
  if (boundary_sites > 0) chessboard_sweeps(radius, n);
  return radius;
}

}  // namespace seg

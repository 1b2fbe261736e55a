// Monochromatic-region measurement (paper Sec. II-A "Segregation" and the
// quantity M of Theorems 1-2).
//
// The monochromatic region of an agent u is the largest-radius
// l-infinity ball (neighborhood) of single-type agents that contains u;
// M is its size (agent count). Per final configuration we compute
// radius(c) for every center c (one distance transform, O(n^2)) and the
// largest radius of the field and of each 8 x 8 tile of centers (one more
// O(n^2) pass). M(u) = ball_size(cover(u)), where cover(u) is the largest
// radius(c) over the centers c whose ball contains u, is then read only
// at the sampled agents, by a scan of the few tiles that can raise it;
// the grid-wide largest monochromatic ball is ball_size(top). The
// almost-monochromatic measurement (analysis/almost.h) shares the query,
// sampling and maximum; only its radius field differs.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "rng/rng.h"

namespace seg {

class SchellingModel;

// An 8 x 8 block of centers (cut short at the last tile row and column)
// and its largest radius.
struct RegionTile {
  std::int32_t top;
  std::int32_t x, y;  // tile column and row
};

// A per-center radius field on the n x n torus, with its largest radius
// overall and per tile. Whoever fills radius calls index_region_field.
struct RegionField {
  int n = 0;
  // Per-center radius, in [0, 2^15), of the largest qualifying ball
  // centered there.
  std::vector<std::int32_t> radius;
  // The largest entry of radius.
  std::int32_t top = 0;
  // Every tile, by descending top.
  std::vector<RegionTile> tiles;
};

// Sets top and tiles from field.n and field.radius.
void index_region_field(RegionField& field);

struct MonoRegionField : RegionField {};

// Size (agent count) of a ball of radius r.
inline std::int64_t ball_size(std::int32_t r) {
  const std::int64_t side = 2 * static_cast<std::int64_t>(r) + 1;
  return side * side;
}

// Size of the largest qualifying ball containing the agent at u, exact
// for any radius field: ball_size of the largest radius(c) over the
// centers c with torus-L-inf(u, c) <= radius(c). Returns at once when
// radius(u) == top; otherwise scans, by descending top, the tiles whose
// top reaches u and exceeds the best radius found so far.
std::int64_t region_size_of(const RegionField& field, Point u);

// Mean region size over `samples` agents drawn uniformly, one
// rng.uniform_below(n * n) draw each, in order. Deterministic given rng.
double mean_region_size(const RegionField& field, std::size_t samples,
                        Rng& rng);

// Largest qualifying ball size anywhere on the grid.
std::int64_t largest_region(const RegionField& field);

// One distance transform over the spin field, indexed for the query.
MonoRegionField mono_region_field(const std::vector<std::int8_t>& spins,
                                  int n);

// Convenience overload on a model's current spins.
MonoRegionField mono_region_field(const SchellingModel& model);

// M(u): size of the largest monochromatic ball containing the agent at u.
inline std::int64_t mono_region_size_of(const MonoRegionField& field,
                                        Point u) {
  return region_size_of(field, u);
}

// Mean of M(u) over `samples` agents drawn uniformly (the estimator for
// E[M] of an arbitrary agent).
inline double mean_mono_region_size(const MonoRegionField& field,
                                    std::size_t samples, Rng& rng) {
  return mean_region_size(field, samples, rng);
}

// Largest monochromatic ball size anywhere on the grid.
inline std::int64_t largest_mono_region(const MonoRegionField& field) {
  return largest_region(field);
}

}  // namespace seg

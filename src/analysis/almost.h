// Almost-monochromatic region measurement (paper Sec. II-A and the
// quantity M' of Theorem 2): the largest-radius ball containing u in which
// the ratio (minority count / majority count) is at most e^{-eps N},
// where N is the neighborhood size of the dynamics.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/regions.h"

namespace seg {

class SchellingModel;

// radius: per-center radius of the largest almost-monochromatic ball
// centered there (the radius-0 ball always passes: a single agent has
// minority ratio 0); M'(u) is read from it by the query of regions.h.
struct AlmostMonoField : RegionField {
  double ratio_threshold = 0.0;
};

// Computes the per-center almost-monochromatic radii, indexed for the
// region query.
// max_radius (R) bounds the search; it defaults to the largest proper
// ball, (n-1)/2, when <= 0. The cost is output-sensitive rather than
// O(n^2 * R): an O((n + 2R)^2) summed-area table, then O(1) box sums for
// short runs of row neighbours, from one past their smallest
// monochromatic radius until each of their minority counts exceeds the
// largest count R's ball may hold. With no minority allowed at R (the
// paper's eps = 0.1 at w >= 5) the table is skipped and the field is the
// monochromatic radius clamped to R.
AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius = 0);

// The same field, with the monochromatic radii read from `mono` (the mono
// field of the same spins) instead of recomputed.
AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  const MonoRegionField& mono,
                                  double ratio_threshold, int max_radius = 0);

// Paper's threshold e^{-eps N} for the given dynamics neighborhood size.
double almost_mono_threshold(double eps, int neighborhood_size);

// M'(u): size of the largest almost-monochromatic ball containing u.
inline std::int64_t almost_region_size_of(const AlmostMonoField& field,
                                          Point u) {
  return region_size_of(field, u);
}

// Mean of M'(u) over uniformly sampled agents (estimator for E[M']).
inline double mean_almost_region_size(const AlmostMonoField& field,
                                      std::size_t samples, Rng& rng) {
  return mean_region_size(field, samples, rng);
}

inline std::int64_t largest_almost_region(const AlmostMonoField& field) {
  return largest_region(field);
}

// Convenience overload binding threshold = e^{-eps N(model)}.
AlmostMonoField almost_mono_field(const SchellingModel& model, double eps,
                                  int max_radius = 0);

}  // namespace seg

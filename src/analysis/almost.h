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
// minority ratio 0); cover: its covering-radius field.
struct AlmostMonoField : RegionField {
  double ratio_threshold = 0.0;
};

// Computes the per-center almost-monochromatic radii and their cover.
// max_radius bounds the search (and the cost, O(n^2 * max_radius)); it
// defaults to the largest proper ball, (n-1)/2, when <= 0.
AlmostMonoField almost_mono_field(const std::vector<std::int8_t>& spins,
                                  int n, double ratio_threshold,
                                  int max_radius = 0);

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

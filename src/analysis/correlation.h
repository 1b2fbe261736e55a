// Two-point spin correlations and the segregation length scale.
//
// C(r) = <s(x) s(x + r e)> - <s>^2 averaged over sites and over the four
// lattice directions (two axes, two diagonals with l-infinity norm r).
// After the process terminates, C decays on the scale of the segregated
// regions; the correlation length (first crossing of C(0)/e) is a
// resolution-independent companion to the region-size metrics of
// Theorems 1-2.
#pragma once

#include <cstdint>
#include <vector>

namespace seg {

// C(r) for r = 0..max_r on the torus (spins +1/-1). O(n^2 max_r).
std::vector<double> pair_correlation(const std::vector<std::int8_t>& spins,
                                     int n, int max_r);

// First r (linearly interpolated) where C(r) drops below C(0)/e; returns
// max_r if it never does. C must be a pair_correlation() output.
double correlation_length(const std::vector<double>& c);

// Time autocovariance of an integer series (e.g. per-sweep
// magnetization):
//
//   gamma(l) = (1/(T-l)) * sum_{t=l}^{T-1} (x[t] - mean)(x[t-l] - mean)
//
// with `mean` over the whole series. Returned for l = 0..max_lag; lags
// with T - l <= 0 report 0. This is the batch reference for the
// streaming ring-buffer tracker (analysis/streaming.h): both evaluate the
// same closed form over exact int64 sums, so they agree bitwise.
std::vector<double> autocovariance(const std::vector<std::int64_t>& series,
                                   std::size_t max_lag);

}  // namespace seg

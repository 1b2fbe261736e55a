// Model parameters for the Schelling / zero-temperature Ising-Glauber
// process of the paper (Sec. II-A).
//
// An n x n grid on a torus; every site holds an agent of type +1 or -1,
// drawn i.i.d. with P(+1) = p. The neighborhood of an agent is the
// l-infinity ball of radius w ("horizon"), of size N = (2w+1)^2 including
// the agent itself. An agent is happy iff the fraction of same-type agents
// in its neighborhood is at least the intolerance tau; the integer
// happiness threshold is K = ceil(tau N) same-type agents.
//
// The asymmetric variant of Barmpalias-Elwes-Lewis-Pye [26] gives each
// type its own intolerance: set tau_minus >= 0 to let (-1) agents use a
// different threshold than (+1) agents (tau_minus < 0, the default, means
// both types share `tau`).
#pragma once

#include <cassert>
#include <cstdint>

#include "lattice/membership.h"
#include "theory/bounds.h"

namespace seg {

// The neighborhood geometry. The paper uses the extended Moore
// neighborhood (l-infinity ball, size (2w+1)^2); the von Neumann variant
// (l1 ball / diamond, size 2w(w+1)+1) is provided as an ablation of that
// modeling choice.
enum class NeighborhoodShape { kMoore, kVonNeumann };

// Sites in the radius-w window, self included; 64-bit so that validation
// can test any int w without overflow.
inline std::int64_t window_site_count(NeighborhoodShape shape, int w) {
  const std::int64_t r = w;
  return shape == NeighborhoodShape::kMoore ? (2 * r + 1) * (2 * r + 1)
                                            : 2 * r * (r + 1) + 1;
}

struct ModelParams {
  int n = 64;         // grid side
  int w = 2;          // horizon (neighborhood radius)
  double tau = 0.45;  // intolerance threshold in [0, 1] (type +1, and
                      // type -1 unless tau_minus is set)
  double p = 0.5;     // initial Bernoulli parameter for type +1
  double tau_minus = -1.0;  // optional separate intolerance for type -1
  NeighborhoodShape shape = NeighborhoodShape::kMoore;

  int neighborhood_size() const {
    return static_cast<int>(window_site_count(shape, w));
  }

  double tau_of(int type) const {
    return (type < 0 && tau_minus >= 0.0) ? tau_minus : tau;
  }

  // Happiness threshold for the given agent type (+1 or -1).
  int happy_threshold_of(int type) const {
    return happiness_threshold(tau_of(type), neighborhood_size());
  }

  // Symmetric-model convenience (both types share tau).
  int happy_threshold() const {
    return happiness_threshold(tau, neighborhood_size());
  }

  bool symmetric() const { return tau_minus < 0.0 || tau_minus == tau; }

  // Also refuses windows over kMaxNeighborhoodSize sites (w > 90 on the
  // Moore stencil).
  bool valid() const {
    return n > 0 && w >= 1 && 2 * w + 1 <= n &&
           window_site_count(shape, w) <= kMaxNeighborhoodSize &&
           tau >= 0.0 && tau <= 1.0 && p >= 0.0 && p <= 1.0 &&
           (tau_minus < 0.0 || tau_minus <= 1.0);
  }
};

}  // namespace seg

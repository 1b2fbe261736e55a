// Exact chessboard (l-infinity) distance transform on the torus: the
// two-pass sequential transform of Rosenfeld & Pfaltz ("Sequential
// operations in digital picture processing", JACM 1966) — one forward and
// one backward raster sweep — with the rows and columns that a sweep
// reaches across the torus seam revisited until they settle.
//
// The monochromatic region of an agent u (paper, Sec. II-A "Segregation")
// is the largest-radius l-infinity ball of a single type containing u.
// The largest monochromatic ball *centered* at c has radius
// dist(c, nearest opposite-type site) - 1, so one distance transform per
// final configuration yields every center's radius in O(n^2).
#pragma once

#include <cstdint>
#include <vector>

namespace seg {

// sources: n*n bytes, nonzero marks a source site. Returns per-site
// chessboard distance to the nearest source (0 at sources). If there are
// no sources every distance is -1.
std::vector<std::int32_t> chessboard_distance_torus(
    const std::vector<std::uint8_t>& sources, int n);

// Per-center radius of the largest monochromatic l-infinity ball:
// radius(c) = chessboard distance from c to the nearest site whose spin
// differs from spin(c), minus 1. If the whole grid is monochromatic the
// radius is reported as floor((n-1)/2) (the largest ball that is still a
// neighborhood, i.e. visits no site twice), and every radius is capped
// there.
//
// Computed as one transform: with B the sites that have an opposite-type
// 8-neighbor, radius(c) = min((n-1)/2, dist(c, B)), because the last
// same-type site on a geodesic from c to its nearest opposite site lies
// in B.
std::vector<std::int32_t> mono_ball_radius(const std::vector<std::int8_t>& spins,
                                           int n);

}  // namespace seg

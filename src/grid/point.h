// Coordinate algebra on the n x n torus T = [0,n) x [0,n).
// All arithmetic over coordinates is modulo n, as in the paper (Sec. II-A).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>

namespace seg {

struct Point {
  int x = 0;
  int y = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

// Wraps a possibly-negative coordinate into [0, n).
inline int torus_wrap(int v, int n) {
  assert(n > 0);
  v %= n;
  return v < 0 ? v + n : v;
}

// Signed displacement from a to b along one axis, in (-n/2, n/2].
inline int torus_delta(int a, int b, int n) {
  int d = torus_wrap(b - a, n);
  if (d > n / 2) d -= n;
  return d;
}

// l-infinity (chessboard) distance on the torus.
inline int torus_linf(Point a, Point b, int n) {
  const int dx = std::abs(torus_delta(a.x, b.x, n));
  const int dy = std::abs(torus_delta(a.y, b.y, n));
  return dx > dy ? dx : dy;
}

// l1 (Manhattan) distance on the torus.
inline int torus_l1(Point a, Point b, int n) {
  return std::abs(torus_delta(a.x, b.x, n)) +
         std::abs(torus_delta(a.y, b.y, n));
}

// Squared Euclidean distance on the torus (used by the annular firewall).
inline long long torus_l2_sq(Point a, Point b, int n) {
  const long long dx = torus_delta(a.x, b.x, n);
  const long long dy = torus_delta(a.y, b.y, n);
  return dx * dx + dy * dy;
}

// out[x] = f(in[x - 1], in[x], in[x + 1]) around a ring of n sites, with
// the two wrapped ends peeled off so the middle loop vectorizes.
template <typename In, typename Out, typename F>
inline void ring_triples(const In* in, Out* out, int n, F f) {
  out[0] = f(in[n - 1], in[0], in[n > 1 ? 1 : 0]);
  for (int x = 1; x + 1 < n; ++x) out[x] = f(in[x - 1], in[x], in[x + 1]);
  if (n > 1) out[n - 1] = f(in[n - 2], in[n - 1], in[0]);
}

}  // namespace seg

// A halo-padded snapshot of a torus field: the n x n interior plus a
// `halo`-wide wrapped border copied around it. Window scans of radius up
// to `halo` then read contiguous rows with no torus_wrap or modulo in the
// inner loop — the read-side counterpart of the span decomposition in
// window.h, used by the firewall scanners that probe every center of the
// grid against the same immutable field.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "lattice/bitfield.h"
#include "obs/trace.h"

namespace seg {

template <typename T>
class HaloField {
 public:
  // Snapshot of `torus` (row-major n x n) with the given halo width.
  // halo may be up to n; larger windows would revisit sites anyway.
  HaloField(const std::vector<T>& torus, int n, int halo)
      : n_(n), halo_(halo), stride_(n + 2 * halo) {
    assert(n > 0 && halo >= 0 && halo <= n);
    assert(torus.size() == static_cast<std::size_t>(n) * n);
    cells_.resize(static_cast<std::size_t>(stride_) * stride_);
    for (int py = 0; py < stride_; ++py) {
      const std::size_t src =
          static_cast<std::size_t>(torus_wrap(py - halo, n)) * n;
      T* dst = cells_.data() + static_cast<std::size_t>(py) * stride_;
      // Interior columns are a straight copy; the x halo wraps around.
      for (int px = 0; px < stride_; ++px) {
        dst[px] = torus[src + torus_wrap(px - halo, n)];
      }
    }
  }

  int side() const { return n_; }
  int halo() const { return halo_; }

  // Pointer to (0, y) of the logical torus row y; valid x offsets are
  // [-halo, n + halo). y itself may range over [-halo, n + halo).
  const T* row(int y) const {
    assert(y >= -halo_ && y < n_ + halo_);
    return cells_.data() +
           static_cast<std::size_t>(y + halo_) * stride_ + halo_;
  }

  T at(int x, int y) const {
    assert(x >= -halo_ && x < n_ + halo_);
    return row(y)[x];
  }

  // Calls fn(ptr, len) for each row segment of the radius-r window around
  // (cx, cy); the segments are contiguous and never cross the halo edge.
  // Requires r <= halo and (cx, cy) in the interior.
  template <typename Fn>
  void for_each_window_row(int cx, int cy, int r, Fn&& fn) const {
    assert(r <= halo_);
    assert(cx >= 0 && cx < n_ && cy >= 0 && cy < n_);
    for (int dy = -r; dy <= r; ++dy) {
      fn(row(cy + dy) + (cx - r), 2 * r + 1);
    }
  }

 private:
  int n_;
  int halo_;
  int stride_;
  std::vector<T> cells_;
};

// The packed counterpart of HaloField<int8_t>: a halo-padded snapshot of
// a BitField, one bit per site. Each padded row is built from the source
// row with three shifted word-copies OR'd together (west wrap, interior,
// east wrap) — no per-cell loop — and a window count is a handful of
// masked popcounts per row with no wrap arithmetic at all. Built by the
// firewall scanners that probe every center of the grid against the same
// immutable field.
class PackedHaloField {
 public:
  PackedHaloField(const BitField& bits, int halo)
      : n_(bits.side()),
        halo_(halo),
        stride_bits_(n_ + 2 * halo),
        words_per_row_((stride_bits_ + 63) / 64),
        words_(static_cast<std::size_t>(n_ + 2 * halo) * words_per_row_,
               0) {
    SEG_SPAN("lattice.packed_halo_rebuild");
    assert(halo >= 0 && halo <= n_);
    for (int py = 0; py < n_ + 2 * halo_; ++py) {
      const int y = torus_wrap(py - halo_, n_);
      std::uint64_t* dst =
          words_.data() + static_cast<std::size_t>(py) * words_per_row_;
      // Logical column px holds torus column (px - halo) mod n: the west
      // halo is the row's last `halo` bits, then the full row, then the
      // row's first `halo` bits again.
      if (halo_ > 0) or_row_bits(dst, 0, bits, y, n_ - halo_, halo_);
      or_row_bits(dst, halo_, bits, y, 0, n_);
      if (halo_ > 0) or_row_bits(dst, halo_ + n_, bits, y, 0, halo_);
    }
  }

  int side() const { return n_; }
  int halo() const { return halo_; }

  // Spin at logical torus coordinates; x and y may range over
  // [-halo, n + halo).
  std::int8_t spin(int x, int y) const {
    assert(x >= -halo_ && x < n_ + halo_ && y >= -halo_ && y < n_ + halo_);
    const std::uint64_t* row =
        words_.data() +
        static_cast<std::size_t>(y + halo_) * words_per_row_;
    const int bit = x + halo_;
    return ((row[bit >> 6] >> (bit & 63)) & 1u) != 0 ? 1 : -1;
  }

  // +1 count of the radius-r window around interior center (cx, cy);
  // requires r <= halo. Pure masked popcounts, no wrapping.
  std::int32_t count_window(int cx, int cy, int r) const {
    assert(r <= halo_);
    assert(cx >= 0 && cx < n_ && cy >= 0 && cy < n_);
    const int a = cx - r + halo_;
    const int b = a + 2 * r + 1;  // exclusive bit bound
    std::int32_t total = 0;
    for (int dy = -r; dy <= r; ++dy) {
      const std::uint64_t* row =
          words_.data() +
          static_cast<std::size_t>(cy + dy + halo_) * words_per_row_;
      total += count_bits(row, a, b);
    }
    return total;
  }

 private:
  // OR `len` bits of torus row y starting at column sx into dst at bit
  // position `pos`. Word-at-a-time: shift each covered source word into
  // place (at most two destination words per source word).
  static void or_row_bits(std::uint64_t* dst, int pos, const BitField& bits,
                          int y, int sx, int len) {
    const std::uint64_t* src = bits.row_words(y);
    int s = sx;
    int p = pos;
    int remaining = len;
    while (remaining > 0) {
      const int off = s & 63;
      const int take = std::min(remaining, 64 - off);
      std::uint64_t w = src[s >> 6] >> off;
      if (take < 64) w &= (1ull << take) - 1;
      dst[p >> 6] |= w << (p & 63);
      if ((p & 63) + take > 64) {
        dst[(p >> 6) + 1] |= w >> (64 - (p & 63));
      }
      s += take;
      p += take;
      remaining -= take;
    }
  }

  // Popcount of row bits [a, b); 0 <= a < b <= stride_bits_.
  std::int32_t count_bits(const std::uint64_t* row, int a, int b) const {
    const int wa = a >> 6;
    const int wb = (b - 1) >> 6;
    const std::uint64_t head = ~0ull << (a & 63);
    const std::uint64_t tail = ~0ull >> (63 - ((b - 1) & 63));
    if (wa == wb) return popcount64(row[wa] & head & tail);
    std::int32_t c = popcount64(row[wa] & head);
    for (int wi = wa + 1; wi < wb; ++wi) c += popcount64(row[wi]);
    return c + popcount64(row[wb] & tail);
  }

  int n_;
  int halo_;
  int stride_bits_;
  int words_per_row_;
  std::vector<std::uint64_t> words_;
};

}  // namespace seg

// One-bit-per-site spin storage for BinarySpinEngine.
//
// Layout: a rows x cols field, each row padded to whole 64-bit words
// (words_per_row = ceil(cols / 64)); bit x of row y is bit (x & 63) of
// word (y * words_per_row + x / 64), set iff the spin is +1. Padding bits
// beyond column cols - 1 are kept zero so whole-word popcounts never need
// a row-tail mask beyond the interval being counted. A torus is n x n;
// graph nodes form one flat row (1 x nodes), addressed through the
// flat_* accessors, where node i is bit (i & 63) of word i >> 6 with no
// per-access division.
//
// Concurrency: the sharded sweep engine flips interior sites of distinct
// shards from different threads. Distinct sites can share a word when a
// checkerboard layout cuts columns at a non-64-aligned offset, or when
// graph parts interleave within 64 consecutive node ids, so the engine
// switches those flips to the atomic variants (a relaxed fetch-xor).
// All reads go through relaxed atomic loads, which compile to plain MOVs
// on every target we build for — zero cost serially, and no torn/UB reads
// next to a concurrent fetch-xor on the same word.
//
// SEG_NO_POPCNT (CMake option) replaces std::popcount with a portable
// SWAR reduction for targets without a popcount instruction; the CI
// portable-build job runs the differential + fuzz batteries against it.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace seg {

inline int popcount64(std::uint64_t x) {
#if defined(SEG_NO_POPCNT)
  // SWAR bit-count (Hacker's Delight 5-2): no hardware popcount needed.
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
#else
  return std::popcount(x);
#endif
}

class BitField {
 public:
  BitField() = default;

  // All-minus (all bits clear) field of rows x cols.
  BitField(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        words_(static_cast<std::size_t>(rows) * words_per_row_, 0) {
    assert(rows > 0 && cols > 0);
  }

  // Packs a row-major +1/-1 spin field (bit set iff spin > 0).
  BitField(const std::vector<std::int8_t>& spins, int rows, int cols)
      : BitField(rows, cols) {
    assert(spins.size() == static_cast<std::size_t>(rows) * cols);
    for (int y = 0; y < rows; ++y) {
      const std::int8_t* src =
          spins.data() + static_cast<std::size_t>(y) * cols;
      std::uint64_t* dst = words_.data() + row_offset(y);
      for (int x = 0; x < cols; ++x) {
        dst[x >> 6] |= static_cast<std::uint64_t>(src[x] > 0)
                       << (x & 63);
      }
    }
  }
  // The n x n torus field.
  BitField(const std::vector<std::int8_t>& spins, int n)
      : BitField(spins, n, n) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int side() const { return cols_; }  // of a square (torus) field
  int words_per_row() const { return words_per_row_; }
  const std::uint64_t* row_words(int y) const {
    return words_.data() + row_offset(y);
  }

  bool test(std::uint32_t id) const {
    const std::uint32_t x = id % static_cast<std::uint32_t>(cols_);
    return ((load_word(word_index(id)) >> (x & 63u)) & 1u) != 0;
  }
  std::int8_t spin(std::uint32_t id) const { return test(id) ? 1 : -1; }

  void flip(std::uint32_t id) { words_[word_index(id)] ^= bit_of(id); }
  // Relaxed fetch-xor for flips whose word may be shared with another
  // shard's concurrent flip (see the concurrency note above).
  void flip_atomic(std::uint32_t id) {
    __atomic_fetch_xor(&words_[word_index(id)], bit_of(id),
                       __ATOMIC_RELAXED);
  }

  // One-row fields only: the same operations indexed by position in the
  // row, without the row/column split.
  bool flat_test(std::uint32_t i) const {
    assert(rows_ == 1 && i < static_cast<std::uint32_t>(cols_));
    return ((load_word(i >> 6) >> (i & 63u)) & 1u) != 0;
  }
  std::int8_t flat_spin(std::uint32_t i) const {
    return flat_test(i) ? 1 : -1;
  }
  void flat_flip(std::uint32_t i) { words_[i >> 6] ^= 1ull << (i & 63u); }
  void flat_flip_atomic(std::uint32_t i) {
    __atomic_fetch_xor(&words_[i >> 6], 1ull << (i & 63u), __ATOMIC_RELAXED);
  }

  void assign(std::uint32_t id, bool plus) {
    std::uint64_t& w = words_[word_index(id)];
    const std::uint64_t bit = bit_of(id);
    w = plus ? (w | bit) : (w & ~bit);
  }

  // +1 count over the wrapped column interval [x0, x0 + len) of row y;
  // requires 0 <= x0 < cols and 0 < len <= cols. Masked popcounts over
  // the covered words — no per-cell iteration.
  std::int32_t count_row(int y, int x0, int len) const {
    assert(y >= 0 && y < rows_ && x0 >= 0 && x0 < cols_ && len > 0 &&
           len <= cols_);
    const std::uint64_t* row = words_.data() + row_offset(y);
    const int end = x0 + len;
    if (end <= cols_) return count_segment(row, x0, end);
    return count_segment(row, x0, cols_) +
           count_segment(row, 0, end - cols_);
  }

  // Total +1 count (padding bits are invariantly zero).
  std::int64_t count_all() const {
    std::int64_t total = 0;
    for (const std::uint64_t w : words_) total += popcount64(w);
    return total;
  }

  // One byte per site, row-major.
  std::vector<std::int8_t> unpack() const {
    std::vector<std::int8_t> spins(static_cast<std::size_t>(rows_) * cols_);
    for (int y = 0; y < rows_; ++y) {
      const std::uint64_t* src = words_.data() + row_offset(y);
      std::int8_t* dst = spins.data() + static_cast<std::size_t>(y) * cols_;
      for (int x = 0; x < cols_; ++x) {
        dst[x] = (src[x >> 6] >> (x & 63)) & 1u ? 1 : -1;
      }
    }
    return spins;
  }

  friend bool operator==(const BitField& a, const BitField& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.words_ == b.words_;
  }

 private:
  std::size_t row_offset(int y) const {
    return static_cast<std::size_t>(y) * words_per_row_;
  }
  std::size_t word_index(std::uint32_t id) const {
    const std::uint32_t c = static_cast<std::uint32_t>(cols_);
    return static_cast<std::size_t>(id / c) * words_per_row_ +
           ((id % c) >> 6);
  }
  std::uint64_t bit_of(std::uint32_t id) const {
    const std::uint32_t x = id % static_cast<std::uint32_t>(cols_);
    return 1ull << (x & 63u);
  }
  std::uint64_t load_word(std::size_t i) const {
    return __atomic_load_n(&words_[i], __ATOMIC_RELAXED);
  }

  // Popcount of row bits [a, b), no wrap; 0 <= a < b <= cols.
  std::int32_t count_segment(const std::uint64_t* row, int a, int b) const {
    const int wa = a >> 6;
    const int wb = (b - 1) >> 6;
    const std::uint64_t head = ~0ull << (a & 63);
    const std::uint64_t tail = ~0ull >> (63 - ((b - 1) & 63));
    const std::uint64_t* base = row + wa;
    if (wa == wb) {
      return popcount64(__atomic_load_n(base, __ATOMIC_RELAXED) & head &
                        tail);
    }
    std::int32_t c = popcount64(__atomic_load_n(base, __ATOMIC_RELAXED) &
                                head);
    for (int wi = wa + 1; wi < wb; ++wi) {
      c += popcount64(__atomic_load_n(row + wi, __ATOMIC_RELAXED));
    }
    return c + popcount64(__atomic_load_n(row + wb, __ATOMIC_RELAXED) &
                          tail);
  }

  int rows_ = 0;
  int cols_ = 0;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace seg

// An O(1) insert/erase/sample index set over agent ids, used for the
// unhappy / flippable / vacant sets of every lattice model. Sampling must
// be uniform for the dynamics to realize the Poisson-clock law.
//
// The iteration (and therefore sampling) order is a deterministic function
// of the insert/erase history: erase moves the last element into the hole.
// The engines preserve the legacy per-window mutation order exactly so
// that trajectories stay bitwise reproducible across refactors.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace seg {

class AgentSet {
 public:
  explicit AgentSet(std::size_t capacity) : pos_(capacity, kAbsent) {}

  // Windowed set over ids in [base, base + capacity): the position table
  // only spans the window, so a sharded engine whose shards own
  // contiguous id ranges (row stripes) pays O(sites) total across all
  // shard slices instead of O(sites * shards). Ids outside the window
  // must never be inserted/erased/probed.
  AgentSet(std::size_t capacity, std::uint32_t base)
      : base_(base), pos_(capacity, kAbsent) {}

  // Safe for any id: out-of-window ids are simply not members.
  bool contains(std::uint32_t id) const {
    const std::uint32_t offset = id - base_;
    return offset < pos_.size() && pos_[offset] != kAbsent;
  }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Idempotent: inserting a present id / erasing an absent id is a no-op.
  void insert(std::uint32_t id);
  void erase(std::uint32_t id);

  // Bulk build of an empty set from per-id flag bytes (flags[id] for
  // every id of the window): the members become exactly the window's ids
  // whose flag byte has `bit` set and for which keep(id) holds, in
  // ascending order — the items() order and position table that insert()
  // calls in ascending id leave.
  template <typename Keep>
  void fill_ascending(const std::uint8_t* flags, std::uint8_t bit,
                      Keep&& keep) {
    assert(items_.empty() && std::has_single_bit(bit));
    const std::uint32_t base = base_;
    const auto extent = static_cast<std::uint32_t>(pos_.size());
    const int shift = std::countr_zero(bit);
    // Pass 1: the window's flagged ids as a bitset, 64 ids to a word,
    // gathered eight flag bytes at a time.
    std::vector<std::uint64_t> flagged((extent + 63) / 64, 0);
    for (std::uint32_t lo = 0; lo < extent; lo += 8) {
      const std::uint8_t* group = flags + base + lo;
      std::uint64_t bits = 0;
      if (extent - lo >= 8) {
        std::uint64_t bytes = 0;
        for (int i = 0; i < 8; ++i) {
          bytes |= static_cast<std::uint64_t>(group[i]) << (8 * i);
        }
        // One 0/1 per byte: the multiply moves byte i's bit to bit 56 + i
        // with no carries between the partial products.
        bits = (((bytes >> shift) & 0x0101010101010101ull) *
                0x0102040810204080ull) >> 56;
      } else {
        for (std::uint32_t i = 0; i < extent - lo; ++i) {
          bits |= static_cast<std::uint64_t>((group[i] >> shift) & 1u) << i;
        }
      }
      flagged[lo >> 6] |= bits << (lo & 63);
    }
    std::size_t flagged_count = 0;
    for (const std::uint64_t word : flagged) {
      flagged_count += std::popcount(word);
    }
    // Pass 2: kept flagged ids only, ascending; every other position stays
    // kAbsent. The capacity is the one insert() calls would have grown to
    // (doubling), so the dynamics' first inserts do not reallocate.
    items_.reserve(std::bit_ceil(flagged_count));
    items_.resize(flagged_count);
    std::uint32_t* items = items_.data();
    std::uint32_t* pos = pos_.data();
    std::uint32_t k = 0;
    for (std::size_t wi = 0; wi < flagged.size(); ++wi) {
      for (std::uint64_t word = flagged[wi]; word != 0; word &= word - 1) {
        const auto off =
            static_cast<std::uint32_t>(wi * 64 + std::countr_zero(word));
        if (!keep(base + off)) continue;
        pos[off] = k;
        items[k++] = base + off;
      }
    }
    items_.resize(k);
  }

  std::uint32_t sample(Rng& rng) const;
  std::uint32_t at(std::size_t i) const { return items_[i]; }
  const std::vector<std::uint32_t>& items() const { return items_; }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  std::uint32_t base_ = 0;
  std::vector<std::uint32_t> items_;  // raw (un-offset) ids
  std::vector<std::uint32_t> pos_;    // indexed by id - base_
};

}  // namespace seg

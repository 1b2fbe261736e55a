// Threshold-crossing tables for the binary-spin engines.
//
// Every model variant classifies an agent from (its spin, its +1-count);
// the classification is a small bitmask over the engine's agent sets
// (bit s set == "belongs to set s"). A flip changes each neighbor's count
// by exactly +-1, so a neighbor's classification can change only when its
// count crosses one of the model's thresholds — precomputing the code for
// every (spin, count) pair turns the per-neighbor membership refresh into
// one table load and a byte compare, replacing the legacy per-neighbor
// predicate evaluation and O(1)-but-branchy set probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace seg {

// The largest neighbourhood (self included) an engine accepts: window
// counts are int16. Moore windows reach it at w = 90 (181^2 = 32761
// sites); parameter, spec and edge-list validation refuse anything larger.
inline constexpr int kMaxNeighborhoodSize = 32767;

// The refusal text for a neighbourhood over the limit, e.g.
// "node 7 has a 40001-site neighbourhood, over the 32767-site limit".
inline std::string over_neighborhood_limit(const std::string& who,
                                           std::int64_t sites) {
  return who + " has a " + std::to_string(sites) +
         "-site neighbourhood, over the " +
         std::to_string(kMaxNeighborhoodSize) + "-site limit";
}

class MembershipTable {
 public:
  // code_of(plus, count) -> membership bitmask for an agent of the given
  // spin sign whose window holds `count` +1 agents (count in [0, N]).
  template <typename CodeFn>
  MembershipTable(int window_size, CodeFn&& code_of)
      : stride_(window_size + 1),
        table_(static_cast<std::size_t>(2) * stride_) {
    for (int c = 0; c <= window_size; ++c) {
      table_[c] = code_of(true, c);
      table_[static_cast<std::size_t>(stride_) + c] = code_of(false, c);
    }
  }

  std::uint8_t code(bool plus, std::int32_t count) const {
    return table_[(plus ? 0 : stride_) + count];
  }

  // Raw access for the hot loop: data()[spin_offset(spin) + count].
  const std::uint8_t* data() const { return table_.data(); }
  std::int32_t spin_offset(std::int8_t spin) const {
    return spin > 0 ? 0 : stride_;
  }

  // Counts c in [1, N] where the code changes for either spin sign — the
  // crossing-detection set the engines' flip fast path compares against.
  std::vector<std::int32_t> breaks() const {
    std::vector<std::int32_t> found;
    for (std::int32_t c = 1; c < stride_; ++c) {
      if (code(true, c) != code(true, c - 1) ||
          code(false, c) != code(false, c - 1)) {
        found.push_back(c);
      }
    }
    return found;
  }

 private:
  std::int32_t stride_;
  std::vector<std::uint8_t> table_;
};

}  // namespace seg

// Campaign checkpoint persistence.
//
// A checkpoint stores the raw per-replica metric vectors (not the folded
// aggregates) so a resumed campaign can rebuild the exact same fold the
// uninterrupted run would have produced. Doubles are stored as their IEEE
// bit patterns in hex, so the round-trip is bit-exact. Files are written
// to a temp path and renamed into place, and carry a trailer line, so a
// half-written checkpoint is detected and ignored on load. There is one
// on-disk form per CheckpointData; the loader accepts nothing else.
//
// Identity: a checkpoint records the campaign seed and an identity hash
// (spec text plus the actual expanded points, see campaign.cc); resuming
// against a different seed, spec, or point list must be refused by the
// caller (the engine checks all of it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/stopping.h"

namespace seg {

struct CheckpointData {
  std::uint64_t seed = 0;
  std::uint64_t spec_hash = 0;
  std::size_t metric_count = 0;
  // One flag per global replica index; values[g] is meaningful iff
  // done[g] != 0 and then holds metric_count entries.
  std::vector<std::uint8_t> done;
  std::vector<std::vector<double>> values;

  // Stop decisions recorded so far (adaptive campaigns only), ordered by
  // point index. Persisted as `s` lines plus a `trace <fnv-hash>` line
  // folded over the entries; a load whose stored hash disagrees with its
  // own `s` lines is rejected as corrupt. Empty for rule-none campaigns —
  // their files stay byte-identical to the pre-adaptive format.
  std::vector<StopDecision> trace;

  std::size_t done_count() const;
};

// CheckpointData's fields by reference, so a caller can save rows it
// keeps elsewhere without copying them. values[g] is read only where
// done[g] != 0.
struct CheckpointView {
  std::uint64_t seed = 0;
  std::uint64_t spec_hash = 0;
  std::size_t metric_count = 0;
  const std::vector<std::uint8_t>& done;
  const std::vector<std::vector<double>>& values;
  const std::vector<StopDecision>& trace;
};

// Atomically writes `data` to `path`. Returns false on I/O failure. Both
// overloads write the same bytes for the same fields.
bool save_checkpoint(const std::string& path, const CheckpointData& data);
bool save_checkpoint(const std::string& path, const CheckpointView& view);

// Loads `path`. Returns false (leaving *out untouched) if the file is
// missing, truncated, malformed, or not byte for byte the form
// save_checkpoint writes for the data it holds.
bool load_checkpoint(const std::string& path, CheckpointData* out);

}  // namespace seg

// Kept only for perfbench/replica_bench.cc, which reports whether the
// default engine storage is packed. BinarySpinEngine has one storage (one
// bit per site, int16 counts; see lattice/engine.h), so the enum has one
// value under both names that caller uses.
#pragma once

#include <cstdint>

namespace seg {

enum class EngineStorage : std::uint8_t { kPacked = 0, kDefault = kPacked };

inline EngineStorage resolve_storage(EngineStorage storage) {
  return storage;
}

}  // namespace seg

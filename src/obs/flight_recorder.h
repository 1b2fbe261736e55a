// Flight recorder: a per-thread lock-free ring buffer of the last N
// structured events, kept so a crashed long campaign leaves evidence.
//
// Each recording thread owns a fixed ring of POD events (name pointer,
// two integer arguments, a global sequence number, a monotonic
// timestamp); recording is a relaxed store into the owner's ring plus
// one relaxed fetch_add on the global sequence counter — no locks, no
// allocation, bounded memory (rings are recycled at thread exit like
// the telemetry slabs). Only the newest kRingEvents events per thread
// survive; older ones are overwritten in place.
//
// Event names must be string literals (the ring stores the pointer;
// dumps — including the signal-handler dump — read it long after the
// recording scope ended).
//
// Dump paths, in decreasing order of luxury:
//  * dump_json()        — ordinary string render (GET /debug/flight,
//                         tests); events across all rings merged in
//                         global sequence order.
//  * dump_to_fd()       — async-signal-safe: write(2) only, integers
//                         formatted by hand, no allocation, no stdio.
//                         Same bytes: both render through one merge
//                         template over a byte sink.
//  * install_crash_handler(path) — SIGSEGV/SIGABRT/SIGBUS/SIGFPE
//                         handler that dumps to `path` (and a one-line
//                         notice to stderr) through dump_to_fd, then
//                         re-raises with default disposition so the
//                         process still dies with the original signal.
//    SEG_ASSERT failures reach the same dump through the hook in
//    util/seg_assert.h (seg_assert_fail aborts, and the SIGABRT
//    handler — or the direct stderr dump when no handler is
//    installed — writes the evidence).
//
// Recording is gated by its own enable flag (flight::set_enabled), not
// the telemetry master switch: crash evidence is wanted even for runs
// that never asked for metrics. Events are cold-path (replica
// boundaries, checkpoints, stop decisions), so the cost of an enabled
// recorder is nanoseconds per replica — the ≤ 2% disabled-telemetry
// budget on the flip path is untouched because nothing in a hot loop
// records flight events.
#pragma once

#include <cstdint>
#include <string>

namespace seg::obs::flight {

inline constexpr std::size_t kRingEvents = 256;  // per thread

bool enabled();
void set_enabled(bool on);

// Records one event into the calling thread's ring. No-op while
// disabled. `name` must be a string literal (or otherwise immortal).
void record(const char* name, std::int64_t a = 0, std::int64_t b = 0);

// Total events ever recorded (monotonic, includes overwritten ones).
std::uint64_t recorded_total();

// Merged dump of every ring, oldest surviving event first (global
// sequence order): {"flight":[{"seq":..,"t_us":..,"thread":..,
// "name":"..","a":..,"b":..},...],"dropped":N}.
std::string dump_json();

// Async-signal-safe variant of the same document written to `fd`.
// Returns the byte count written (best effort).
std::size_t dump_to_fd(int fd);

// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that dump to `path`
// (truncating) and then re-raise. The path is copied into static
// storage; empty path dumps to stderr only. Idempotent — a second call
// just updates the path.
void install_crash_handler(const std::string& path);

// Clears every ring and the sequence counter (tests only; not safe
// concurrently with writers).
void reset_for_test();

}  // namespace seg::obs::flight

// Convenience macro mirroring the SEG_* family. Compiled out with the
// rest of the instrumentation under SEG_TELEMETRY=OFF.
#if defined(SEG_TELEMETRY_DISABLED)
#define SEG_FLIGHT(name, a, b) \
  do {                         \
  } while (0)
#else
#define SEG_FLIGHT(name, a, b)                                   \
  do {                                                           \
    if (::seg::obs::flight::enabled()) {                         \
      ::seg::obs::flight::record((name),                         \
                                 static_cast<std::int64_t>(a),   \
                                 static_cast<std::int64_t>(b));  \
    }                                                            \
  } while (0)
#endif

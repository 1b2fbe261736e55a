// Event tracing with Chrome trace / Perfetto JSON export, and SEG_SPAN,
// the one scoped-timing API.
//
// A TraceSession collects timestamped events into per-thread buffers
// (one mutex acquisition per thread per session, none per event) and
// serializes them in the Chrome trace-event JSON format, loadable in
// chrome://tracing or https://ui.perfetto.dev. The campaign runner wires
// this to --trace=out.json; the instrumented layers put SEG_SPAN around
// replicas, sweeps, shard phases, reconciliation, streaming replay,
// checkpoint writes, and DSU compactions.
//
// SEG_SPAN("name") times the rest of its block once and feeds two sinks:
// a Chrome "X" event named "name" while a trace session is active, and
// the log2 histogram "span.name_ns" (nanoseconds, so sub-microsecond
// phases resolve) while telemetry is enabled (obs/telemetry.h). The same
// attribution therefore reaches the trace, /metrics, and run reports.
// With both sinks off a span costs two relaxed loads and a branch, no
// clock read. Span names must be string literals: events store the
// pointer, and the histogram name is built by literal concatenation.
//
// Activation. At most one session is active at a time (start()/stop()).
//
// Threading contract: events may be recorded from any thread while the
// session is active. stop() must happen-after all instrumented work (in
// practice: after worker pools have joined), and the session object must
// outlive any thread that might still be inside an instrumented region.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/telemetry.h"

namespace seg::obs {

class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Installs this session as the process-wide active one and zeroes its
  // clock. No-op if another session is already active (the first wins).
  void start();
  // Uninstalls the session; recorded events are kept for export.
  void stop();
  bool active() const;

  // The active session, or nullptr. Relaxed atomic load.
  static TraceSession* current();

  // Microseconds since start(), as Chrome trace "ts".
  double now_us() const;
  // Microseconds from start() to `t`.
  double us_since_start(std::chrono::steady_clock::time_point t) const;

  // Event intake (any thread, active session only — callers go through
  // SEG_SPAN / SEG_TRACE_COUNTER, which null-check current()).
  void record_complete(const char* name, double ts_us, double dur_us);
  void record_counter(const char* name, std::int64_t value);

  std::size_t event_count() const;

  // Chrome trace-event JSON ({"traceEvents": [...]}); write_json returns
  // false on I/O failure. Call after stop().
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
};

// RAII scope timer behind SEG_SPAN. The sinks are chosen at entry: the
// trace session active then (if any), and the histogram when telemetry
// is enabled. The id_fn indirection lets the macro cache the registry
// handle in a function-local static.
class Span {
 public:
  using Clock = std::chrono::steady_clock;

  template <typename IdFn>
  Span(const char* name, IdFn id_fn)
      : session_(TraceSession::current()), name_(name) {
    if (enabled()) {
      id_ = id_fn();
      timed_ = true;
    }
    if (timed_ || session_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (timed_ || session_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish();

  TraceSession* session_;
  const char* name_;
  MetricId id_;
  bool timed_ = false;
  Clock::time_point start_;
};

}  // namespace seg::obs

#if defined(SEG_TELEMETRY_DISABLED)

#define SEG_SPAN(name) \
  do {                 \
  } while (0)
#define SEG_TRACE_COUNTER(name, value) \
  do {                                 \
  } while (0)

#else

#define SEG_OBS_CONCAT_INNER(a, b) a##b
#define SEG_OBS_CONCAT(a, b) SEG_OBS_CONCAT_INNER(a, b)

// Scoped: the span covers the rest of the enclosing block.
#define SEG_SPAN(name)                                              \
  ::seg::obs::Span SEG_OBS_CONCAT(seg_span_, __LINE__)(             \
      name, []() -> ::seg::obs::MetricId {                          \
        static const ::seg::obs::MetricId seg_span_id =             \
            ::seg::obs::Registry::instance().histogram(             \
                "span." name "_ns");                                \
        return seg_span_id;                                         \
      })

#define SEG_TRACE_COUNTER(name, value)                              \
  do {                                                              \
    if (::seg::obs::TraceSession* seg_trace_s =                     \
            ::seg::obs::TraceSession::current()) {                  \
      seg_trace_s->record_counter(name,                             \
                                  static_cast<std::int64_t>(value)); \
    }                                                               \
  } while (0)

#endif  // SEG_TELEMETRY_DISABLED

// Runtime telemetry: a process-wide registry of named counters, gauges,
// and log2-bucketed value histograms, built for instrumentation of the
// simulation hot paths.
//
// Write-side design — no atomic RMW on the hot path. Every writing
// thread owns a cache-line-guarded slab of plain 64-bit cells; a counter
// add is one relaxed load + one relaxed store on the thread's own cell
// (compilers lower both to ordinary MOVs on x86/ARM), so concurrent
// writers never contend and never bounce cache lines. The read side
// aggregates by summing the cells of every slab ever registered; slabs
// are returned to a free list when their thread exits and may be adopted
// by a later thread, which keeps totals exact and slab memory bounded by
// the peak thread count.
//
// Enabling. Two switches, one compile-time and one runtime:
//  * Building with -DSEG_TELEMETRY=OFF (CMake) defines
//    SEG_TELEMETRY_DISABLED and compiles every SEG_* macro below to
//    nothing — the instrumented code carries zero telemetry bytes.
//  * At runtime telemetry starts disabled; seg::obs::set_enabled(true)
//    turns it on (the campaign runner does this for --progress/--trace/
//    --telemetry). While disabled, a macro costs one relaxed bool load
//    and a predictable branch — the overhead budget pinned by
//    BM_FlipTelemetry is <= 2% on BM_Flip.
//
// Naming convention: dot-separated lowercase paths, coarse to fine —
// "engine.flips", "dynamics.deferred", "pool.campaign.worker.3.busy_us",
// "streaming.magnetization". The README "Telemetry & tracing" section
// lists the registry names each layer emits.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace seg::obs {

// Log2 histogram layout: bucket 0 counts the value 0, bucket b >= 1
// counts values v with bit_width(v) == b, i.e. v in [2^(b-1), 2^b - 1].
// Values at or beyond 2^62 land in the last bucket.
inline constexpr int kHistogramBuckets = 64;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// Opaque handle resolved once per call site (the macros cache it in a
// function-local static); cheap to copy.
struct MetricId {
  std::uint32_t index = 0;  // registry metric-table index
  std::uint32_t slot = 0;   // first slab cell (counters / histograms)
};

// Runtime master switch. Reading is a relaxed atomic load.
bool enabled();
void set_enabled(bool on);

// Aggregated value of one metric at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;                    // counter total / gauge bits
  std::int64_t gauge = 0;                     // gauges only
  std::vector<std::uint64_t> buckets;         // histograms only
  std::uint64_t histogram_count = 0;          // total observations
};

class Registry {
 public:
  // Process-wide instance; intentionally leaked so thread_local slab
  // handles destroyed during process teardown never outlive it.
  static Registry& instance();

  // Registration is idempotent by name and thread-safe; the kind of an
  // existing name must match. Call sites normally go through the SEG_*
  // macros, which register lazily on first use.
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name);

  // ---- write side (hot) ----
  void add(MetricId id, std::uint64_t delta);      // counters
  void observe(MetricId id, std::uint64_t value);  // histograms
  // Gauges are single global atomics (set from cold paths only).
  void gauge_set(MetricId id, std::int64_t value);
  void gauge_max(MetricId id, std::int64_t value);

  // ---- read side (aggregates across all slabs) ----
  // Zero / empty when the name is unknown.
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
  std::vector<std::uint64_t> histogram_buckets(const std::string& name) const;

  // Aggregated snapshot of every registered metric, sorted by name.
  std::vector<MetricSample> snapshot() const;
  // Quantile estimate (q in [0,1]) for a log2 histogram, linearly
  // interpolated inside the bucket that crosses the target rank — the
  // estimator behind the p50/p95/p99 columns in /metrics summaries and
  // run reports. NaN when the name is unknown, not a histogram, or
  // empty.
  double histogram_quantile(const std::string& name, double q) const;
  // Counters matching a name prefix (sorted by name) — the progress
  // reporter uses this for per-worker utilization.
  std::vector<std::pair<std::string, std::uint64_t>> counters_with_prefix(
      const std::string& prefix) const;
  // Human/manifest-friendly key=value rendering of the snapshot:
  // counters and gauges as integers, histograms as "count=N p50~V max~V"
  // with bucket-midpoint quantile estimates.
  std::vector<std::pair<std::string, std::string>> summary() const;

  // Zeroes every cell, gauge, and histogram (names stay registered).
  // Not safe concurrently with writers; tests and benchmarks only.
  void reset_values();

  std::size_t metric_count() const;

  struct Impl;  // public so file-local thread-exit hooks can name it

 private:
  Registry();
  ~Registry() = delete;  // leaked singleton
  Impl* impl_;
};

// Quantile over a raw log2 bucket vector (layout as above): linear
// interpolation between the bucket's value range endpoints at the target
// rank. Shared by Registry::histogram_quantile, the Prometheus
// exposition, and the run-report renderer. NaN on an empty histogram.
double quantile_from_log2_buckets(const std::vector<std::uint64_t>& buckets,
                                  double q);

}  // namespace seg::obs

// ---- instrumentation macros --------------------------------------------
//
// `name` must be a string literal (the handle is cached in a static
// local, so one call site must always name the same metric).

#if defined(SEG_TELEMETRY_DISABLED)

#define SEG_COUNT(name, delta) \
  do {                         \
  } while (0)
#define SEG_GAUGE_SET(name, value) \
  do {                             \
  } while (0)
#define SEG_GAUGE_MAX(name, value) \
  do {                             \
  } while (0)
#define SEG_HISTOGRAM(name, value) \
  do {                             \
  } while (0)

#else

#define SEG_COUNT(name, delta)                                        \
  do {                                                                \
    if (::seg::obs::enabled()) {                                      \
      static const ::seg::obs::MetricId seg_obs_id =                  \
          ::seg::obs::Registry::instance().counter(name);             \
      ::seg::obs::Registry::instance().add(seg_obs_id,                \
                                           static_cast<std::uint64_t>(\
                                               delta));               \
    }                                                                 \
  } while (0)

#define SEG_GAUGE_SET(name, value)                                  \
  do {                                                              \
    if (::seg::obs::enabled()) {                                    \
      static const ::seg::obs::MetricId seg_obs_id =                \
          ::seg::obs::Registry::instance().gauge(name);             \
      ::seg::obs::Registry::instance().gauge_set(                   \
          seg_obs_id, static_cast<std::int64_t>(value));            \
    }                                                               \
  } while (0)

#define SEG_GAUGE_MAX(name, value)                                  \
  do {                                                              \
    if (::seg::obs::enabled()) {                                    \
      static const ::seg::obs::MetricId seg_obs_id =                \
          ::seg::obs::Registry::instance().gauge(name);             \
      ::seg::obs::Registry::instance().gauge_max(                   \
          seg_obs_id, static_cast<std::int64_t>(value));            \
    }                                                               \
  } while (0)

#define SEG_HISTOGRAM(name, value)                                  \
  do {                                                              \
    if (::seg::obs::enabled()) {                                    \
      static const ::seg::obs::MetricId seg_obs_id =                \
          ::seg::obs::Registry::instance().histogram(name);         \
      ::seg::obs::Registry::instance().observe(                     \
          seg_obs_id, static_cast<std::uint64_t>(value));           \
    }                                                               \
  } while (0)

#endif  // SEG_TELEMETRY_DISABLED

#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace seg::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<TraceSession*> g_current{nullptr};
// Bumped on every start(); thread-local buffer caches are keyed on it so
// a stale cache from a previous session (possibly allocated at the same
// address) is never written into.
std::atomic<std::uint64_t> g_generation{0};

struct Event {
  const char* name;
  double ts_us;
  double dur_us;        // "X" events only
  std::int64_t value;   // "C" events only
  char phase;           // 'X' or 'C'
};

struct TraceBuffer {
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct ThreadCache {
  std::uint64_t generation = 0;  // 0 never matches a started session
  TraceBuffer* buffer = nullptr;
};

thread_local ThreadCache t_trace;

// Minimal JSON string escaping; span names are code literals, but keep
// the output well-formed for any input.
void append_escaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

struct TraceSession::Impl {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  std::uint32_t next_tid = 0;
  std::uint64_t generation = 0;
  Clock::time_point epoch{};
  std::atomic<bool> active{false};

  TraceBuffer* local_buffer() {
    if (t_trace.generation != generation) {
      std::lock_guard<std::mutex> lock(mutex);
      buffers.push_back(std::make_unique<TraceBuffer>());
      TraceBuffer* buf = buffers.back().get();
      buf->tid = next_tid++;
      buf->events.reserve(256);
      t_trace.generation = generation;
      t_trace.buffer = buf;
    }
    return t_trace.buffer;
  }
};

TraceSession::TraceSession() : impl_(new Impl()) {}

TraceSession::~TraceSession() {
  stop();
  delete impl_;
}

void TraceSession::start() {
  TraceSession* expected = nullptr;
  if (!g_current.compare_exchange_strong(expected, this,
                                         std::memory_order_acq_rel)) {
    return;  // another session is active; first one wins
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->epoch = Clock::now();
  impl_->generation =
      g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  impl_->active.store(true, std::memory_order_release);
}

void TraceSession::stop() {
  TraceSession* expected = this;
  if (g_current.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel)) {
    impl_->active.store(false, std::memory_order_release);
  }
}

bool TraceSession::active() const {
  return impl_->active.load(std::memory_order_acquire);
}

TraceSession* TraceSession::current() {
  return g_current.load(std::memory_order_relaxed);
}

double TraceSession::now_us() const { return us_since_start(Clock::now()); }

double TraceSession::us_since_start(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - impl_->epoch).count();
}

void TraceSession::record_complete(const char* name, double ts_us,
                                   double dur_us) {
  impl_->local_buffer()->events.push_back(
      Event{name, ts_us, dur_us, 0, 'X'});
}

void TraceSession::record_counter(const char* name, std::int64_t value) {
  impl_->local_buffer()->events.push_back(
      Event{name, now_us(), 0.0, value, 'C'});
}

std::size_t TraceSession::event_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::size_t total = 0;
  for (const auto& buf : impl_->buffers) total += buf->events.size();
  return total;
}

std::string TraceSession::to_json() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string out = "{\"traceEvents\":[";
  char num[64];
  bool first = true;
  for (const auto& buf : impl_->buffers) {
    for (const Event& e : buf->events) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"name\":\"");
      append_escaped(&out, e.name);
      out.append("\",\"cat\":\"seg\",\"ph\":\"");
      out.push_back(e.phase);
      out.append("\",\"pid\":1,\"tid\":");
      std::snprintf(num, sizeof(num), "%u", buf->tid);
      out.append(num);
      std::snprintf(num, sizeof(num), ",\"ts\":%.3f", e.ts_us);
      out.append(num);
      if (e.phase == 'X') {
        std::snprintf(num, sizeof(num), ",\"dur\":%.3f", e.dur_us);
        out.append(num);
      } else {
        std::snprintf(num, sizeof(num), ",\"args\":{\"value\":%lld}",
                      static_cast<long long>(e.value));
        out.append(num);
      }
      out.push_back('}');
    }
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

bool TraceSession::write_json(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return (std::fclose(f) == 0) && ok;
}

void Span::finish() {
  const Clock::time_point end = Clock::now();
  if (timed_) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_);
    Registry::instance().observe(id_, static_cast<std::uint64_t>(ns.count()));
  }
  if (session_ != nullptr) {
    session_->record_complete(
        name_, session_->us_since_start(start_),
        std::chrono::duration<double, std::micro>(end - start_).count());
  }
}

}  // namespace seg::obs

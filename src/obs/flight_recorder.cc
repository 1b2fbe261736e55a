#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

namespace seg::obs::flight {

namespace {

// One recorded event. Fields are individually relaxed-atomic so the
// dump threads (HTTP handler, signal handler) read a well-defined —
// if possibly torn-across-fields — value instead of a data race. A
// torn event can pair a name with a neighbouring event's arguments
// during an active overwrite; for crash forensics that is acceptable,
// and the seq field makes the overwrite window visible.
struct Event {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
  std::atomic<std::int64_t> t_us{0};
  std::atomic<std::uint64_t> seq{0};  // 0 = never written
};

struct Ring {
  Event events[kRingEvents];
  std::atomic<std::uint64_t> count{0};  // total writes into this ring
  std::atomic<std::uint64_t> thread_tag{0};
  std::atomic<bool> claimed{false};
};

// Fixed pool in static storage: claimable without allocation, dumpable
// from a signal handler without locks. A thread beyond the pool size
// records nothing (recorded_total still counts the attempt as dropped
// via the seq counter gap — see dump "dropped").
constexpr std::size_t kMaxRings = 128;
Ring g_rings[kMaxRings];
std::atomic<std::uint64_t> g_seq{0};       // global sequence, starts at 1
std::atomic<std::uint64_t> g_thread_tag{0};
std::atomic<bool> g_enabled{false};

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ring* claim_ring() {
  for (std::size_t i = 0; i < kMaxRings; ++i) {
    bool expected = false;
    if (g_rings[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      g_rings[i].thread_tag.store(
          g_thread_tag.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return &g_rings[i];
    }
  }
  return nullptr;
}

// Releases the ring at thread exit so pools that churn threads reuse
// slots instead of exhausting the pool. Events stay in place — a dump
// after the thread died still shows its tail.
struct RingLease {
  Ring* ring = nullptr;
  RingLease() : ring(claim_ring()) {}
  ~RingLease() {
    if (ring != nullptr) ring->claimed.store(false, std::memory_order_release);
  }
};

Ring* my_ring() {
  thread_local RingLease lease;
  return lease.ring;
}

// ---- byte sinks and formatting helpers ----------------------------

// The dump renders through one template over a byte sink. FdSink writes
// straight to a descriptor with write(2) only — async-signal-safe, no
// allocation — so the signal handler can use it; StringSink appends to a
// string for the ordinary dump_json() render.
struct FdSink {
  int fd;
  std::size_t write(const char* data, std::size_t len) const {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::write(fd, data + done, len - done);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    return done;
  }
};

struct StringSink {
  std::string* out;
  std::size_t write(const char* data, std::size_t len) const {
    out->append(data, len);
    return len;
  }
};

template <class Sink>
std::size_t put(const Sink& sink, const char* s) {
  return sink.write(s, std::strlen(s));
}

template <class Sink>
std::size_t put_u64(const Sink& sink, std::uint64_t u) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0);
  return sink.write(p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

template <class Sink>
std::size_t put_i64(const Sink& sink, std::int64_t v) {
  if (v >= 0) return put_u64(sink, static_cast<std::uint64_t>(v));
  const std::size_t n = put(sink, "-");
  return n + put_u64(sink, ~static_cast<std::uint64_t>(v) + 1);
}

// Event names are trusted string literals, but escape the JSON-special
// characters anyway so a hostile name cannot break the document.
template <class Sink>
std::size_t put_json_string(const Sink& sink, const char* s) {
  std::size_t n = put(sink, "\"");
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      const char esc[2] = {'\\', c};
      n += sink.write(esc, 2);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      n += put(sink, "?");
    } else {
      n += sink.write(&c, 1);
    }
  }
  n += put(sink, "\"");
  return n;
}

// Loaded copy of an event (so merge comparisons see stable values).
struct Loaded {
  const char* name;
  std::int64_t a, b, t_us;
  std::uint64_t seq, thread;
};

bool load_event(const Ring& ring, std::size_t idx, Loaded* out) {
  const Event& e = ring.events[idx];
  out->seq = e.seq.load(std::memory_order_relaxed);
  if (out->seq == 0) return false;
  out->name = e.name.load(std::memory_order_relaxed);
  out->a = e.a.load(std::memory_order_relaxed);
  out->b = e.b.load(std::memory_order_relaxed);
  out->t_us = e.t_us.load(std::memory_order_relaxed);
  out->thread = ring.thread_tag.load(std::memory_order_relaxed);
  return out->name != nullptr;
}

template <class Sink>
std::size_t put_event(const Sink& sink, const Loaded& ev, bool first) {
  std::size_t n = 0;
  if (!first) n += put(sink, ",");
  n += put(sink, "\n  {\"seq\": ");
  n += put_u64(sink, ev.seq);
  n += put(sink, ", \"t_us\": ");
  n += put_i64(sink, ev.t_us);
  n += put(sink, ", \"thread\": ");
  n += put_u64(sink, ev.thread);
  n += put(sink, ", \"name\": ");
  n += put_json_string(sink, ev.name);
  n += put(sink, ", \"a\": ");
  n += put_i64(sink, ev.a);
  n += put(sink, ", \"b\": ");
  n += put_i64(sink, ev.b);
  n += put(sink, "}");
  return n;
}

// K-way merge across rings in global sequence order, without
// allocation: per-ring cursor starting at the oldest surviving event.
template <class Sink>
std::size_t dump(const Sink& sink) {
  std::size_t cursor[kMaxRings];
  std::uint64_t remaining[kMaxRings];
  std::uint64_t surviving = 0;
  for (std::size_t r = 0; r < kMaxRings; ++r) {
    const std::uint64_t count = g_rings[r].count.load(std::memory_order_acquire);
    const std::uint64_t kept = count < kRingEvents ? count : kRingEvents;
    cursor[r] = static_cast<std::size_t>((count - kept) % kRingEvents);
    remaining[r] = kept;
    surviving += kept;
  }
  const std::uint64_t total = g_seq.load(std::memory_order_relaxed);
  std::size_t n = put(sink, "{\"flight\": [");
  bool first = true;
  for (;;) {
    // Pick the ring whose head event has the smallest sequence number.
    std::size_t best = kMaxRings;
    Loaded best_ev{};
    for (std::size_t r = 0; r < kMaxRings; ++r) {
      while (remaining[r] > 0) {
        Loaded ev{};
        if (load_event(g_rings[r], cursor[r], &ev)) {
          if (best == kMaxRings || ev.seq < best_ev.seq) {
            best = r;
            best_ev = ev;
          }
          break;
        }
        // Slot invalidated mid-overwrite (or never completed): skip it.
        cursor[r] = (cursor[r] + 1) % kRingEvents;
        --remaining[r];
        --surviving;
      }
    }
    if (best == kMaxRings) break;
    n += put_event(sink, best_ev, first);
    first = false;
    cursor[best] = (cursor[best] + 1) % kRingEvents;
    --remaining[best];
  }
  n += put(sink, "\n], \"dropped\": ");
  n += put_u64(sink, total >= surviving ? total - surviving : 0);
  n += put(sink, "}\n");
  return n;
}

// ---- crash handler --------------------------------------------------

char g_crash_path[4096] = {0};
std::atomic<bool> g_handler_installed{false};

extern "C" void seg_flight_signal_handler(int sig) {
  // Everything here is async-signal-safe: open/write/close plus the
  // manual formatters above.
  const FdSink err{2};
  if (g_crash_path[0] != '\0') {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump(FdSink{fd});
      ::close(fd);
      put(err, "flight recorder: signal ");
      put_i64(err, sig);
      put(err, ", dump written to ");
      put(err, g_crash_path);
      put(err, "\n");
    }
  } else {
    put(err, "flight recorder: signal ");
    put_i64(err, sig);
    put(err, ", dump follows\n");
    dump(err);
    put(err, "\n");
  }
  // Restore default disposition and re-raise so the process exits with
  // the original signal (core dump, wait status) intact.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void record(const char* name, std::int64_t a, std::int64_t b) {
  if (!enabled()) return;
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  Ring* ring = my_ring();
  if (ring == nullptr) return;  // pool exhausted; seq gap shows as dropped
  const std::uint64_t n = ring->count.fetch_add(1, std::memory_order_relaxed);
  Event& e = ring->events[n % kRingEvents];
  e.seq.store(0, std::memory_order_relaxed);  // invalidate during rewrite
  e.name.store(name, std::memory_order_relaxed);
  e.a.store(a, std::memory_order_relaxed);
  e.b.store(b, std::memory_order_relaxed);
  e.t_us.store(now_us(), std::memory_order_relaxed);
  e.seq.store(seq, std::memory_order_release);
}

std::uint64_t recorded_total() {
  return g_seq.load(std::memory_order_relaxed);
}

std::size_t dump_to_fd(int fd) { return dump(FdSink{fd}); }

std::string dump_json() {
  std::string out;
  out.reserve(4096);
  dump(StringSink{&out});
  return out;
}

void install_crash_handler(const std::string& path) {
  std::size_t n = path.size();
  if (n >= sizeof(g_crash_path)) n = sizeof(g_crash_path) - 1;
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
  bool expected = false;
  if (!g_handler_installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = seg_flight_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

void reset_for_test() {
  g_seq.store(0, std::memory_order_relaxed);
  for (Ring& ring : g_rings) {
    ring.count.store(0, std::memory_order_relaxed);
    for (Event& e : ring.events) {
      e.seq.store(0, std::memory_order_relaxed);
      e.name.store(nullptr, std::memory_order_relaxed);
    }
  }
}

}  // namespace seg::obs::flight

namespace seg::internal {

// Hook called by seg_assert_fail (util/seg_assert.h) before abort():
// persist the flight-recorder tail alongside the assertion report.
void seg_assert_dump_flight() noexcept {
  using namespace seg::obs::flight;
  if (recorded_total() == 0) return;
  ::write(2, "flight recorder dump:\n", 22);
  dump_to_fd(2);
  ::write(2, "\n", 1);
}

}  // namespace seg::internal

#include "campaign/checkpoint.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace seg {
namespace {

constexpr char kMagic[] = "seg-campaign-checkpoint v1";

// Durability for the write-tmp-then-rename protocol. Renaming over the
// live checkpoint before the tmp file's data reaches disk inverts the
// guarantee the protocol exists for: after a crash the only copy can be
// the torn one. So the tmp file is flushed and fsync'd before the
// rename, and the parent directory is fsync'd after it so the rename
// itself (the directory entry) is durable too.
bool flush_and_sync(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
#ifndef _WIN32
  if (fsync(fileno(f)) != 0) return false;
#endif
  return true;
}

void sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: the data itself is already synced
  fsync(fd);
  close(fd);
#else
  (void)path;
#endif
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::size_t count_done(const std::vector<std::uint8_t>& done) {
  std::size_t count = 0;
  for (const std::uint8_t d : done) count += d != 0;
  return count;
}

// Emits the one on-disk form of `data` (load_checkpoint accepts nothing
// else) as sink(bytes, size) calls of up to about kChunk bytes each, so
// a save never holds the whole file in memory.
template <class Sink>
void render_checkpoint(const CheckpointView& data, Sink&& sink) {
  constexpr std::size_t kChunk = 1 << 16;
  std::string out;
  out.reserve(kChunk);
  char buf[128];
  auto put = [&](int len) { out.append(buf, static_cast<std::size_t>(len)); };
  out += kMagic;
  out += '\n';
  put(std::snprintf(buf, sizeof(buf),
                    "seed %" PRIu64 " hash %" PRIu64
                    " replicas %zu metrics %zu\n",
                    data.seed, data.spec_hash, data.done.size(),
                    data.metric_count));
  // Row lines are nearly all of the bytes; they are formatted by hand
  // ("r %zu" and " %016" PRIx64 each value) rather than by snprintf.
  for (std::size_t g = 0; g < data.done.size(); ++g) {
    if (!data.done[g]) continue;
    buf[0] = 'r';
    buf[1] = ' ';
    out.append(buf, std::to_chars(buf + 2, buf + sizeof(buf), g).ptr);
    for (const double v : data.values[g]) {
      std::uint64_t bits = double_bits(v);
      buf[0] = ' ';
      for (int i = 16; i > 0; --i, bits >>= 4) {
        buf[i] = "0123456789abcdef"[bits & 15];
      }
      out.append(buf, 17);
    }
    out += '\n';
    if (out.size() >= kChunk) {
      sink(out.data(), out.size());
      out.clear();
    }
  }
  for (const StopDecision& d : data.trace) {
    put(std::snprintf(buf, sizeof(buf),
                      "s %" PRIu32 " %" PRIu32 " %s %016" PRIx64 "\n",
                      d.point, d.replicas, stop_rule_name(d.rule),
                      double_bits(d.bound)));
  }
  if (!data.trace.empty()) {
    put(std::snprintf(buf, sizeof(buf), "trace %016" PRIx64 "\n",
                      decision_trace_hash(data.trace)));
  }
  put(std::snprintf(buf, sizeof(buf), "end %zu\n", count_done(data.done)));
  sink(out.data(), out.size());
}

CheckpointView view_of(const CheckpointData& data) {
  return {data.seed,  data.spec_hash, data.metric_count,
          data.done,  data.values,    data.trace};
}

}  // namespace

std::size_t CheckpointData::done_count() const { return count_done(done); }

bool save_checkpoint(const std::string& path, const CheckpointData& data) {
  return save_checkpoint(path, view_of(data));
}

bool save_checkpoint(const std::string& path, const CheckpointView& data) {
  SEG_SPAN("checkpoint_io");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  bool ok = true;
  render_checkpoint(data, [&](const char* bytes, std::size_t size) {
    ok = ok && std::fwrite(bytes, 1, size, f) == size;
  });
  ok = ok && flush_and_sync(f);
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

bool load_checkpoint(const std::string& path, CheckpointData* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  CheckpointData data;
  char magic[64] = {0};
  bool ok = std::fgets(magic, sizeof(magic), f) != nullptr;
  if (ok) {
    const std::size_t len = std::strlen(magic);
    if (len > 0 && magic[len - 1] == '\n') magic[len - 1] = '\0';
    ok = std::strcmp(magic, kMagic) == 0;
  }
  std::size_t replica_count = 0;
  ok = ok && std::fscanf(f, "seed %" SCNu64 " hash %" SCNu64
                            " replicas %zu metrics %zu\n",
                         &data.seed, &data.spec_hash, &replica_count,
                         &data.metric_count) == 4;
  // Cap allocations for corrupt headers (a campaign of a billion replicas
  // with values in memory is not a real workload).
  constexpr std::size_t kMaxReplicas = std::size_t{1} << 30;
  constexpr std::size_t kMaxMetrics = 4096;
  ok = ok && replica_count <= kMaxReplicas && data.metric_count <= kMaxMetrics;
  if (ok) {
    data.done.assign(replica_count, 0);
    data.values.assign(replica_count, {});
  }
  while (ok) {
    char tag[8] = {0};
    if (std::fscanf(f, "%7s", tag) != 1) break;  // EOF
    if (std::strcmp(tag, "r") == 0) {
      std::size_t g = 0;
      ok = std::fscanf(f, "%zu", &g) == 1 && g < replica_count;
      if (!ok) break;
      std::vector<double> row(data.metric_count);
      for (std::size_t m = 0; ok && m < data.metric_count; ++m) {
        std::uint64_t bits = 0;
        ok = std::fscanf(f, " %" SCNx64, &bits) == 1;
        row[m] = bits_double(bits);
      }
      if (ok) {
        data.done[g] = 1;
        data.values[g] = std::move(row);
      }
    } else if (std::strcmp(tag, "s") == 0) {
      StopDecision d;
      char rule_name[16] = {0};
      std::uint64_t bits = 0;
      ok = std::fscanf(f, " %" SCNu32 " %" SCNu32 " %15s %" SCNx64, &d.point,
                       &d.replicas, rule_name, &bits) == 4 &&
           parse_stop_rule(rule_name, &d.rule);
      if (ok) {
        d.bound = bits_double(bits);
        data.trace.push_back(d);
      }
    } else {
      // The trace hash and the trailer are derived from the lines above;
      // the canonical comparison below checks them.
      ok = std::strcmp(tag, "trace") == 0 || std::strcmp(tag, "end") == 0;
      break;
    }
  }
  // Only the canonical form loads: the file must be byte for byte what
  // save_checkpoint writes for the parsed data. That refuses whatever the
  // scanf parse tolerates (duplicated or reordered rows, stray
  // whitespace, upper-case hex) along with a torn or missing trailer, a
  // stale trailer count, a trace hash that does not fold back from the
  // `s` lines, and trailing bytes, so a loaded checkpoint re-saves
  // bit-exact.
  std::string bytes;
  if (ok) {
    std::rewind(f);
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, got);
    }
    ok = std::ferror(f) == 0;
  }
  std::fclose(f);
  if (!ok) return false;
  std::size_t at = 0;
  render_checkpoint(view_of(data), [&](const char* canonical,
                                       std::size_t size) {
    ok = ok && bytes.compare(at, size, canonical, size) == 0;
    at += size;
  });
  if (!ok || at != bytes.size()) return false;
  *out = std::move(data);
  return true;
}

}  // namespace seg

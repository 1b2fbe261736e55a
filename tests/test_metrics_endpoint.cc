// Tests for the observability endpoint: the embedded HTTP server, the
// Prometheus text exposition, and the determinism guarantee that a live
// concurrent scraper leaves trajectories bitwise identical.
//
// The Prometheus checker here is also the CI scrape linter: the
// workflow saves a live scrape to a file and runs this binary with
// SEG_PROM_LINT_FILE pointing at it (see PromFormat.LintFile).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamics.h"
#include "golden_fixtures.h"
#include "http_client.h"
#include "json_checker.h"
#include "obs/endpoint.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "util/http.h"

namespace seg {
namespace {

using golden::hash_bytes;
using golden::mix;
using golden::mix_double;
using testing::HttpReply;
using testing::http_get;
using testing::http_raw;

// ---- mini Prometheus text-format checker --------------------------------
// Validates the subset of exposition format 0.0.4 the exporter emits:
// HELP/TYPE comment lines, bare and labeled samples, histogram series
// with strictly increasing `le` labels, non-decreasing cumulative bucket
// counts, a terminal +Inf bucket equal to _count, and TYPE lines
// preceding every family's samples. Collects problems instead of
// stopping at the first one, so a failed lint names everything wrong.

struct PromChecker {
  std::vector<std::string> problems;
  // Bare (unlabeled) samples: counters and gauges, name -> value.
  std::map<std::string, double> scalars;
  std::map<std::string, std::string> types;  // family -> counter|gauge|...

  static bool valid_name(const std::string& name) {
    if (name.empty()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool alpha =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
          c == ':';
      if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
    }
    return true;
  }

  void fail(const std::string& what, const std::string& line) {
    problems.push_back(what + ": '" + line + "'");
  }

  // Histogram family being accumulated.
  struct HistState {
    std::string family;
    double prev_le = -1.0;
    bool saw_inf = false;
    double inf_count = 0.0;
    double prev_cum = -1.0;
    bool any_bucket = false;
  } hist;

  void finish_histogram() {
    if (!hist.any_bucket) return;
    if (!hist.saw_inf) {
      problems.push_back("histogram " + hist.family +
                         " has no le=\"+Inf\" terminal bucket");
    }
    hist = HistState{};
  }

  void check(const std::string& doc) {
    std::istringstream in(doc);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line[0] == '#') {
        std::istringstream ls(line);
        std::string hash, kind, name, rest;
        ls >> hash >> kind >> name;
        if (kind != "HELP" && kind != "TYPE") {
          fail("comment line is neither HELP nor TYPE", line);
          continue;
        }
        if (!valid_name(name)) fail("bad metric name in " + kind, line);
        if (kind == "TYPE") {
          std::string type;
          ls >> type;
          if (type != "counter" && type != "gauge" && type != "histogram" &&
              type != "summary" && type != "untyped") {
            fail("unknown TYPE", line);
          }
          if (types.count(name) != 0) fail("duplicate TYPE for family", line);
          types[name] = type;
        }
        continue;
      }
      // Sample line: name[{labels}] value
      const std::size_t brace = line.find('{');
      const std::size_t space = line.find(' ');
      if (space == std::string::npos) {
        fail("sample line without a value", line);
        continue;
      }
      std::string name, labels;
      std::string value_str;
      if (brace != std::string::npos && brace < space) {
        const std::size_t close = line.find('}', brace);
        if (close == std::string::npos) {
          fail("unterminated label set", line);
          continue;
        }
        name = line.substr(0, brace);
        labels = line.substr(brace + 1, close - brace - 1);
        value_str = line.substr(close + 1);
      } else {
        name = line.substr(0, space);
        value_str = line.substr(space);
      }
      if (!valid_name(name)) fail("bad sample name", line);
      while (!value_str.empty() && value_str.front() == ' ') {
        value_str.erase(value_str.begin());
      }
      char* parse_end = nullptr;
      const double value = std::strtod(value_str.c_str(), &parse_end);
      if (parse_end == value_str.c_str()) {
        fail("unparseable sample value", line);
        continue;
      }

      // Histogram series checks, keyed on the _bucket suffix.
      const bool is_bucket =
          name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0;
      if (is_bucket) {
        const std::string family = name.substr(0, name.size() - 7);
        if (hist.any_bucket && family != hist.family) finish_histogram();
        hist.family = family;
        hist.any_bucket = true;
        if (types.count(family) == 0 || types[family] != "histogram") {
          fail("histogram bucket without TYPE histogram", line);
        }
        if (labels.rfind("le=\"", 0) != 0 || labels.back() != '"') {
          fail("bucket without an le label", line);
          continue;
        }
        const std::string le = labels.substr(4, labels.size() - 5);
        double le_value;
        if (le == "+Inf") {
          le_value = std::numeric_limits<double>::infinity();
          hist.saw_inf = true;
          hist.inf_count = value;
        } else {
          le_value = std::strtod(le.c_str(), nullptr);
        }
        if (le_value <= hist.prev_le) {
          fail("bucket le labels not strictly increasing", line);
        }
        hist.prev_le = le_value;
        if (value + 1e-9 < hist.prev_cum) {
          fail("cumulative bucket counts decreased", line);
        }
        hist.prev_cum = value;
        continue;
      }
      const bool is_sum =
          name.size() > 4 && name.compare(name.size() - 4, 4, "_sum") == 0;
      const bool is_count =
          name.size() > 6 && name.compare(name.size() - 6, 6, "_count") == 0;
      if (is_count && hist.any_bucket &&
          name.substr(0, name.size() - 6) == hist.family) {
        if (hist.saw_inf && value != hist.inf_count) {
          fail("_count disagrees with the +Inf bucket", line);
        }
        finish_histogram();
        continue;
      }
      if (is_sum && hist.any_bucket) continue;

      // Bare scalar sample: needs a preceding TYPE.
      if (types.count(name) == 0) fail("sample before its TYPE line", line);
      if (types[name] == "counter" && value < 0.0) {
        fail("negative counter", line);
      }
      scalars[name] = value;
    }
    finish_histogram();
  }
};

std::vector<std::string> prom_problems(const std::string& doc,
                                       std::map<std::string, double>* scalars
                                       = nullptr) {
  PromChecker checker;
  checker.check(doc);
  if (scalars != nullptr) *scalars = checker.scalars;
  return checker.problems;
}

// RAII telemetry toggle so a failing test cannot leak a live registry
// into later tests.
struct ScopedTelemetry {
  ScopedTelemetry() { obs::set_enabled(true); }
  ~ScopedTelemetry() { obs::set_enabled(false); }
};

// Direct registry write: the endpoint serves the registry however it was
// filled, and this also runs in a -DSEG_TELEMETRY=OFF build, where the
// SEG_* macros compile to nothing.
void count(const std::string& name, std::uint64_t delta) {
  obs::Registry& reg = obs::Registry::instance();
  reg.add(reg.counter(name), delta);
}

// ---- checker self-tests -------------------------------------------------

TEST(PromChecker, AcceptsExporterOutput) {
  ScopedTelemetry telemetry;
  obs::Registry& reg = obs::Registry::instance();
  reg.reset_values();
  SEG_COUNT("endpoint_test.count", 7);
  SEG_GAUGE_SET("endpoint_test.gauge", -3);
  for (std::uint64_t v : {0u, 1u, 5u, 900u, 70000u}) {
    SEG_HISTOGRAM("endpoint_test.hist", v);
  }
  const std::string doc = obs::render_prometheus();
  const std::vector<std::string> problems = prom_problems(doc);
  EXPECT_TRUE(problems.empty()) << problems.front() << "\n" << doc;
}

TEST(PromChecker, RejectsMalformedDocuments) {
  EXPECT_FALSE(prom_problems("seg_x 1\n").empty())
      << "sample without TYPE must fail";
  EXPECT_FALSE(prom_problems("# TYPE bad-name counter\nbad-name 1\n").empty());
  EXPECT_FALSE(
      prom_problems("# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\n"
                    "h_bucket{le=\"+Inf\"} 1\nh_count 1\n")
          .empty())
      << "shrinking cumulative buckets must fail";
  EXPECT_FALSE(
      prom_problems("# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 1\nh_count 1\n")
          .empty())
      << "missing +Inf bucket must fail";
  EXPECT_FALSE(
      prom_problems("# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n"
                    "h_count 3\n")
          .empty())
      << "+Inf / _count mismatch must fail";
  EXPECT_FALSE(prom_problems("# TYPE c counter\nc -1\n").empty())
      << "negative counter must fail";
}

// The CI scrape linter: point SEG_PROM_LINT_FILE at a saved /metrics
// response and this test validates it with the full checker.
TEST(PromFormat, LintFile) {
  const char* path = std::getenv("SEG_PROM_LINT_FILE");
  if (path == nullptr) {
    GTEST_SKIP() << "SEG_PROM_LINT_FILE not set";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  ASSERT_FALSE(text.str().empty()) << path << " is empty";
  const std::vector<std::string> problems = prom_problems(text.str());
  for (const std::string& p : problems) ADD_FAILURE() << p;
}

// ---- endpoint behavior --------------------------------------------------

TEST(MetricsEndpoint, ServesScrapeHealthAndProgress) {
  ScopedTelemetry telemetry;
  obs::Registry::instance().reset_values();
  count("endpoint_test.scrapeme", 41);

  obs::MetricsServerOptions mopt;
  mopt.progress_json = [] {
    return std::string("{\"done\":3,\"total\":9}");
  };
  obs::MetricsServer server(std::move(mopt));
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  ASSERT_GT(server.port(), 0);

  const HttpReply health = http_get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpReply progress = http_get(server.port(), "/progress");
  EXPECT_EQ(progress.status, 200);
  EXPECT_TRUE(seg::testing::json_well_formed(progress.body))
      << progress.body;
  EXPECT_NE(progress.body.find("\"done\":3"), std::string::npos);

  const HttpReply scrape = http_get(server.port(), "/metrics");
  EXPECT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.raw.find("text/plain; version=0.0.4"), std::string::npos);
  std::map<std::string, double> scalars;
  const std::vector<std::string> problems =
      prom_problems(scrape.body, &scalars);
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_EQ(scalars["seg_endpoint_test_scrapeme"], 41.0);
}

TEST(MetricsEndpoint, CountersAreMonotoneAcrossScrapes) {
  ScopedTelemetry telemetry;
  obs::Registry::instance().reset_values();
  count("endpoint_test.mono", 5);

  obs::MetricsServer server;
  ASSERT_TRUE(server.start(0));

  std::map<std::string, double> first, second;
  EXPECT_TRUE(prom_problems(http_get(server.port(), "/metrics").body, &first)
                  .empty());
  count("endpoint_test.mono", 2);
  EXPECT_TRUE(prom_problems(http_get(server.port(), "/metrics").body, &second)
                  .empty());
  // Every counter present in both scrapes must be non-decreasing.
  for (const auto& [name, value] : first) {
    const auto it = second.find(name);
    if (it == second.end()) continue;
    EXPECT_GE(it->second, value) << name << " decreased between scrapes";
  }
  EXPECT_EQ(second["seg_endpoint_test_mono"] -
                first["seg_endpoint_test_mono"],
            2.0);
}

TEST(MetricsEndpoint, HttpEdgeCases) {
  obs::MetricsServer server;
  ASSERT_TRUE(server.start(0));
  const std::uint16_t port = server.port();

  EXPECT_EQ(http_get(port, "/no/such/path").status, 404);
  EXPECT_EQ(http_raw(port, "POST /metrics HTTP/1.1\r\n\r\n").status, 405);
  // Truncated request head: client half-closes before the blank line.
  EXPECT_EQ(http_raw(port, "GET /metr").status, 400);
  // Malformed request line.
  EXPECT_EQ(http_raw(port, "NONSENSE\r\n\r\n").status, 400);
  // The endpoint survives all of the above and still serves.
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
}

TEST(MetricsEndpoint, ConcurrentScrapesAllSucceed) {
  ScopedTelemetry telemetry;
  obs::MetricsServer server;
  ASSERT_TRUE(server.start(0));
  const std::uint16_t port = server.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([port, &failures] {
      for (int i = 0; i < 8; ++i) {
        const HttpReply r = http_get(port, "/metrics");
        if (r.status != 200 || !prom_problems(r.body).empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MetricsEndpoint, DebugFlightRouteIsGated) {
  obs::MetricsServer plain;
  ASSERT_TRUE(plain.start(0));
  EXPECT_EQ(http_get(plain.port(), "/debug/flight").status, 404);

  obs::flight::reset_for_test();
  obs::flight::set_enabled(true);
  obs::flight::record("endpoint_gate_test", 1, 2);
  obs::flight::set_enabled(false);
  obs::MetricsServerOptions mopt;
  mopt.debug_routes = true;
  obs::MetricsServer debug(std::move(mopt));
  ASSERT_TRUE(debug.start(0));
  const HttpReply r = http_get(debug.port(), "/debug/flight");
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(seg::testing::json_well_formed(r.body)) << r.body;
  EXPECT_NE(r.body.find("endpoint_gate_test"), std::string::npos);
}

// ---- the determinism pin ------------------------------------------------

std::uint64_t serial_glauber_hash() {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  return mix_double(h, r.final_time);
}

// The frozen golden hash must be reproduced bit-for-bit while a live
// scraper hammers /metrics from another thread: the exporter reads
// registry snapshots only and touches no RNG stream.
TEST(MetricsEndpoint, GoldenTrajectoryUnchangedUnderLiveScraping) {
  ScopedTelemetry telemetry;
  obs::MetricsServer server;
  ASSERT_TRUE(server.start(0));
  const std::uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([port, &stop, &scrapes] {
    while (!stop.load()) {
      if (http_get(port, "/metrics").status == 200) {
        scrapes.fetch_add(1);
      }
    }
  });

  const std::uint64_t h = serial_glauber_hash();
  // The run can outpace the first scrape; keep the endpoint under load
  // until a few scrapes definitely overlapped registry writes.
  for (int i = 0; i < 200 && scrapes.load() < 3; ++i) {
    serial_glauber_hash();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  scraper.join();

  EXPECT_EQ(h, golden::kGlauber);
  EXPECT_GT(scrapes.load(), 0) << "scraper never completed a request";
}

}  // namespace
}  // namespace seg

// Seeded mutation fuzz of the embedded HTTP server's request parser
// (util/http.h). Starts from a valid `GET /healthz` head and puts mutants
// on the loopback wire: byte flips, truncations, an oversized head,
// missing CR/LF bytes, non-GET methods, and spaces or NULs in the path.
// Whatever the mutant, the reply must carry one of the statuses
// util/http.h documents for a parse outcome — 200, 400, 404 or 405 —
// exactly the one the mutation class implies where it implies one, and
// the server must still answer /healthz afterwards.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "http_client.h"
#include "util/http.h"

namespace seg {
namespace {

using testing::http_get;
using testing::http_raw;

const std::string kPath = "/healthz";
const std::string kHead = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
// The server's request-head cap (read_request_head in util/http.cc).
constexpr std::size_t kMaxHead = 8192;

bool documented(int status) {
  return status == 200 || status == 400 || status == 404 || status == 405;
}

// The mutant with control bytes escaped, for failure messages.
std::string printable(const std::string& bytes) {
  std::string out;
  for (const unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

class HttpFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.handle(kPath, [](const HttpRequest&) {
      return HttpResponse{.body = "ok\n"};
    });
    ASSERT_TRUE(server_.start(0));
  }

  // Every case ends with the server still serving.
  void TearDown() override {
    const testing::HttpReply reply = http_get(server_.port(), kPath);
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.body, "ok\n");
  }

  int status_of(const std::string& request) {
    return http_raw(server_.port(), request).status;
  }

  std::size_t below(std::size_t n) { return rng_() % n; }

  HttpServer server_;
  std::mt19937_64 rng_{0x48545450u /* "HTTP" */};
};

TEST_F(HttpFuzz, ValidHeadIsServed) {
  EXPECT_EQ(status_of(kHead), 200);
  // Lone-LF line ends are accepted too.
  EXPECT_EQ(status_of("GET /healthz HTTP/1.1\nHost: 127.0.0.1\n\n"), 200);
  EXPECT_EQ(status_of("GET /healthz?verbose=1 HTTP/1.1\r\n\r\n"), 200);
}

TEST_F(HttpFuzz, ByteFlipsGetADocumentedStatus) {
  for (int round = 0; round < 400; ++round) {
    std::string mutant = kHead;
    const std::size_t flips = 1 + below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      mutant[below(mutant.size())] = static_cast<char>(below(256));
    }
    const int status = status_of(mutant);
    EXPECT_TRUE(documented(status))
        << "status " << status << " for '" << printable(mutant) << "'";
  }
}

TEST_F(HttpFuzz, TruncatedHeadsAreBadRequests) {
  // Every proper prefix ends before the blank line; the client's EOF
  // leaves the head unfinished.
  for (std::size_t len = 0; len < kHead.size(); ++len) {
    const std::string mutant = kHead.substr(0, len);
    EXPECT_EQ(status_of(mutant), 400) << "'" << printable(mutant) << "'";
  }
}

TEST_F(HttpFuzz, OversizedHeadIsBadRequest) {
  const std::string line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  // A terminated head of exactly the cap is still read in full.
  const std::string at_cap = line + std::string(kMaxHead - line.size() - 4,
                                                'a') + "\r\n\r\n";
  ASSERT_EQ(at_cap.size(), kMaxHead);
  EXPECT_EQ(status_of(at_cap), 200);
  // One byte over the cap with no end in sight is refused. The server
  // stops reading exactly at the last byte, so none is left unread.
  const std::string over = line + std::string(kMaxHead + 1 - line.size(),
                                              'a');
  EXPECT_EQ(status_of(over), 400);
}

TEST_F(HttpFuzz, MissingLineBreaksGetADocumentedStatus) {
  // No blank line at all: the head never ends.
  EXPECT_EQ(status_of("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"), 400);
  EXPECT_EQ(status_of("GET /healthz HTTP/1.1"), 400);
  // Each single CR or LF dropped: some still end the head ("\r\n\n"
  // carries the lone-LF terminator), the rest are cut off by EOF.
  for (std::size_t i = 0; i < kHead.size(); ++i) {
    if (kHead[i] != '\r' && kHead[i] != '\n') continue;
    const std::string mutant = kHead.substr(0, i) + kHead.substr(i + 1);
    const int status = status_of(mutant);
    EXPECT_TRUE(documented(status))
        << "status " << status << " for '" << printable(mutant) << "'";
  }
}

TEST_F(HttpFuzz, NonGetMethodsAreRefused) {
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD", "OPTIONS",
                             "PATCH", "TRACE", "CONNECT", "get", "GETS"}) {
    const std::string mutant = method + kHead.substr(kHead.find(' '));
    EXPECT_EQ(status_of(mutant), 405) << "'" << printable(mutant) << "'";
  }
}

TEST_F(HttpFuzz, SpacesAndNulsInThePath) {
  const std::size_t path_at = kHead.find(kPath);
  for (std::size_t i = 0; i <= kPath.size(); ++i) {
    // A space splits the target: the "version" no longer starts with
    // HTTP/, or the target comes out empty.
    std::string spaced = kHead;
    spaced.insert(path_at + i, 1, ' ');
    EXPECT_EQ(status_of(spaced), 400) << "'" << printable(spaced) << "'";
    // A NUL is an ordinary path byte: no handler matches it, unless it
    // displaces the leading '/'.
    std::string nul = kHead;
    nul.insert(path_at + i, 1, '\0');
    EXPECT_EQ(status_of(nul), i == 0 ? 400 : 404)
        << "'" << printable(nul) << "'";
  }
}

}  // namespace
}  // namespace seg

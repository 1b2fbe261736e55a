// A tiny raw-socket HTTP client for the loopback endpoint tests: sends
// bytes verbatim, so tests can put malformed requests on the wire.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace seg::testing {

struct HttpReply {
  int status = 0;
  std::string body;
  std::string raw;
};

// Sends `request` verbatim to 127.0.0.1:port and reads to EOF. With
// `half_close` the write side is shut after sending, so the server sees
// EOF instead of waiting out its receive timeout; a server that hangs up
// early ends the send quietly (no SIGPIPE). `status` is 0 when no status
// line came back.
inline HttpReply http_raw(std::uint16_t port, const std::string& request,
                          bool half_close = true) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent,
               MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() >= 12) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
  }
  const std::size_t sep = reply.raw.find("\r\n\r\n");
  if (sep != std::string::npos) reply.body = reply.raw.substr(sep + 4);
  return reply;
}

inline HttpReply http_get(std::uint16_t port, const std::string& path) {
  return http_raw(port,
                  "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                  /*half_close=*/false);
}

}  // namespace seg::testing

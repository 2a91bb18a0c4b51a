// HTTP/1.1 plumbing for the repo's one HTTP event loop, serve::ServeDaemon
// (src/serve/daemon.hpp), which also serves --serve-metrics with no models
// loaded: socket setup, the request reader and the response formatter.
//
// Scope is deliberately small — enough HTTP for curl, a Prometheus scraper
// and the JSON classify clients: request line + headers + an optional
// Content-Length body, Connection: close, no chunked encoding, no TLS, no
// keep-alive.  Anything fancier belongs in a reverse proxy in front.
//
// Two hardening rules every user of this header inherits:
//  * every socket is created close-on-exec (SOCK_CLOEXEC / accept4, with a
//    fcntl fallback where unavailable), so fork+exec'd campaign workers can
//    never inherit a bound listen fd and keep the port alive after the
//    parent exits;
//  * requests are parsed incrementally by HttpRequestReader, so a request
//    split across several send(2) calls (or a POST body arriving after the
//    headers) is reassembled instead of rejected, while header/body size
//    caps bound what a hostile client can make us buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mldist::obs {

/// Create, bind and listen on an IPv4 TCP socket (INADDR_ANY).  The fd is
/// close-on-exec.  Port 0 binds an ephemeral port; the resolved port is
/// stored in `bound_port`.  Returns -1 with `error` filled on failure.
int listen_tcp(std::uint16_t port, int backlog, std::uint16_t* bound_port,
               std::string* error);

/// A listen port as given on the command line: decimal digits only, 0-65535
/// (0 = ephemeral).  No sign, whitespace or suffix; nullopt otherwise.
std::optional<std::uint16_t> parse_port(std::string_view text);

/// accept(2) a client from `listen_fd`, close-on-exec (accept4 with
/// SOCK_CLOEXEC where available, else accept + fcntl).  Returns -1 on
/// failure (errno preserved).
int accept_cloexec(int listen_fd);

/// Write all of `data`, retrying short writes; gives up silently when the
/// client goes away (MSG_NOSIGNAL — no SIGPIPE).
void send_all(int fd, const std::string& data);

/// One serialised response: status line, Content-Type, Content-Length,
/// Connection: close, body.
std::string http_response(int status, const char* status_text,
                          const char* content_type, const std::string& body);

/// Same, with `extra_headers` (zero or more complete "Name: value\r\n"
/// lines, already serialised) inserted before the blank line — how the
/// serve plane echoes X-Request-Id without the formatter growing a header
/// map.
std::string http_response(int status, const char* status_text,
                          const char* content_type, const std::string& body,
                          const std::string& extra_headers);

/// Convenience for the common error shapes ("text/plain" + message line).
std::string http_error(int status, const char* status_text,
                       const std::string& message);

/// Incremental HTTP/1.1 request parser.  Feed it whatever recv produced;
/// it accumulates until the header block and any Content-Length body are
/// complete, then exposes method / path / body.  Malformed or oversized
/// input parks the reader in the error state with a suggested status code.
class HttpRequestReader {
 public:
  /// `max_header` bounds the request line + headers, `max_body` the
  /// Content-Length payload a client may make us buffer.
  explicit HttpRequestReader(std::size_t max_header = 8 * 1024,
                             std::size_t max_body = 1024 * 1024);

  /// Consume `n` more bytes off the wire.  Returns false once the reader
  /// is in the error state (the connection should be answered with
  /// `error_status()` and closed).
  bool feed(const char* data, std::size_t n);

  bool complete() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kError; }
  /// 400 (malformed), 413 (body too large) or 431 (headers too large);
  /// 0 while not failed.
  int error_status() const { return error_status_; }
  const std::string& error_detail() const { return error_detail_; }

  // Valid once complete():
  const std::string& method() const { return method_; }
  /// Path with any "?query" stripped.
  const std::string& path() const { return path_; }
  const std::string& body() const { return body_; }
  /// The value of header `name` (ASCII case-insensitive, pass it
  /// lowercase), leading/trailing whitespace trimmed; "" when absent.
  /// Duplicate headers keep the last occurrence.
  std::string header(std::string_view name) const;

 private:
  enum class State { kHeaders, kBody, kComplete, kError };

  void fail(int status, std::string detail);
  bool parse_headers();

  State state_ = State::kHeaders;
  std::size_t max_header_;
  std::size_t max_body_;
  std::string buf_;             ///< raw bytes until headers parsed
  std::string method_;
  std::string path_;
  std::string body_;
  /// (lowercased-name, trimmed-value) in wire order.
  std::vector<std::pair<std::string, std::string>> headers_;
  std::size_t content_length_ = 0;
  int error_status_ = 0;
  std::string error_detail_;
};

}  // namespace mldist::obs

#include "obs/http.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace mldist::obs {

namespace {

/// Portable close-on-exec: preferred at creation time (SOCK_CLOEXEC /
/// accept4) so there is no window where a concurrent fork could inherit the
/// fd; the fcntl path is the fallback for platforms without the flags.
void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

int listen_tcp(std::uint16_t port, int backlog, std::uint16_t* bound_port,
               std::string* error) {
#ifdef SOCK_CLOEXEC
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
#else
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) set_cloexec(fd);
#endif
  if (fd < 0) {
    if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    if (error != nullptr) {
      *error = "bind/listen on port " + std::to_string(port) + ": " +
               strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      *bound_port = ntohs(addr.sin_port);
    } else {
      *bound_port = port;
    }
  }
  return fd;
}

std::optional<std::uint16_t> parse_port(std::string_view text) {
  // from_chars into an unsigned type takes no sign and no leading space
  // and reports values past 65535 as out of range.
  std::uint16_t port = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, port);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return port;
}

int accept_cloexec(int listen_fd) {
#ifdef SOCK_CLOEXEC
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
#else
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) set_cloexec(fd);
#endif
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing to salvage
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(int status, const char* status_text,
                          const char* content_type,
                          const std::string& body) {
  return http_response(status, status_text, content_type, body, std::string());
}

std::string http_response(int status, const char* status_text,
                          const char* content_type, const std::string& body,
                          const std::string& extra_headers) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + status_text +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n" +
                    extra_headers + "\r\n";
  out += body;
  return out;
}

std::string http_error(int status, const char* status_text,
                       const std::string& message) {
  return http_response(status, status_text, "text/plain", message + "\n");
}

HttpRequestReader::HttpRequestReader(std::size_t max_header,
                                     std::size_t max_body)
    : max_header_(max_header), max_body_(max_body) {}

void HttpRequestReader::fail(int status, std::string detail) {
  state_ = State::kError;
  error_status_ = status;
  error_detail_ = std::move(detail);
}

bool HttpRequestReader::feed(const char* data, std::size_t n) {
  if (state_ == State::kError) return false;
  if (state_ == State::kComplete) return true;
  if (state_ == State::kHeaders) {
    buf_.append(data, n);
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) {
      // A terminator starting at max_header_ is accepted, and up to three
      // of its bytes may already be buffered; only past that is the block
      // oversized whatever the next recv brings.
      if (buf_.size() > max_header_ + 3) {
        fail(431, "request headers exceed " + std::to_string(max_header_) +
                      " bytes");
      }
      return state_ != State::kError;
    }
    if (end > max_header_) {
      fail(431, "request headers exceed " + std::to_string(max_header_) +
                    " bytes");
      return false;
    }
    if (!parse_headers()) return false;
    // Whatever followed the header block is the start of the body.
    body_ = buf_.substr(end + 4);
    buf_.clear();
    state_ = State::kBody;
  } else {
    body_.append(data, n);
  }
  if (content_length_ > max_body_) {
    fail(413, "request body of " + std::to_string(content_length_) +
                  " bytes exceeds " + std::to_string(max_body_));
    return false;
  }
  if (body_.size() > content_length_) {
    // Trailing junk after the declared body; HTTP/1.1 with Connection:
    // close has no pipelining, so this is a protocol violation.
    fail(400, "bytes beyond the declared Content-Length");
    return false;
  }
  if (body_.size() == content_length_) state_ = State::kComplete;
  return true;
}

bool HttpRequestReader::parse_headers() {
  // Request line: METHOD SP path SP HTTP/1.x
  const std::size_t line_end = buf_.find("\r\n");
  const std::string line = buf_.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    fail(400, "malformed request line");
    return false;
  }
  method_ = line.substr(0, sp1);
  path_ = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = path_.find('?');
  if (q != std::string::npos) path_.resize(q);  // ignore query strings
  if (method_.empty() || path_.empty() || path_[0] != '/') {
    fail(400, "malformed request line");
    return false;
  }

  // Headers: kept as (lowercased-name, trimmed-value) pairs for header();
  // Content-Length additionally drives the body state machine.
  std::size_t pos = line_end + 2;
  const std::size_t block_end = buf_.find("\r\n\r\n");
  while (pos < block_end) {
    const std::size_t eol = buf_.find("\r\n", pos);
    const std::string header = buf_.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string name = header.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    std::size_t v = colon + 1;
    while (v < header.size() && (header[v] == ' ' || header[v] == '\t')) ++v;
    std::size_t e = header.size();
    while (e > v && (header[e - 1] == ' ' || header[e - 1] == '\t')) --e;
    const std::string value = header.substr(v, e - v);
    headers_.emplace_back(name, value);
    if (name != "content-length") continue;
    char* endp = nullptr;
    errno = 0;
    const unsigned long long len =
        std::strtoull(header.c_str() + v, &endp, 10);
    if (endp == header.c_str() + v || *endp != '\0' || errno == ERANGE) {
      fail(400, "malformed Content-Length");
      return false;
    }
    content_length_ = static_cast<std::size_t>(len);
  }
  return true;
}

std::string HttpRequestReader::header(std::string_view name) const {
  std::string found;
  for (const auto& [n, v] : headers_) {
    if (n == name) found = v;
  }
  return found;
}

}  // namespace mldist::obs

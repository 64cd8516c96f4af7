#include "http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kIoTimeoutS = 60;

/// Closes the socket on every exit path.
class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Incremental response decoder over the bytes read so far.
class ResponseParser {
 public:
  explicit ResponseParser(HttpResult* out) : out_(out) {}

  /// Consumes what `raw` holds; true once the response is complete.
  /// Sets `malformed` on a framing error.
  bool Advance(const std::string& raw, bool* malformed) {
    if (!have_headers_) {
      std::size_t end = raw.find("\r\n\r\n");
      if (end == std::string::npos) return false;
      if (!Headers(std::string_view(raw).substr(0, end))) {
        *malformed = true;
        return false;
      }
      have_headers_ = true;
      pos_ = end + 4;
    }
    if (!chunked_) {
      if (content_length_ < 0) return false;  // Read to EOF.
      if (raw.size() - pos_ < static_cast<std::size_t>(content_length_)) return false;
      out_->body = raw.substr(pos_, static_cast<std::size_t>(content_length_));
      return true;
    }
    for (;;) {
      std::size_t eol = raw.find("\r\n", pos_);
      if (eol == std::string::npos) return false;
      char* end = nullptr;
      unsigned long long size = std::strtoull(raw.c_str() + pos_, &end, 16);
      if (end == raw.c_str() + pos_) {
        *malformed = true;
        return false;
      }
      if (size == 0) {
        // Terminal chunk; the server sends no trailers.
        return raw.size() >= eol + 4;
      }
      std::size_t data = eol + 2;
      if (raw.size() < data + size + 2) return false;
      out_->body.append(raw, data, size);
      ++out_->chunks;
      pos_ = data + size + 2;
    }
  }

  /// The body of a response delimited by EOF.
  void Finish(const std::string& raw) {
    if (have_headers_ && !chunked_ && content_length_ < 0) out_->body = raw.substr(pos_);
  }

 private:
  bool Headers(std::string_view head) {
    // "HTTP/1.1 200 OK"
    std::size_t space = head.find(' ');
    if (space == std::string_view::npos) return false;
    out_->status = std::atoi(std::string(head.substr(space + 1, 3)).c_str());
    std::size_t line = head.find("\r\n");
    while (line != std::string_view::npos) {
      std::size_t next = head.find("\r\n", line + 2);
      std::string_view field = head.substr(line + 2, next == std::string_view::npos
                                                         ? std::string_view::npos
                                                         : next - line - 2);
      std::size_t colon = field.find(':');
      if (colon != std::string_view::npos) {
        std::string name(field.substr(0, colon));
        std::string value(field.substr(colon + 1));
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        if (strcasecmp(name.c_str(), "transfer-encoding") == 0 &&
            strcasecmp(value.c_str(), "chunked") == 0) {
          chunked_ = true;
        } else if (strcasecmp(name.c_str(), "content-length") == 0) {
          content_length_ = std::atoll(value.c_str());
        }
      }
      line = next;
    }
    return out_->status > 0;
  }

  HttpResult* out_;
  bool have_headers_ = false;
  bool chunked_ = false;
  long long content_length_ = -1;
  std::size_t pos_ = 0;
};

}  // namespace

HttpResult HttpCall(uint16_t port, std::string_view method,
                    std::string_view target, std::string_view body,
                    std::string_view request_id) {
  HttpResult result;
  result.start_ns = NowNs();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (sock.fd() < 0) {
    result.error = std::string("socket: ") + std::strerror(errno);
    return result;
  }
  timeval timeout{kIoTimeoutS, 0};
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    result.error = std::string("connect: ") + std::strerror(errno);
    return result;
  }
  result.connected_ns = NowNs();

  std::string request;
  request.reserve(256 + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request += "Host: 127.0.0.1\r\nConnection: close\r\n";
  if (!request_id.empty()) request.append("X-Request-Id: ").append(request_id).append("\r\n");
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request.append(body);
  std::size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(sock.fd(), request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.error = std::string("send: ") + std::strerror(errno);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  result.sent_ns = NowNs();

  std::string raw;
  ResponseParser parser(&result);
  char buffer[64 * 1024];
  bool malformed = false;
  for (;;) {
    ssize_t n = ::recv(sock.fd(), buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      result.error = std::string("recv: ") + std::strerror(errno);
      return result;
    }
    if (n == 0) {
      result.end_ns = NowNs();
      parser.Finish(raw);
      result.transport_ok = result.status > 0 && !malformed;
      if (!result.transport_ok) result.error = "connection closed mid-response";
      return result;
    }
    if (result.first_byte_ns == 0) result.first_byte_ns = NowNs();
    raw.append(buffer, static_cast<std::size_t>(n));
    result.wire_bytes += static_cast<uint64_t>(n);
    if (parser.Advance(raw, &malformed)) {
      result.end_ns = NowNs();
      result.transport_ok = true;
      return result;
    }
    if (malformed) {
      result.error = "malformed response framing";
      return result;
    }
  }
}

}  // namespace perfbench

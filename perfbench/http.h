#ifndef PERFBENCH_HTTP_H_
#define PERFBENCH_HTTP_H_

/// \file
/// The benchmark's own HTTP/1.1 client: one blocking request per TCP
/// connection (`Connection: close`), with the response's chunk frames
/// counted by its own reader and each phase timestamped so the traced
/// run can split a request into connect / send / first byte / body.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

struct HttpResult {
  bool transport_ok = false;  ///< False on connect/send/recv failure.
  std::string error;          ///< Why transport failed.
  int status = 0;
  std::string body;           ///< De-chunked payload.
  uint64_t chunks = 0;        ///< Chunk frames (0 for a Content-Length body).
  uint64_t wire_bytes = 0;    ///< Response bytes read, headers included.
  int64_t start_ns = 0;       ///< Before connect().
  int64_t connected_ns = 0;   ///< connect() returned.
  int64_t sent_ns = 0;        ///< Request fully written.
  int64_t first_byte_ns = 0;  ///< First response byte arrived.
  int64_t end_ns = 0;         ///< Response complete.
};

/// Sends one request to 127.0.0.1:`port` and reads the whole response.
/// `request_id` (may be empty) goes out as `X-Request-Id`.
HttpResult HttpCall(uint16_t port, std::string_view method,
                    std::string_view target, std::string_view body,
                    std::string_view request_id = {});

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_H_

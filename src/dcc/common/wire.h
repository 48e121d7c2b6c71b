// Length-prefixed frame I/O over stream sockets — the transport under the
// scenario service's JSON protocol (src/dcc/service). A frame is a 4-byte
// big-endian payload length followed by the payload bytes; framing lets
// both ends carry arbitrary JSON (which has no self-delimiting wire form)
// over one connection without a streaming parser.
//
// All calls retry EINTR and handle partial reads/writes; writes use
// MSG_NOSIGNAL so a peer that vanished surfaces as an exception, not
// SIGPIPE. Errors (including a frame over kMaxFrameBytes) throw
// WireError. These are blocking calls — the service gives every
// connection its own thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dcc::wire {

// Upper bound on one frame's payload. Reports over a sweep of big runs are
// large but bounded; 64 MiB rejects a corrupted or hostile length word
// before it becomes an allocation.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// Reads one frame into *payload. Returns false on a clean EOF at a frame
// boundary (the peer closed); throws WireError on a short frame, an I/O
// error, or an oversized length prefix.
bool ReadFrame(int fd, std::string* payload);

// Writes one frame. Throws WireError when the peer is gone or the payload
// exceeds kMaxFrameBytes.
void WriteFrame(int fd, const std::string& payload);

}  // namespace dcc::wire

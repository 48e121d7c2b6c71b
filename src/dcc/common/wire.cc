#include "dcc/common/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace dcc::wire {

namespace {

// Reads exactly `len` bytes. Returns false on EOF before the first byte
// when `eof_ok`; throws on every other short read.
bool ReadAll(int fd, char* buf, std::size_t len, bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = ::read(fd, buf + got, len - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireError("wire: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw WireError(std::string("wire: read failed: ") + std::strerror(errno));
  }
  return true;
}

void WriteAll(int fd, const char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t w = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    throw WireError(std::string("wire: write failed: ") + std::strerror(errno));
  }
}

}  // namespace

bool ReadFrame(int fd, std::string* payload) {
  unsigned char hdr[4];
  if (!ReadAll(fd, reinterpret_cast<char*>(hdr), sizeof hdr,
               /*eof_ok=*/true)) {
    return false;
  }
  const std::uint32_t len = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                            (static_cast<std::uint32_t>(hdr[1]) << 16) |
                            (static_cast<std::uint32_t>(hdr[2]) << 8) |
                            static_cast<std::uint32_t>(hdr[3]);
  if (len > kMaxFrameBytes) {
    throw WireError("wire: frame length " + std::to_string(len) +
                    " exceeds the " + std::to_string(kMaxFrameBytes) +
                    " byte cap");
  }
  payload->resize(len);
  ReadAll(fd, payload->data(), len, /*eof_ok=*/false);
  return true;
}

void WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("wire: refusing to send a frame of " +
                    std::to_string(payload.size()) + " bytes");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  const unsigned char hdr[4] = {static_cast<unsigned char>(len >> 24),
                                static_cast<unsigned char>(len >> 16),
                                static_cast<unsigned char>(len >> 8),
                                static_cast<unsigned char>(len)};
  WriteAll(fd, reinterpret_cast<const char*>(hdr), sizeof hdr);
  WriteAll(fd, payload.data(), payload.size());
}

}  // namespace dcc::wire

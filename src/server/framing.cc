#include "src/server/framing.h"

#include <cstring>

namespace rubberband {

namespace {

void PutPrefix(uint32_t length, char out[4]) {
  out[0] = static_cast<char>((length >> 24) & 0xff);
  out[1] = static_cast<char>((length >> 16) & 0xff);
  out[2] = static_cast<char>((length >> 8) & 0xff);
  out[3] = static_cast<char>(length & 0xff);
}

uint32_t GetPrefix(const char in[4]) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(in[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3]));
}

// Reads exactly `size` bytes through the transport. Returns 1 on success,
// 0 on EOF before the first byte, kTransportTimeout on deadline, -1 on
// error or EOF mid-read. `first_timeout_ms` guards the wait for the first
// byte; `rest_timeout_ms` guards every subsequent read.
int ReadExactly(Transport& transport, char* data, size_t size, int first_timeout_ms,
                int rest_timeout_ms, std::string* error) {
  size_t got = 0;
  while (got < size) {
    const int timeout = got == 0 ? first_timeout_ms : rest_timeout_ms;
    const int n = transport.Recv(data + got, size - got, timeout, error);
    if (n == kTransportTimeout) {
      return kTransportTimeout;
    }
    if (n < 0) {
      return -1;
    }
    if (n == 0) {
      if (got == 0) {
        return 0;
      }
      *error = "connection closed mid-frame";
      return -1;
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

std::string EncodeFrame(const std::string& payload) {
  char prefix[4];
  PutPrefix(static_cast<uint32_t>(payload.size()), prefix);
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.append(prefix, 4);
  frame.append(payload);
  return frame;
}

int DecodeFrame(std::string& buffer, std::string* payload, std::string* error) {
  if (buffer.size() < 4) {
    return 0;
  }
  const uint32_t length = GetPrefix(buffer.data());
  if (length > kMaxFrameBytes) {
    *error = "frame of " + std::to_string(length) + " bytes exceeds limit";
    return -1;
  }
  if (buffer.size() < 4 + static_cast<size_t>(length)) {
    return 0;
  }
  payload->assign(buffer, 4, length);
  buffer.erase(0, 4 + static_cast<size_t>(length));
  return 1;
}

bool WriteFrame(Transport& transport, const std::string& payload, std::string* error,
                int timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    *error = "frame of " + std::to_string(payload.size()) + " bytes exceeds limit";
    return false;
  }
  // Prefix and payload leave in one Send: the fault shim (and the kernel)
  // may still tear the frame mid-stream, but frames never interleave.
  const std::string frame = EncodeFrame(payload);
  return transport.Send(frame.data(), frame.size(), timeout_ms, error) ==
         static_cast<int>(frame.size());
}

int ReadFrame(Transport& transport, std::string* payload, std::string* error,
              int idle_timeout_ms, int frame_timeout_ms) {
  char prefix[4];
  // Waiting for a frame's first byte is idleness; everything after it is
  // mid-frame and gets the (typically much tighter) frame deadline.
  const int header =
      ReadExactly(transport, prefix, 4, idle_timeout_ms, frame_timeout_ms, error);
  if (header <= 0) {
    return header;  // EOF, error, or timeout (kTransportTimeout)
  }
  const uint32_t length = GetPrefix(prefix);
  if (length > kMaxFrameBytes) {
    *error = "frame of " + std::to_string(length) + " bytes exceeds limit";
    return -1;
  }
  payload->resize(length);
  if (length == 0) {
    return 1;
  }
  return ReadExactly(transport, payload->data(), length, frame_timeout_ms,
                     frame_timeout_ms, error);
}

}  // namespace rubberband

// Length-prefixed message framing over a byte stream.
//
// Every message on the wire is a 4-byte big-endian payload length followed
// by that many bytes of UTF-8 JSON. The prefix makes message boundaries
// explicit (TCP is a byte stream), lets the reader allocate exactly once,
// and gives the server a cheap place to enforce a maximum request size
// before parsing anything.

#ifndef SRC_SERVER_FRAMING_H_
#define SRC_SERVER_FRAMING_H_

#include <cstdint>
#include <string>

#include "src/server/transport.h"

namespace rubberband {

// Hard cap on a single frame's payload. Requests are small JSON documents;
// responses carrying a Chrome trace can run to a few MB.
inline constexpr uint32_t kMaxFrameBytes = 16 * 1024 * 1024;

// Encodes `payload` as prefix + bytes (for tests and in-memory transports).
std::string EncodeFrame(const std::string& payload);

// Decodes one frame from the front of `buffer`. Returns 1 and fills
// `*payload` (erasing the consumed bytes) when a complete frame is
// buffered, 0 when more bytes are needed, and -1 (with `*error` set) when
// the prefix announces an oversized frame.
int DecodeFrame(std::string& buffer, std::string* payload, std::string* error);

// Frame I/O over a Transport. WriteFrame sends prefix + payload as one
// buffer (a crash or injected reset can tear the frame at any byte, but
// frames never interleave); returns false with `*error` set on transport
// failure, deadline expiry, or an oversized payload. `timeout_ms` < 0
// disables the write deadline.
bool WriteFrame(Transport& transport, const std::string& payload, std::string* error,
                int timeout_ms = -1);

// Reads one frame. Returns 1 on a frame, 0 on clean EOF at a message
// boundary, -1 with `*error` set on a truncated frame / read error /
// oversized announcement, and -2 (kTransportTimeout) when a deadline
// expires. Two deadlines, because they mean different things: a peer
// quietly holding an idle connection (`idle_timeout_ms`, waiting for a
// frame's first byte) versus a peer that announced a frame and then
// stalled mid-payload — the slow-loris shape (`frame_timeout_ms`, applied
// to every read after the first byte). Either value < 0 disables that
// deadline.
int ReadFrame(Transport& transport, std::string* payload, std::string* error,
              int idle_timeout_ms = -1, int frame_timeout_ms = -1);

}  // namespace rubberband

#endif  // SRC_SERVER_FRAMING_H_

// Byte-stream transport abstraction under the framing layer.
//
// PR 6 read and wrote file descriptors directly, which made two things
// impossible: per-connection deadlines (a peer that sends a length prefix
// and then stalls pinned a reader thread forever) and deterministic
// network-fault injection (you cannot flip a byte inside ::send). Both
// server and client now speak through a Transport: FdTransport adds
// poll()-based read/write deadlines to a socket, and
// FaultInjectingTransport wraps any transport with a seeded profile of
// resets, short writes and byte flips — the chaos tests drive the
// REAL server/client code paths, only the bottom of the stack is shimmed.

#ifndef SRC_SERVER_TRANSPORT_H_
#define SRC_SERVER_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/rng.h"

namespace rubberband {

// Recv/Send status returns. Positive values are byte counts.
inline constexpr int kTransportEof = 0;
inline constexpr int kTransportError = -1;
inline constexpr int kTransportTimeout = -2;

class Transport {
 public:
  virtual ~Transport() = default;

  // Reads up to `len` bytes. Returns the byte count, kTransportEof on a
  // clean peer close, kTransportTimeout when `timeout_ms` >= 0 expires
  // before any byte arrives, or kTransportError with `*error` set.
  virtual int Recv(char* buffer, size_t len, int timeout_ms, std::string* error) = 0;

  // Writes all `len` bytes (retrying short writes internally). Returns
  // kTransportTimeout / kTransportError on failure, otherwise `len`.
  virtual int Send(const char* buffer, size_t len, int timeout_ms, std::string* error) = 0;

  // Hard-closes the underlying connection (both directions).
  virtual void ShutdownBoth() = 0;
};

// A socket with poll()-based deadlines. Does not own the fd.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}

  int Recv(char* buffer, size_t len, int timeout_ms, std::string* error) override;
  int Send(const char* buffer, size_t len, int timeout_ms, std::string* error) override;
  void ShutdownBoth() override;

 private:
  int fd_;
};

// Deterministic (seeded) wire-fault profile. All rates are probabilities
// in [0, 1] drawn per Send/Recv call from the shim's own stream; zero
// everywhere means the shim is never even constructed.
struct NetFaultProfile {
  uint64_t seed = 0;
  double reset_rate = 0.0;        // abort the connection mid-send: a partial
                                  // frame reaches the peer, then hard close
  double short_write_rate = 0.0;  // deliver a send in several small chunks
                                  // (all bytes still arrive — exercises the
                                  // peer's partial-read path)
  double byte_flip_rate = 0.0;    // flip one payload byte in a send

  bool Any() const { return reset_rate > 0.0 || short_write_rate > 0.0 || byte_flip_rate > 0.0; }
};

// Wraps a transport with the profile above. `stream` distinguishes
// connections so every connection sees its own deterministic fault
// sequence.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, const NetFaultProfile& profile,
                          uint64_t stream);

  int Recv(char* buffer, size_t len, int timeout_ms, std::string* error) override;
  int Send(const char* buffer, size_t len, int timeout_ms, std::string* error) override;
  void ShutdownBoth() override;

  int64_t resets() const { return resets_; }
  int64_t flips() const { return flips_; }

 private:
  std::unique_ptr<Transport> inner_;
  NetFaultProfile profile_;
  Rng rng_;
  bool dead_ = false;  // a injected reset kills the connection for good
  int64_t resets_ = 0;
  int64_t flips_ = 0;
};

// Builds the transport a server connection / client socket should use:
// plain FdTransport when the profile is inert, fault-injecting otherwise.
std::unique_ptr<Transport> MakeTransport(int fd, const NetFaultProfile& profile,
                                         uint64_t stream);

}  // namespace rubberband

#endif  // SRC_SERVER_TRANSPORT_H_

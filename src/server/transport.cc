#include "src/server/transport.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace rubberband {

namespace {

// Waits for the fd to become readable/writable. Returns 1 ready, 0 timeout,
// -1 error.
int WaitFor(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    return rc < 0 ? -1 : (rc == 0 ? 0 : 1);
  }
}

}  // namespace

int FdTransport::Recv(char* buffer, size_t len, int timeout_ms, std::string* error) {
  if (timeout_ms >= 0) {
    const int ready = WaitFor(fd_, POLLIN, timeout_ms);
    if (ready == 0) {
      *error = "read deadline of " + std::to_string(timeout_ms) + "ms expired";
      return kTransportTimeout;
    }
    if (ready < 0) {
      *error = std::string("poll: ") + std::strerror(errno);
      return kTransportError;
    }
  }
  while (true) {
    const ssize_t n = ::read(fd_, buffer, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = std::string("read: ") + std::strerror(errno);
      return kTransportError;
    }
    return static_cast<int>(n);
  }
}

int FdTransport::Send(const char* buffer, size_t len, int timeout_ms, std::string* error) {
  size_t sent = 0;
  while (sent < len) {
    if (timeout_ms >= 0) {
      const int ready = WaitFor(fd_, POLLOUT, timeout_ms);
      if (ready == 0) {
        *error = "write deadline of " + std::to_string(timeout_ms) + "ms expired";
        return kTransportTimeout;
      }
      if (ready < 0) {
        *error = std::string("poll: ") + std::strerror(errno);
        return kTransportError;
      }
    }
    // MSG_NOSIGNAL: a peer-closed socket yields EPIPE, not a process-killing
    // SIGPIPE — teardown races are routine, not fatal.
    const ssize_t n = ::send(fd_, buffer + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = std::string("write: ") + std::strerror(errno);
      return kTransportError;
    }
    sent += static_cast<size_t>(n);
  }
  return static_cast<int>(len);
}

void FdTransport::ShutdownBoth() { ::shutdown(fd_, SHUT_RDWR); }

FaultInjectingTransport::FaultInjectingTransport(std::unique_ptr<Transport> inner,
                                                 const NetFaultProfile& profile,
                                                 uint64_t stream)
    : inner_(std::move(inner)),
      profile_(profile),
      rng_(Rng::ForStream(profile.seed, /*stream=*/0xFA17, stream)) {}

int FaultInjectingTransport::Recv(char* buffer, size_t len, int timeout_ms,
                                  std::string* error) {
  if (dead_) {
    *error = "injected connection reset";
    return kTransportError;
  }
  return inner_->Recv(buffer, len, timeout_ms, error);
}

int FaultInjectingTransport::Send(const char* buffer, size_t len, int timeout_ms,
                                  std::string* error) {
  if (dead_) {
    *error = "injected connection reset";
    return kTransportError;
  }
  std::string mutated;
  const char* data = buffer;
  if (profile_.byte_flip_rate > 0.0 && len > 0 &&
      rng_.Uniform(0.0, 1.0) < profile_.byte_flip_rate) {
    mutated.assign(buffer, len);
    // Flip past the 4-byte length prefix when the buffer is a whole frame,
    // so the fault lands in the payload (a flipped length desynchronizes
    // the stream instead — that failure shape is the stall/timeout tests').
    const size_t lo = len > 4 ? 4 : 0;
    const size_t index =
        static_cast<size_t>(rng_.UniformInt(static_cast<int64_t>(lo),
                                            static_cast<int64_t>(len - 1)));
    mutated[index] = static_cast<char>(mutated[index] ^ 0x20);
    data = mutated.data();
    ++flips_;
  }
  if (profile_.reset_rate > 0.0 && rng_.Uniform(0.0, 1.0) < profile_.reset_rate) {
    // Deliver a prefix of the frame, then kill the connection: the peer
    // sees a mid-frame EOF.
    const size_t cut = len > 1 ? static_cast<size_t>(rng_.UniformInt(
                                     1, static_cast<int64_t>(len - 1)))
                               : len;
    inner_->Send(data, cut, timeout_ms, error);
    inner_->ShutdownBoth();
    dead_ = true;
    ++resets_;
    *error = "injected connection reset mid-frame";
    return kTransportError;
  }
  if (profile_.short_write_rate > 0.0 && len > 1 &&
      rng_.Uniform(0.0, 1.0) < profile_.short_write_rate) {
    // All bytes still arrive, just in awkward chunks.
    size_t sent = 0;
    while (sent < len) {
      const size_t chunk = std::min(
          len - sent, static_cast<size_t>(rng_.UniformInt(1, 7)));
      const int rc = inner_->Send(data + sent, chunk, timeout_ms, error);
      if (rc <= 0) {
        return rc;
      }
      sent += chunk;
    }
    return static_cast<int>(len);
  }
  return inner_->Send(data, len, timeout_ms, error);
}

void FaultInjectingTransport::ShutdownBoth() { inner_->ShutdownBoth(); }

std::unique_ptr<Transport> MakeTransport(int fd, const NetFaultProfile& profile,
                                         uint64_t stream) {
  auto base = std::make_unique<FdTransport>(fd);
  if (!profile.Any()) {
    return base;
  }
  return std::make_unique<FaultInjectingTransport>(std::move(base), profile, stream);
}

}  // namespace rubberband

// Framed-TCP front door for the tuning service.
//
// Threading model (DESIGN.md §13): one accept thread, one blocking reader
// thread per connection, one service thread. I/O threads parse and
// pre-screen requests — malformed envelopes, per-tenant token-bucket rate
// limits, and a full admission queue are all answered directly from the
// I/O thread with an honest retry-after, so an overloaded service never
// has its rejections queued behind the very backlog that caused them. Only
// admitted requests cross the bounded MPSC queue to the single service
// thread that owns the TuningService.

#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/bounded_queue.h"
#include "src/server/protocol.h"
#include "src/server/rate_limiter.h"
#include "src/server/service_runner.h"
#include "src/server/transport.h"

namespace rubberband {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-assigned; read back via port()
  // Admission queue depth. Full queue => QUEUE_FULL with retry-after.
  size_t queue_capacity = 256;
  // Per-tenant submit rate (token bucket); rate_per_second <= 0 disables.
  RateLimitConfig rate;
  RunnerOptions runner;
  // Read deadlines, milliseconds; <= 0 disables. `idle_timeout_ms` bounds
  // the wait for a frame's FIRST byte (idle-connection reaper);
  // `frame_timeout_ms` bounds every read after it (a peer trickling a
  // frame byte-by-byte cannot pin a reader thread past this).
  int idle_timeout_ms = 0;
  int frame_timeout_ms = 30'000;
  // Deterministic wire-fault injection on accepted connections (tests /
  // chaos bench only; inert by default).
  NetFaultProfile fault;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the accept + service threads. With
  // runner.wal_path set, Start() resumes from an existing write-ahead
  // journal (ServiceRunner::Open) — whether the last server was drained or
  // killed — and throws std::runtime_error on a corrupt or mismatched one.
  // Returns false with `*error` set on socket errors.
  bool Start(std::string* error);

  // Blocks until a drain request has been fully served (drain time durable
  // in the WAL / jobs finished) or Stop() is called from another thread.
  void Wait();

  // Shuts down the listener, all connections, and both thread pools.
  // Idempotent.
  void Stop();

  // Crash-style stop: like Stop(), but the WAL is abandoned without its
  // final fsync — the closest an in-process server gets to kill -9. No
  // drain; recovery goes through the WAL.
  void Kill();

  int port() const { return port_; }
  bool draining() const;

  // The runner, for post-mortem inspection (WAL recovery stats, idempotency
  // counters). Only safe to read once the service thread has stopped
  // (after Wait/Stop/Kill) — the runner is single-threaded.
  const ServiceRunner* runner() const { return runner_.get(); }

  // The server's own request-path metrics (server.* scope): per-method
  // counters, rejection counters, submit→decision latency histogram.
  MetricsSnapshot ServerMetrics() const { return metrics_.Snapshot(); }

 private:
  struct PendingOp {
    Request request;
    int64_t received_ns = 0;  // steady clock, for decision latency
    std::promise<OpResult> reply;
  };

  void AcceptLoop();
  void ConnectionLoop(int fd);
  void ServiceLoop();
  // I/O-thread screening: returns true when `request` was answered locally
  // (rejection) and must not be enqueued.
  bool Prescreen(const Request& request, std::string* response);

  ServerOptions options_;
  MetricsRegistry metrics_;
  RateLimiter limiter_;
  BoundedQueue<std::unique_ptr<PendingOp>> queue_;
  std::unique_ptr<ServiceRunner> runner_;  // touched only by the service thread

  // Owned by Start until the threads spawn; Stop() takes it back
  // with an exchange so teardown races with the accept thread are benign.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  // Per-connection serial, the fault-injection stream index: connection k
  // of a given server sees the same fault schedule on every run.
  std::atomic<uint64_t> conn_serial_{0};
  // EWMA of service-thread op handling time, the honest basis for the
  // QUEUE_FULL retry-after hint.
  std::atomic<int64_t> avg_op_ns_{1'000'000};

  std::thread accept_thread_;
  std::thread service_thread_;
  std::mutex conn_mu_;
  std::map<int, std::thread> connections_;  // fd -> reader thread

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  bool done_ = false;
};

}  // namespace rubberband

#endif  // SRC_SERVER_SERVER_H_

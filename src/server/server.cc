#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "src/server/framing.h"

namespace rubberband {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), limiter_(options.rate), queue_(options.queue_capacity) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  // Open() resumes an existing WAL (or starts fresh without one); throws
  // on a corrupt or mismatched journal — refusing to serve beats silently
  // diverging from acknowledged history.
  runner_ = ServiceRunner::Open(options_.runner);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad listen address '" + options_.host + "'";
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  service_thread_ = std::thread(&Server::ServiceLoop, this);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return true;
}

void Server::AcceptLoop() {
  // The listener fd is fixed for this thread's lifetime; Stop() closes it,
  // which makes accept() fail and ends the loop.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener closed (shutdown) or fatal
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // The kernel reuses fds of closed connections; reap the finished
    // reader thread that last owned this fd before handing it out again.
    auto stale = connections_.find(fd);
    if (stale != connections_.end()) {
      if (stale->second.joinable()) {
        stale->second.join();
      }
      connections_.erase(stale);
    }
    connections_.emplace(fd, std::thread(&Server::ConnectionLoop, this, fd));
  }
}

bool Server::Prescreen(const Request& request, std::string* response) {
  if (request.method == "submit") {
    if (draining_.load(std::memory_order_acquire)) {
      obs::Inc(metrics_.GetCounter("server.rejected.draining"));
      *response = ErrorResponse(request.id, kErrDraining, "server is draining");
      return true;
    }
    const RateDecision decision = limiter_.Admit(request.tenant, SteadyNowNs());
    if (!decision.admitted) {
      obs::Inc(metrics_.GetCounter("server.rejected.rate_limited"));
      *response = ErrorResponse(request.id, kErrRateLimited,
                                "tenant '" + request.tenant + "' over its submit rate",
                                decision.retry_after_ns / 1'000'000 + 1);
      return true;
    }
  }
  return false;
}

void Server::ConnectionLoop(int fd) {
  const uint64_t serial = conn_serial_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<Transport> transport = MakeTransport(fd, options_.fault, serial);
  const int idle_ms = options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms : -1;
  const int frame_ms = options_.frame_timeout_ms > 0 ? options_.frame_timeout_ms : -1;
  std::string payload;
  std::string error;
  while (!stopping_.load(std::memory_order_acquire)) {
    payload.clear();
    const int status = ReadFrame(*transport, &payload, &error, idle_ms, frame_ms);
    if (status == kTransportTimeout) {
      // Idle past the reaper deadline, or trickling a frame too slowly —
      // either way this reader thread is reclaimed.
      obs::Inc(metrics_.GetCounter("server.conn.idle_closed"));
      break;
    }
    if (status <= 0) {
      break;  // clean EOF, peer reset, or shutdown
    }

    Request request;
    std::string response;
    if (!ParseRequest(payload, &request, &error)) {
      obs::Inc(metrics_.GetCounter("server.rejected.bad_request"));
      response = ErrorResponse(JsonValue::MakeNull(), kErrBadRequest, error);
    } else {
      obs::Inc(metrics_.GetCounter("server.requests." + request.method));
      if (!Prescreen(request, &response)) {
        auto op = std::make_unique<PendingOp>();
        op->request = std::move(request);
        op->received_ns = SteadyNowNs();
        std::future<OpResult> future = op->reply.get_future();
        const JsonValue id = op->request.id;
        if (!queue_.TryPush(std::move(op))) {
          obs::Inc(metrics_.GetCounter("server.rejected.queue_full"));
          // Honest hint: a full queue drains in roughly depth * the moving
          // average op cost on the service thread.
          const int64_t retry_ms =
              queue_.capacity() * avg_op_ns_.load(std::memory_order_relaxed) / 1'000'000 + 1;
          response = ErrorResponse(id, kErrQueueFull, "admission queue full", retry_ms);
        } else {
          const OpResult result = future.get();
          response = result.ok ? OkResponse(id, result.body)
                               : ErrorResponse(id, result.code, result.message,
                                               result.retry_after_ms);
        }
      }
    }
    if (!WriteFrame(*transport, response, &error, frame_ms)) {
      break;
    }
  }
  ::close(fd);
}

void Server::ServiceLoop() {
  std::vector<std::unique_ptr<PendingOp>> batch;
  Histogram* decision_latency =
      metrics_.GetHistogram("server.submit.decision_ns", FineLatencyBucketsNs());
  while (true) {
    batch.clear();
    queue_.DrainFor(&batch, std::chrono::milliseconds(1));
    bool drained = false;
    for (std::unique_ptr<PendingOp>& op : batch) {
      const int64_t begin_ns = SteadyNowNs();
      OpResult result;
      if (op->request.method == "metrics") {
        const MetricsSnapshot server_metrics = ServerMetrics();
        result = runner_->Handle(op->request, &server_metrics);
      } else {
        result = runner_->Handle(op->request);
      }
      const int64_t end_ns = SteadyNowNs();

      // EWMA over op cost (alpha = 1/8) for the QUEUE_FULL retry hint.
      const int64_t prev = avg_op_ns_.load(std::memory_order_relaxed);
      avg_op_ns_.store(prev + (end_ns - begin_ns - prev) / 8, std::memory_order_relaxed);

      if (op->request.method == "submit" && result.ok) {
        obs::ObserveNanos(decision_latency, end_ns - op->received_ns);
      }
      if (op->request.method == "drain" && result.ok) {
        // The runner made the drain durable in the WAL before returning.
        draining_.store(true, std::memory_order_release);
        drained = true;
      }
      op->reply.set_value(std::move(result));
    }
    if (drained) {
      break;
    }
    if (stopping_.load(std::memory_order_acquire) && queue_.closed() && batch.empty() &&
        queue_.size() == 0) {
      break;
    }
    runner_->Tick();
  }
  // Fail any ops that raced in after the drain/stop cutoff.
  batch.clear();
  queue_.Close();
  queue_.DrainFor(&batch, std::chrono::milliseconds(0));
  for (std::unique_ptr<PendingOp>& op : batch) {
    op->reply.set_value(OpResult::Error(kErrDraining, "server stopped"));
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_ = true;
  }
  done_cv_.notify_all();
}

bool Server::draining() const { return draining_.load(std::memory_order_acquire); }

void Server::Kill() {
  Stop();
  // After the service thread is joined nothing touches the WAL; dropping
  // it without the close-time fsync models a process that died rather
  // than exited. (Bytes already write()n survive either way — true torn
  // tails are injected explicitly in tests via WalWriter::AppendTorn.)
  if (runner_ != nullptr) {
    runner_->AbandonWal();
  }
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return done_; });
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller still needs the joins below to have happened; the first
    // caller does them, so just wait for completion.
    Wait();
    return;
  }
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& entry : connections_) {
      // Read side only: unblocks readers parked in ReadFrame with an EOF
      // while letting a reply already in flight (e.g. the drain ack that
      // triggered this Stop) finish its write.
      ::shutdown(entry.first, SHUT_RD);
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& entry : connections_) {
      if (entry.second.joinable()) {
        entry.second.join();
      }
    }
    connections_.clear();
  }
  if (service_thread_.joinable()) {
    service_thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_ = true;
  }
  done_cv_.notify_all();
}

}  // namespace rubberband

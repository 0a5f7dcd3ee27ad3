// Per-tenant backpressure at the serving front door.
//
// Starts an in-process server with a per-tenant token bucket. A hog tenant
// submits as fast as the socket allows while a compliant tenant paces
// below the limit; over-limit traffic must bounce with RATE_LIMITED
// (honest retry-after) and the compliant tenant's admission latency must
// stay flat. Front-door throughput and latency are perfbench's server.*
// figures (perfbench/README.md).
//
//   --rate=200 --burst=20            per-tenant bucket
//   --seed=11                        service RNG seed
//   --json <path>                    write BENCH_server.json

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/obs/metrics.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace rubberband {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A tiny tuning job: admission still runs the real planner, but over a
// trivial search so the service thread stays submit-bound, not plan-bound.
JsonValue TinySubmitParams(const std::string& name) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(2));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(2));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(36'000.0));
  return params;
}

ServerOptions BaseOptions(uint64_t seed) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.runner.service.capacity_gpus = 64;
  options.runner.service.seed = seed;
  options.runner.auto_advance_step = 1.0;
  return options;
}

struct BackpressureResult {
  int64_t hog_admitted = 0;
  int64_t hog_rejected = 0;
  int64_t hog_other_errors = 0;
  bool retry_after_seen = false;
  int64_t compliant_admitted = 0;
  int64_t compliant_rejected = 0;
  double compliant_p99_ms = 0.0;
};

BackpressureResult RunBackpressure(double rate, double burst, int hog_requests, uint64_t seed) {
  ServerOptions options = BaseOptions(seed);
  options.rate.rate_per_second = rate;
  options.rate.burst = burst;
  Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return {};
  }

  BackpressureResult result;
  Histogram compliant_latency(FineLatencyBucketsNs());

  std::thread hog([&] {
    Client client;
    std::string conn_error;
    if (!client.Connect("127.0.0.1", server.port(), &conn_error)) {
      return;
    }
    for (int i = 0; i < hog_requests; ++i) {
      JsonValue response;
      std::string call_error;
      if (!client.Call("submit", TinySubmitParams("hog-" + std::to_string(i)), "hog",
                       &response, &call_error)) {
        break;
      }
      if (response.at("ok").bool_value()) {
        ++result.hog_admitted;
      } else if (response.at("error").at("code").string() == kErrRateLimited) {
        ++result.hog_rejected;
        if (response.at("error").Has("retry_after_ms")) {
          result.retry_after_seen = true;
        }
      } else {
        ++result.hog_other_errors;
      }
    }
  });

  std::thread compliant([&] {
    Client client;
    std::string conn_error;
    if (!client.Connect("127.0.0.1", server.port(), &conn_error)) {
      return;
    }
    // Pace at half the allowed rate: this tenant is never the problem.
    const auto gap = std::chrono::nanoseconds(static_cast<int64_t>(2e9 / rate));
    const int count = hog_requests / 20;
    for (int i = 0; i < count; ++i) {
      JsonValue response;
      std::string call_error;
      const int64_t t0 = NowNs();
      if (!client.Call("submit", TinySubmitParams("ok-" + std::to_string(i)), "compliant",
                       &response, &call_error)) {
        break;
      }
      compliant_latency.RecordNanos(NowNs() - t0);
      if (response.at("ok").bool_value()) {
        ++result.compliant_admitted;
      } else {
        ++result.compliant_rejected;
      }
      std::this_thread::sleep_for(gap);
    }
  });

  hog.join();
  compliant.join();
  server.Stop();
  result.compliant_p99_ms = compliant_latency.Snapshot().QuantileNs(0.99) / 1e6;
  return result;
}

bool WriteJson(const std::string& path, double rate, const BackpressureResult& bp) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"server_load\",\n");
  std::fprintf(file,
               "  \"backpressure\": {\"rate_per_s\": %.0f, \"hog_admitted\": %lld, "
               "\"hog_rate_limited\": %lld, \"retry_after_present\": %s, "
               "\"compliant_admitted\": %lld, \"compliant_rejected\": %lld, "
               "\"compliant_p99_ms\": %.3f}\n}\n",
               rate, static_cast<long long>(bp.hog_admitted),
               static_cast<long long>(bp.hog_rejected), bp.retry_after_seen ? "true" : "false",
               static_cast<long long>(bp.compliant_admitted),
               static_cast<long long>(bp.compliant_rejected), bp.compliant_p99_ms);
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  const double rate = flags.GetDouble("rate", 200.0);
  const double burst = flags.GetDouble("burst", 20.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));

  bench::Heading("per-tenant backpressure: hog vs compliant");
  const BackpressureResult bp = RunBackpressure(rate, burst, /*hog_requests=*/2000, seed);
  std::printf("hog:       %lld admitted, %lld rate-limited (retry-after %s), %lld other\n",
              static_cast<long long>(bp.hog_admitted), static_cast<long long>(bp.hog_rejected),
              bp.retry_after_seen ? "present" : "MISSING",
              static_cast<long long>(bp.hog_other_errors));
  std::printf("compliant: %lld admitted, %lld rejected, p99 %.3fms\n",
              static_cast<long long>(bp.compliant_admitted),
              static_cast<long long>(bp.compliant_rejected), bp.compliant_p99_ms);

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, rate, bp)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }

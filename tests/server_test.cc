// Serving front door: framing, the bounded admission queue, per-tenant
// token buckets, the wire protocol, the single-threaded ServiceRunner
// (including the drain → WAL resume identity contract), and the
// full framed-TCP server end to end over real sockets.

#include "src/server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/report_format.h"
#include "src/common/rng.h"
#include "src/rubberband.h"
#include "src/server/bounded_queue.h"
#include "src/server/client.h"
#include "src/server/framing.h"
#include "src/server/protocol.h"
#include "src/server/rate_limiter.h"
#include "src/server/service_runner.h"

namespace rubberband {
namespace {

// ---------------------------------------------------------------------------
// Framing.

TEST(Framing, RoundTripsAPayload) {
  std::string buffer = EncodeFrame(R"({"method":"ping"})");
  std::string payload;
  std::string error;
  ASSERT_EQ(DecodeFrame(buffer, &payload, &error), 1) << error;
  EXPECT_EQ(payload, R"({"method":"ping"})");
  EXPECT_TRUE(buffer.empty());
}

TEST(Framing, PartialFrameAsksForMoreBytes) {
  const std::string frame = EncodeFrame("hello");
  std::string payload;
  std::string error;
  // Just the prefix, then the prefix plus part of the payload: neither is
  // decodable, and neither consumes anything.
  for (size_t cut : {size_t{2}, size_t{4}, frame.size() - 1}) {
    std::string buffer = frame.substr(0, cut);
    EXPECT_EQ(DecodeFrame(buffer, &payload, &error), 0);
    EXPECT_EQ(buffer.size(), cut);
  }
}

TEST(Framing, DecodesBackToBackFramesInOrder) {
  std::string buffer = EncodeFrame("first") + EncodeFrame("second");
  std::string payload;
  std::string error;
  ASSERT_EQ(DecodeFrame(buffer, &payload, &error), 1);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(DecodeFrame(buffer, &payload, &error), 1);
  EXPECT_EQ(payload, "second");
  EXPECT_EQ(DecodeFrame(buffer, &payload, &error), 0);
}

TEST(Framing, RejectsAnOversizedAnnouncement) {
  // A hand-built prefix announcing kMaxFrameBytes + 1 must fail before any
  // payload bytes arrive — the cap is enforced on the announcement.
  const uint32_t size = kMaxFrameBytes + 1;
  std::string buffer;
  buffer.push_back(static_cast<char>((size >> 24) & 0xff));
  buffer.push_back(static_cast<char>((size >> 16) & 0xff));
  buffer.push_back(static_cast<char>((size >> 8) & 0xff));
  buffer.push_back(static_cast<char>(size & 0xff));
  std::string payload;
  std::string error;
  EXPECT_EQ(DecodeFrame(buffer, &payload, &error), -1);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Bounded admission queue.

TEST(BoundedQueue, RejectsPushesWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: reject, never block
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueue, DrainMovesEverythingAtOnce) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  std::vector<int> out;
  EXPECT_EQ(queue.DrainFor(&out, std::chrono::milliseconds(10)), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, CloseRejectsNewPushesButDrainsTheBacklog) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));
  std::vector<int> out;
  EXPECT_EQ(queue.DrainFor(&out, std::chrono::milliseconds(10)), 1u);
  EXPECT_EQ(out, (std::vector<int>{7}));
  // Closed and empty: the consumer gets 0 immediately, not a hang.
  EXPECT_EQ(queue.DrainFor(&out, std::chrono::milliseconds(10)), 0u);
}

// ---------------------------------------------------------------------------
// Per-tenant token buckets (synthetic timestamps — fully deterministic).

constexpr int64_t kSecondNs = 1'000'000'000;

TEST(RateLimiter, DisabledConfigAdmitsEverything) {
  RateLimiter limiter(RateLimitConfig{});  // rate 0 = disabled
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.Admit("anyone", 0).admitted);
  }
}

TEST(RateLimiter, BurstThenHonestRetryAfter) {
  RateLimiter limiter(RateLimitConfig{/*rate_per_second=*/1.0, /*burst=*/2.0});
  ASSERT_TRUE(limiter.enabled());
  EXPECT_TRUE(limiter.Admit("a", 0).admitted);
  EXPECT_TRUE(limiter.Admit("a", 0).admitted);
  const RateDecision rejected = limiter.Admit("a", 0);
  EXPECT_FALSE(rejected.admitted);
  // One token deficit at 1 token/s: the honest hint is one second.
  EXPECT_NEAR(static_cast<double>(rejected.retry_after_ns), kSecondNs, 1e6);
  // Waiting exactly the advertised time makes the next request admissible.
  EXPECT_TRUE(limiter.Admit("a", rejected.retry_after_ns).admitted);
}

TEST(RateLimiter, TenantsHaveIndependentBuckets) {
  RateLimiter limiter(RateLimitConfig{/*rate_per_second=*/1.0, /*burst=*/1.0});
  EXPECT_TRUE(limiter.Admit("hog", 0).admitted);
  EXPECT_FALSE(limiter.Admit("hog", 0).admitted);
  // The hog draining its bucket must not touch anyone else's.
  EXPECT_TRUE(limiter.Admit("compliant", 0).admitted);
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(Protocol, ParsesAnEnvelopeWithDefaults) {
  Request request;
  std::string error;
  ASSERT_TRUE(ParseRequest(R"({"id": 7, "method": "status"})", &request, &error)) << error;
  EXPECT_EQ(request.method, "status");
  EXPECT_EQ(request.tenant, "default");
  EXPECT_TRUE(request.params.is_object());
  EXPECT_DOUBLE_EQ(request.id.number(), 7.0);
}

TEST(Protocol, RejectsMalformedEnvelopes) {
  Request request;
  std::string error;
  EXPECT_FALSE(ParseRequest("not json", &request, &error));
  EXPECT_FALSE(ParseRequest("[1, 2]", &request, &error));
  EXPECT_FALSE(ParseRequest(R"({"id": 1})", &request, &error));  // no method
  EXPECT_FALSE(ParseRequest(R"({"method": 42})", &request, &error));
}

TEST(Protocol, ResponsesEchoTheIdAndCarryRetryAfter) {
  const JsonValue ok = JsonValue::Parse(OkResponse(JsonValue::MakeNumber(3),
                                                   JsonValue::MakeObject()));
  EXPECT_DOUBLE_EQ(ok.at("id").number(), 3.0);
  EXPECT_TRUE(ok.at("ok").bool_value());

  const JsonValue err = JsonValue::Parse(
      ErrorResponse(JsonValue::MakeString("x"), kErrRateLimited, "slow down", 120));
  EXPECT_EQ(err.at("id").string(), "x");
  EXPECT_FALSE(err.at("ok").bool_value());
  EXPECT_EQ(err.at("error").at("code").string(), kErrRateLimited);
  EXPECT_DOUBLE_EQ(err.at("error").at("retry_after_ms").number(), 120.0);
  // retry_after_ms is only present on backpressure responses.
  const JsonValue plain =
      JsonValue::Parse(ErrorResponse(JsonValue::MakeNull(), kErrNotFound, "nope"));
  EXPECT_FALSE(plain.at("error").Has("retry_after_ms"));
}

TEST(Protocol, JobRequestValidationNamesTheField) {
  JobRequest job;
  std::string error;
  JsonValue params = JsonValue::MakeObject();
  params.Set("deadline_s", JsonValue::MakeNumber(3600));
  EXPECT_FALSE(ParseJobRequest(params, &job, &error));
  EXPECT_NE(error.find("name"), std::string::npos);

  params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString("exp"));
  EXPECT_FALSE(ParseJobRequest(params, &job, &error));
  EXPECT_NE(error.find("deadline"), std::string::npos);
}

TEST(Protocol, JournalParamsRoundTripTheJob) {
  // The journal stores ops in the same shape `submit` accepts, so a
  // snapshot's replay parses the exact job back — including the explicit
  // stage list (eta is not recoverable from stages, so stages travel
  // verbatim).
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString("exp1"));
  params.Set("trials", JsonValue::MakeNumber(8));
  params.Set("min_iters", JsonValue::MakeNumber(2));
  params.Set("max_iters", JsonValue::MakeNumber(14));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(1800));
  params.Set("weight", JsonValue::MakeNumber(2.0));

  JobRequest job;
  std::string error;
  ASSERT_TRUE(ParseJobRequest(params, &job, &error)) << error;

  JobRequest replayed;
  ASSERT_TRUE(ParseJobRequest(JobRequestToParams(job), &replayed, &error)) << error;
  ASSERT_EQ(replayed.spec.num_stages(), job.spec.num_stages());
  for (int i = 0; i < job.spec.num_stages(); ++i) {
    EXPECT_EQ(replayed.spec.stage(i).num_trials, job.spec.stage(i).num_trials);
    EXPECT_EQ(replayed.spec.stage(i).iters_per_trial, job.spec.stage(i).iters_per_trial);
  }
  EXPECT_EQ(replayed.name, job.name);
  EXPECT_EQ(replayed.workload.name, job.workload.name);
  EXPECT_DOUBLE_EQ(replayed.deadline, job.deadline);
  EXPECT_DOUBLE_EQ(replayed.weight, job.weight);
}

// ---------------------------------------------------------------------------
// ServiceRunner: the single-threaded request handler.

RunnerOptions SmallRunner(uint64_t seed = 11) {
  RunnerOptions options;
  options.service.cloud.instance = P3_8xlarge();
  options.service.cloud.provisioning = ProvisioningModel::Fixed(30.0, 60.0);
  options.service.capacity_gpus = 16;
  options.service.seed = seed;
  options.auto_advance_step = 0.0;  // tests drive time explicitly
  return options;
}

Request Req(const std::string& method, JsonValue params = JsonValue::MakeObject(),
            const std::string& tenant = "default") {
  Request request;
  request.method = method;
  request.params = std::move(params);
  request.tenant = tenant;
  return request;
}

JsonValue SubmitParams(const std::string& name, double deadline_s = 36'000.0) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(4));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(4));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(deadline_s));
  return params;
}

JsonValue AdvanceParams(double seconds) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("seconds", JsonValue::MakeNumber(seconds));
  return params;
}

// Advances the runner's service until it is idle (all admitted jobs done).
void RunToQuiescence(ServiceRunner& runner) {
  for (int i = 0; i < 10'000 && runner.service().HasPendingEvents(); ++i) {
    runner.Handle(Req("advance", AdvanceParams(600.0)));
  }
  ASSERT_TRUE(runner.service().LiveIdle());
}

TEST(ServiceRunner, SubmitDecisionIsSynchronous) {
  ServiceRunner runner(SmallRunner());
  const OpResult result = runner.Handle(Req("submit", SubmitParams("exp1")));
  ASSERT_TRUE(result.ok) << result.message;
  // The admission decision (not execution) lands before the response: an
  // ample-capacity submit is RUNNING, not PENDING.
  EXPECT_EQ(result.body.at("state").string(), "RUNNING");
  EXPECT_EQ(result.body.at("job").string(), "exp1");
}

// The wire report renders through the CLI's formatter with the runner's
// own cloud, so a spot service's report carries the spot: line that
// `serve --spot` prints.
TEST(ServiceRunner, SpotReportTextMatchesTheCliFormatter) {
  RunnerOptions options = SmallRunner();
  options.service.cloud.spot.enabled = true;
  options.service.cloud.spot.mean_time_to_preemption = 1200.0;
  ServiceRunner runner(options);
  ASSERT_TRUE(runner.Handle(Req("submit", SubmitParams("exp1"))).ok);
  RunToQuiescence(runner);
  const OpResult report = runner.Handle(Req("report"));
  ASSERT_TRUE(report.ok) << report.message;
  const ServiceReport snapshot = runner.service().SnapshotReport();
  ASSERT_EQ(snapshot.completed, 1);
  const std::string text = report.body.at("text").string();
  EXPECT_EQ(text, FormatServiceJobTable(snapshot) +
                      FormatServiceSummary(snapshot, options.service.cloud));
  EXPECT_NE(text.find("spot: saved"), std::string::npos) << text;
}

TEST(ServiceRunner, StatusAndCancelErrorsUseTheClosedVocabulary) {
  ServiceRunner runner(SmallRunner());
  JsonValue who = JsonValue::MakeObject();
  who.Set("job", JsonValue::MakeString("ghost"));
  EXPECT_EQ(runner.Handle(Req("status", who)).code, kErrNotFound);
  EXPECT_EQ(runner.Handle(Req("cancel", who)).code, kErrNotFound);
  EXPECT_EQ(runner.Handle(Req("nonsense")).code, kErrBadRequest);

  // Cancelling a running job is a state conflict, not a missing job.
  runner.Handle(Req("submit", SubmitParams("exp1")));
  JsonValue running = JsonValue::MakeObject();
  running.Set("job", JsonValue::MakeString("exp1"));
  EXPECT_EQ(runner.Handle(Req("cancel", running)).code, kErrConflict);
}

TEST(ServiceRunner, DrainRefusesNewSubmitsAndReportsInFlight) {
  ServiceRunner runner(SmallRunner());
  runner.Handle(Req("submit", SubmitParams("exp1")));
  const OpResult drained = runner.Handle(Req("drain"));
  ASSERT_TRUE(drained.ok) << drained.message;
  EXPECT_DOUBLE_EQ(drained.body.at("in_flight").number(), 1.0);
  EXPECT_TRUE(runner.draining());
  EXPECT_EQ(runner.Handle(Req("submit", SubmitParams("exp2"))).code, kErrDraining);
}

// The acceptance contract: drain mid-run (mode "snapshot"), reopen the
// same WAL, and every job — in-flight at the drain or already done —
// finishes with a report bit-identical to a run that was never interrupted.
TEST(ServiceRunner, SnapshotRestoreMatchesAnUninterruptedRun) {
  // Control: two jobs run start to finish in one process.
  ServiceRunner control(SmallRunner());
  control.Handle(Req("submit", SubmitParams("exp1")));
  control.Handle(Req("advance", AdvanceParams(120.0)));
  control.Handle(Req("submit", SubmitParams("exp2")));
  RunToQuiescence(control);

  // Interrupted: same ops, but drained mid-flight and resumed from the WAL.
  RunnerOptions options = SmallRunner();
  options.wal_path = testing::TempDir() + "/rb_runner_drain_resume.wal";
  auto first = std::make_unique<ServiceRunner>(options);
  first->Handle(Req("submit", SubmitParams("exp1")));
  first->Handle(Req("advance", AdvanceParams(120.0)));
  first->Handle(Req("submit", SubmitParams("exp2")));
  // Mid-provisioning for exp2, mid-stage for exp1: both still in flight.
  first->Handle(Req("advance", AdvanceParams(60.0)));
  const OpResult drained = first->Handle(Req("drain"));
  ASSERT_TRUE(drained.ok);
  EXPECT_DOUBLE_EQ(drained.body.at("in_flight").number(), 2.0);
  EXPECT_EQ(drained.body.at("wal_path").string(), options.wal_path);
  first.reset();

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(options);
  EXPECT_EQ(resumed->service().now(), drained.body.at("now_s").number());
  EXPECT_FALSE(resumed->draining());
  RunToQuiescence(*resumed);

  ASSERT_EQ(resumed->service().num_jobs(), control.service().num_jobs());
  for (size_t i = 0; i < control.service().num_jobs(); ++i) {
    const JobOutcome& a = control.service().outcome(i);
    const JobOutcome& b = resumed->service().outcome(i);
    EXPECT_EQ(b.state, a.state) << a.name;
    EXPECT_DOUBLE_EQ(b.jct, a.jct) << a.name;
    EXPECT_EQ(b.cost.micros(), a.cost.micros()) << a.name;
    EXPECT_DOUBLE_EQ(b.best_accuracy, a.best_accuracy) << a.name;
    EXPECT_EQ(b.preemptions, a.preemptions) << a.name;
  }
  std::remove(options.wal_path.c_str());
}

// A job that completed BEFORE the drain must survive the restart: the
// resume replays it and verifies its outcome against the WAL digest.
TEST(ServiceRunner, CompletedReportsSurviveRestore) {
  RunnerOptions options = SmallRunner();
  options.wal_path = testing::TempDir() + "/rb_runner_completed_resume.wal";
  auto first = std::make_unique<ServiceRunner>(options);
  first->Handle(Req("submit", SubmitParams("done-before-drain")));
  RunToQuiescence(*first);
  first->Handle(Req("submit", SubmitParams("in-flight")));
  const OpResult drained = first->Handle(Req("drain"));
  ASSERT_TRUE(drained.ok);

  const JobOutcome before = first->service().outcome(0);
  ASSERT_EQ(before.state, JobState::kCompleted);
  first.reset();

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(options);
  EXPECT_EQ(resumed->service().now(), drained.body.at("now_s").number());
  EXPECT_EQ(resumed->wal_stats().outcomes_verified, 1);
  const JobOutcome& after = resumed->service().outcome(0);
  EXPECT_EQ(after.state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(after.jct, before.jct);
  EXPECT_EQ(after.cost.micros(), before.cost.micros());
  std::remove(options.wal_path.c_str());
}

// ---------------------------------------------------------------------------
// Server end to end: real sockets, real threads.

ServerOptions SmallServer(uint64_t seed = 11) {
  ServerOptions options;
  options.runner = SmallRunner(seed);
  options.port = 0;  // kernel-assigned
  return options;
}

JsonValue MustCall(Client& client, const std::string& method, const JsonValue& params,
                   const std::string& tenant = "default") {
  JsonValue response;
  std::string error;
  EXPECT_TRUE(client.Call(method, params, tenant, &response, &error)) << error;
  EXPECT_TRUE(response.at("ok").bool_value()) << response.ToJson();
  return response.at("result");
}

TEST(ServerEndToEnd, SubmitStatusReportMetricsOverSockets) {
  Server server(SmallServer());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  const JsonValue submitted = MustCall(client, "submit", SubmitParams("exp1"));
  EXPECT_EQ(submitted.at("state").string(), "RUNNING");

  MustCall(client, "advance", AdvanceParams(600.0));
  const JsonValue status = MustCall(client, "status", JsonValue::MakeObject());
  ASSERT_EQ(status.at("jobs").size(), 1u);
  EXPECT_EQ(status.at("jobs").at(0).at("job").string(), "exp1");

  const JsonValue report = MustCall(client, "report", JsonValue::MakeObject());
  EXPECT_TRUE(report.Has("text"));

  // The metrics response merges the service registry with the server's own
  // request-path counters.
  const JsonValue metrics = MustCall(client, "metrics", JsonValue::MakeObject());
  const JsonValue& counters = metrics.at("metrics").at("counters");
  EXPECT_GE(counters.at("server.requests.submit").number(), 1.0);
  EXPECT_GE(counters.at("service.jobs_admitted").number(), 1.0);

  client.Close();
  server.Stop();
}

TEST(ServerEndToEnd, MalformedFramesGetBadRequestNotDisconnect) {
  Server server(SmallServer());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  // A well-formed frame holding garbage JSON: the server must answer (and
  // keep the connection) rather than drop it.
  JsonValue response;
  ASSERT_TRUE(client.Call("bogus-method", JsonValue::MakeObject(), "default", &response, &error))
      << error;
  EXPECT_FALSE(response.at("ok").bool_value());
  EXPECT_EQ(response.at("error").at("code").string(), kErrBadRequest);
  // Connection still usable.
  MustCall(client, "ping", JsonValue::MakeObject());
  server.Stop();
}

// A drain (mode "snapshot") pins its clock in the WAL before the ack; a
// server started on the same WAL resumes there and finishes the in-flight
// jobs exactly as an uninterrupted run would.
TEST(ServerEndToEnd, DrainPersistsSnapshotAndRestartFinishesInFlightJobs) {
  const std::string wal_path = testing::TempDir() + "/rb_server_test_drain.wal";
  std::remove(wal_path.c_str());

  // Control: the same op sequence, uninterrupted.
  ServiceRunner control(SmallRunner());
  control.Handle(Req("submit", SubmitParams("exp1")));
  control.Handle(Req("advance", AdvanceParams(120.0)));
  control.Handle(Req("submit", SubmitParams("exp2")));
  RunToQuiescence(control);

  ServerOptions options = SmallServer();
  options.runner.wal_path = wal_path;
  std::string error;
  double drained_now_s = 0.0;
  {
    Server server(options);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    MustCall(client, "submit", SubmitParams("exp1"));
    MustCall(client, "advance", AdvanceParams(120.0));
    MustCall(client, "submit", SubmitParams("exp2"));
    const JsonValue drained = MustCall(client, "drain", JsonValue::MakeObject());
    EXPECT_DOUBLE_EQ(drained.at("in_flight").number(), 2.0);
    EXPECT_EQ(drained.at("wal_path").string(), wal_path);
    drained_now_s = drained.at("now_s").number();
    server.Wait();  // returns once the drain has been fully served
    server.Stop();
  }

  {
    Server server(options);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    EXPECT_EQ(MustCall(client, "ping", JsonValue::MakeObject()).at("now_s").number(),
              drained_now_s);
    for (int i = 0; i < 200; ++i) {
      const JsonValue advanced = MustCall(client, "advance", AdvanceParams(600.0));
      if (advanced.at("idle").bool_value()) {
        break;
      }
    }
    const JsonValue status = MustCall(client, "status", JsonValue::MakeObject());
    ASSERT_EQ(status.at("jobs").size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      const JsonValue& job = status.at("jobs").at(i);
      const JobOutcome& expected = control.service().outcome(i);
      EXPECT_EQ(job.at("state").string(), "COMPLETED") << job.ToJson();
      // Identical to the run that was never interrupted, to the digit.
      EXPECT_DOUBLE_EQ(job.at("jct_s").number(), expected.jct);
      EXPECT_DOUBLE_EQ(job.at("cost_dollars").number(), expected.cost.dollars());
      EXPECT_DOUBLE_EQ(job.at("best_accuracy").number(), expected.best_accuracy);
    }
    server.Stop();
    EXPECT_TRUE(server.runner()->wal_stats().recovered);
  }
  std::remove(wal_path.c_str());
}

TEST(ServerEndToEnd, BackpressureBoundsTheHogAndSparesTheCompliant) {
  ServerOptions options = SmallServer();
  // Refill slow enough that even a sanitizer-throttled loop outpaces it:
  // at 2 tokens/s the hog's 40 submits can all be admitted only if the
  // loop takes 17+ seconds. The compliant tenant below is unaffected —
  // its 5 submits fit entirely within its own burst.
  options.rate.rate_per_second = 2.0;
  options.rate.burst = 5.0;
  std::string error;
  Server server(options);
  ASSERT_TRUE(server.Start(&error)) << error;

  Client hog;
  ASSERT_TRUE(hog.Connect("127.0.0.1", server.port(), &error)) << error;
  int admitted = 0;
  int rate_limited = 0;
  bool retry_after_present = true;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 40; ++i) {
    JsonValue response;
    ASSERT_TRUE(hog.Call("submit", SubmitParams("hog-" + std::to_string(i)), "hog",
                         &response, &error))
        << error;
    if (response.at("ok").bool_value()) {
      ++admitted;
    } else {
      ASSERT_EQ(response.at("error").at("code").string(), kErrRateLimited);
      ++rate_limited;
      retry_after_present =
          retry_after_present && response.at("error").Has("retry_after_ms") &&
          response.at("error").at("retry_after_ms").number() > 0.0;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // The hog's admissions are bounded by burst + rate * elapsed (plus one
  // token of slack); the rest were rejected with an honest retry hint.
  EXPECT_GT(rate_limited, 0);
  EXPECT_TRUE(retry_after_present);
  EXPECT_LE(admitted, 5.0 + 2.0 * elapsed_s + 1.0);

  // A compliant tenant staying inside its own burst is untouched by the
  // hog's rejections, and its submits decide promptly.
  Client compliant;
  ASSERT_TRUE(compliant.Connect("127.0.0.1", server.port(), &error)) << error;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const JsonValue result =
        MustCall(compliant, "submit", SubmitParams("ok-" + std::to_string(i)), "compliant");
    const double wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // Admitted (running, or queued behind the hog's jobs) — never rejected.
    const std::string& state = result.at("state").string();
    EXPECT_TRUE(state == "RUNNING" || state == "QUEUED") << state;
    EXPECT_LT(wait_s, 5.0);  // generous CI budget; typical is sub-ms
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Request-path concurrency (also registered under the tsan ctest label:
// tools/check.sh --tsan runs these under ThreadSanitizer).

TEST(ServerConcurrency, ParallelClientsMixingMethodsStayConsistent) {
  Server server(SmallServer());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 30;
  std::atomic<int> transport_errors{0};
  std::atomic<int> submits_admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", port, &err)) {
        transport_errors.fetch_add(1);
        return;
      }
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        JsonValue response;
        bool ok = false;
        switch (i % 4) {
          case 0:
            ok = client.Call("submit", SubmitParams(tenant + "-job-" + std::to_string(i)),
                             tenant, &response, &err);
            if (ok && response.at("ok").bool_value()) {
              submits_admitted.fetch_add(1);
            }
            break;
          case 1:
            ok = client.Call("status", JsonValue::MakeObject(), "default", &response, &err);
            break;
          case 2:
            ok = client.Call("ping", JsonValue::MakeObject(), "default", &response, &err);
            break;
          default:
            ok = client.Call("metrics", JsonValue::MakeObject(), "default", &response, &err);
            break;
        }
        if (!ok) {
          transport_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(transport_errors.load(), 0);

  // Every admitted submit is visible in one consistent status snapshot.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  const JsonValue status = MustCall(client, "status", JsonValue::MakeObject());
  EXPECT_EQ(static_cast<int>(status.at("jobs").size()), submits_admitted.load());
  server.Stop();
}

TEST(ServerConcurrency, StopUnblocksWaitersWhileClientsAreActive) {
  Server server(SmallServer());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  std::atomic<bool> keep_going{true};
  std::thread chatter([&] {
    Client client;
    std::string err;
    if (!client.Connect("127.0.0.1", port, &err)) {
      return;
    }
    JsonValue response;
    while (keep_going.load() &&
           client.Call("ping", JsonValue::MakeObject(), "default", &response, &err)) {
    }
  });
  std::thread waiter([&] { server.Wait(); });

  // Stop with live traffic: Wait() must return promptly and the chatter's
  // connection must fail cleanly, not hang.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop();
  waiter.join();
  keep_going.store(false);
  chatter.join();
}

// ---------------------------------------------------------------------------
// Fault paths: malformed byte streams, deadlines, wire faults, restarts.
// (ServerFault* also runs under the TSan tier — these paths cross the
// accept/reader/service threads in unusual orders.)

// A raw TCP connection for speaking garbage the Client refuses to send.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() { Close(); }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool ok() const { return fd_ >= 0; }
  void SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return;
      }
      sent += static_cast<size_t>(n);
    }
  }
  // Sends `payload` as one frame and returns the response frame's payload
  // (empty when the connection ends first).
  std::string RoundTrip(const std::string& payload) {
    SendAll(EncodeFrame(payload));
    std::string buffer;
    std::string response;
    std::string error;
    char chunk[4096];
    while (DecodeFrame(buffer, &response, &error) == 0) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return "";
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    return response;
  }
  // Blocks until the peer closes (or data arrives); true on clean EOF.
  bool WaitForEof() {
    char buffer[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return false;
      }
    }
  }

 private:
  int fd_ = -1;
};

// Pure-function property test: no byte sequence may crash the frame
// decoder or the envelope parser — only clean 1/0/-1 verdicts.
TEST(ServerFault, DecoderAndParserSurviveArbitraryBytes) {
  Rng rng(20260808);
  for (int round = 0; round < 500; ++round) {
    const size_t size = static_cast<size_t>(rng.UniformInt(0, 64));
    std::string bytes;
    for (size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    std::string buffer = bytes;
    std::string payload;
    std::string error;
    const int verdict = DecodeFrame(buffer, &payload, &error);
    EXPECT_GE(verdict, -1);
    EXPECT_LE(verdict, 1);
    Request request;
    ParseRequest(bytes, &request, &error);  // must not throw or crash
  }
  // Mutations of a VALID frame: every truncation, and every one-byte flip.
  const std::string frame = EncodeFrame(R"({"method":"ping","params":{}})");
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string buffer = frame.substr(0, cut);
    std::string payload;
    std::string error;
    EXPECT_EQ(DecodeFrame(buffer, &payload, &error), 0) << "cut " << cut;
  }
  for (size_t flip = 0; flip < frame.size(); ++flip) {
    std::string buffer = frame;
    buffer[flip] ^= 0x40;
    std::string payload;
    std::string error;
    const int verdict = DecodeFrame(buffer, &payload, &error);
    if (verdict == 1) {
      Request request;
      ParseRequest(payload, &request, &error);
    }
  }
}

TEST(ServerFault, MalformedByteStreamsNeverWedgeTheServer) {
  ServerOptions options = SmallServer();
  options.frame_timeout_ms = 200;  // stalled mid-frame garbage gets evicted
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Oversize-by-one announcement: refused at the prefix, connection closed.
  {
    const uint32_t size = kMaxFrameBytes + 1;
    std::string prefix;
    prefix.push_back(static_cast<char>((size >> 24) & 0xff));
    prefix.push_back(static_cast<char>((size >> 16) & 0xff));
    prefix.push_back(static_cast<char>((size >> 8) & 0xff));
    prefix.push_back(static_cast<char>(size & 0xff));
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    conn.SendAll(prefix);
    EXPECT_TRUE(conn.WaitForEof());
  }
  // Truncated prefix then EOF; a frame torn mid-payload then EOF.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    conn.SendAll("\x00\x00");
    conn.Close();
  }
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    const std::string frame = EncodeFrame(R"({"method":"ping"})");
    conn.SendAll(frame.substr(0, frame.size() - 3));
    conn.Close();
  }
  // A well-framed payload nested a million deep (under the frame cap) is a
  // bad request, not a parser stack overflow; the connection stays usable.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    const std::string response = conn.RoundTrip(std::string(1'000'000, '['));
    ASSERT_FALSE(response.empty()) << "no response to the deep frame";
    const JsonValue deep = JsonValue::Parse(response);
    EXPECT_FALSE(deep.at("ok").bool_value()) << response;
    EXPECT_EQ(deep.at("error").at("code").string(), kErrBadRequest) << response;
    const JsonValue ping = JsonValue::Parse(conn.RoundTrip(R"({"id":1,"method":"ping"})"));
    EXPECT_TRUE(ping.at("ok").bool_value()) << ping.ToJson();
  }
  // Seeded random garbage streams.
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    std::string bytes;
    for (int i = 0; i < 32; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    conn.SendAll(bytes);
    conn.Close();
  }

  // After all that abuse a clean client still gets served.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  MustCall(client, "ping", JsonValue::MakeObject());
  server.Stop();
}

TEST(ServerFault, IdleAndSlowLorisConnectionsAreReaped) {
  ServerOptions options = SmallServer();
  options.idle_timeout_ms = 150;
  options.frame_timeout_ms = 150;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Idle: connects, never sends a byte.
  RawConn idle(server.port());
  ASSERT_TRUE(idle.ok());
  // Slow loris: sends a prefix announcing 100 bytes, then one byte, then
  // stalls mid-frame.
  RawConn loris(server.port());
  ASSERT_TRUE(loris.ok());
  loris.SendAll(std::string("\x00\x00\x00\x64", 4) + "{");

  EXPECT_TRUE(idle.WaitForEof());
  EXPECT_TRUE(loris.WaitForEof());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const JsonValue metrics = MustCall(client, "metrics", JsonValue::MakeObject());
  EXPECT_GE(metrics.at("metrics").at("counters").at("server.conn.idle_closed").number(), 2.0);
  server.Stop();
}

TEST(ServerFault, ClientDeadlineExpiryIsACleanTimeoutError) {
  // A listener that accepts and never answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &bound_len);

  ClientOptions client_options;
  client_options.io_timeout_ms = 100;
  Client client(client_options);
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(bound.sin_port), &error)) << error;
  JsonValue response;
  EXPECT_FALSE(client.Call("ping", JsonValue::MakeObject(), "default", &response, &error));
  EXPECT_EQ(error.rfind("TIMEOUT", 0), 0u) << error;
  EXPECT_EQ(client.stats().timeouts, 1);
  EXPECT_FALSE(client.connected());  // a timed-out connection is unusable
  ::close(listener);
}

TEST(ServerFault, WireFaultInjectionYieldsCleanErrorsNotCrashes) {
  ServerOptions options = SmallServer();
  options.fault.seed = 4242;
  options.fault.reset_rate = 0.05;
  options.fault.short_write_rate = 0.3;
  options.fault.byte_flip_rate = 0.05;
  options.frame_timeout_ms = 500;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientOptions client_options;
  client_options.io_timeout_ms = 2'000;
  client_options.max_attempts = 5;
  client_options.base_backoff_ms = 1.0;
  client_options.max_backoff_ms = 10.0;
  client_options.seed = 99;
  Client client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // Under resets, short writes, and byte flips, every retried call must
  // land eventually — and the ones that fail mid-way must fail cleanly.
  int successes = 0;
  for (int i = 0; i < 40; ++i) {
    JsonValue response;
    if (client.CallIdempotent("ping", JsonValue::MakeObject(), "default",
                              /*idem=*/"", &response, &error)) {
      ++successes;
    }
  }
  EXPECT_GT(successes, 30) << "retries should ride out injected faults";
  server.Stop();
}

TEST(ServerFault, IdempotentRetryAcrossRestartSubmitsExactlyOnce) {
  const std::string wal_path = testing::TempDir() + "/rb_serverfault_restart.wal";
  std::remove(wal_path.c_str());

  ServerOptions options = SmallServer();
  options.runner.wal_path = wal_path;
  auto first = std::make_unique<Server>(options);
  std::string error;
  ASSERT_TRUE(first->Start(&error)) << error;
  const int port = first->port();

  ClientOptions client_options;
  client_options.max_attempts = 20;
  client_options.base_backoff_ms = 5.0;
  client_options.max_backoff_ms = 50.0;
  Client client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  JsonValue original;
  ASSERT_TRUE(client.CallIdempotent("submit", SubmitParams("exp1"), "default", "idem-7",
                                    &original, &error))
      << error;
  ASSERT_TRUE(original.at("ok").bool_value()) << original.ToJson();

  // kill -9: no drain, WAL abandoned mid-flight.
  first->Kill();
  first.reset();

  options.port = port;  // rebind the same front door
  Server second(options);
  ASSERT_TRUE(second.Start(&error)) << error;

  // The client never learned whether the first submit survived, so it
  // retries with the same key. The WAL-recovered server answers with the
  // journaled original decision and does NOT submit a second job.
  JsonValue retried;
  ASSERT_TRUE(client.CallIdempotent("submit", SubmitParams("exp1"), "default", "idem-7",
                                    &retried, &error))
      << error;
  EXPECT_EQ(retried.at("result").ToJson(), original.at("result").ToJson());
  EXPECT_GE(client.stats().reconnects, 1);

  const JsonValue status = MustCall(client, "status", JsonValue::MakeObject());
  EXPECT_EQ(status.at("jobs").size(), 1u);
  second.Stop();
  EXPECT_TRUE(second.runner()->wal_stats().recovered);
  EXPECT_EQ(second.runner()->idem_duplicates(), 1);
  std::remove(wal_path.c_str());
}

// JSON has no infinities. A literal past the double range must be a bad
// request, not a number: acknowledged and journaled as `inf`, it would
// make the WAL unreadable and the server unable to restart.
TEST(ServerFault, NonFiniteNumbersAreBadRequestsAndTheWalStillReopens) {
  const std::string wal_path = testing::TempDir() + "/rb_serverfault_nonfinite.wal";
  std::remove(wal_path.c_str());

  ServerOptions options = SmallServer();
  options.runner.wal_path = wal_path;
  auto first = std::make_unique<Server>(options);
  std::string error;
  ASSERT_TRUE(first->Start(&error)) << error;
  {
    RawConn conn(first->port());
    ASSERT_TRUE(conn.ok());
    const JsonValue submit = JsonValue::Parse(conn.RoundTrip(
        R"({"id":1,"method":"submit","params":{"name":"inf-deadline","trials":4,)"
        R"("min_iters":1,"max_iters":4,"eta":2,"deadline_s":1e999}})"));
    EXPECT_FALSE(submit.at("ok").bool_value()) << submit.ToJson();
    EXPECT_EQ(submit.at("error").at("code").string(), kErrBadRequest);
    const JsonValue advance = JsonValue::Parse(
        conn.RoundTrip(R"({"id":2,"method":"advance","params":{"seconds":1e999}})"));
    EXPECT_EQ(advance.at("error").at("code").string(), kErrBadRequest) << advance.ToJson();
  }
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", first->port(), &error)) << error;
  MustCall(client, "submit", SubmitParams("exp1"));
  // Finite steps that overflow the clock are refused too.
  MustCall(client, "advance", AdvanceParams(1e9));
  JsonValue response;
  ASSERT_TRUE(client.Call("advance", AdvanceParams(1e308), "default", &response, &error))
      << error;
  EXPECT_EQ(response.at("error").at("code").string(), kErrBadRequest) << response.ToJson();
  client.Close();
  first->Kill();
  first.reset();

  Server second(options);
  ASSERT_NO_THROW(ASSERT_TRUE(second.Start(&error)) << error);
  ASSERT_TRUE(client.Connect("127.0.0.1", second.port(), &error)) << error;
  const JsonValue status = MustCall(client, "status", JsonValue::MakeObject());
  ASSERT_EQ(status.at("jobs").size(), 1u);
  EXPECT_EQ(status.at("jobs").at(0).at("state").string(), "COMPLETED");
  client.Close();
  second.Stop();
  EXPECT_TRUE(second.runner()->wal_stats().recovered);
  std::remove(wal_path.c_str());
}

// Times past kMaxWireSeconds are refused before they are journaled. Out
// there a double no longer resolves a second: a job submitted at 1.7e308 s
// used to complete with jct_s 0, every stage event on the same instant.
TEST(ServerFault, TimesPastTheWireBoundAreBadRequests) {
  const std::string wal_path = testing::TempDir() + "/rb_serverfault_bound.wal";
  std::remove(wal_path.c_str());
  RunnerOptions options = SmallRunner();
  options.wal_path = wal_path;
  ServiceRunner runner(options);
  const auto submit = [](double submit_at_s, double deadline_s) {
    JsonValue params = SubmitParams("far", deadline_s);
    params.Set("submit_at_s", JsonValue::MakeNumber(submit_at_s));
    return Req("submit", std::move(params));
  };

  const int64_t appends = runner.wal_appends();
  EXPECT_EQ(runner.Handle(submit(1.7e308, 1.7e308)).code, kErrBadRequest);
  EXPECT_EQ(runner.Handle(submit(2e12, 3600.0)).code, kErrBadRequest);
  EXPECT_EQ(runner.Handle(submit(0.0, 2e12)).code, kErrBadRequest);
  EXPECT_EQ(runner.Handle(submit(6e11, 6e11)).code, kErrBadRequest);  // the sum
  EXPECT_EQ(runner.Handle(Req("advance", AdvanceParams(1.7e308))).code, kErrBadRequest);
  EXPECT_EQ(runner.Handle(Req("advance", AdvanceParams(2e12))).code, kErrBadRequest);
  EXPECT_EQ(runner.wal_appends(), appends);
  EXPECT_EQ(runner.service().now(), 0.0);

  // At the bound both are accepted, and the job's times still resolve.
  ASSERT_TRUE(runner.Handle(submit(5e11, 5e11)).ok);
  ASSERT_TRUE(runner.Handle(Req("advance", AdvanceParams(1e12))).ok);
  JsonValue who = JsonValue::MakeObject();
  who.Set("job", JsonValue::MakeString("far"));
  const OpResult status = runner.Handle(Req("status", who));
  ASSERT_TRUE(status.ok) << status.message;
  EXPECT_EQ(status.body.at("state").string(), "COMPLETED");
  EXPECT_GT(status.body.at("jct_s").number(), 60.0);
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace rubberband

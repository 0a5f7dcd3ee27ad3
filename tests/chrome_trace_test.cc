// Chrome trace-event exporter: the TraceEventType -> rule table, span
// derivation from raw traces, the pid/tid lane scheme, and the JSON shape.

#include "src/obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/rubberband.h"

namespace rubberband {
namespace {

TEST(ChromeTrace, EveryTraceEventTypeHasAnExportRule) {
  // Table-driven guard over the enum itself: every event kind in
  // [0, kNumTraceEventTypes) must map to a named rule, and any value past
  // the end must hit the empty sentinel. Adding an event kind without
  // extending ChromeRuleFor fails here (and -Wswitch flags the hole at
  // compile time first).
  std::set<std::string> names;
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    const ChromeEventRule rule = ChromeRuleFor(type);
    EXPECT_STRNE(rule.name, "") << ToString(type) << " has no Chrome export rule";
    names.insert(rule.name);
    // Open/close events must key into one of the span tables; a kNone
    // open/close would derive spans nobody can pair.
    if (rule.kind != ChromeEventRule::kInstant) {
      EXPECT_NE(rule.key, ChromeSpanKey::kNone) << ToString(type);
    }
  }
  EXPECT_STREQ(ChromeRuleFor(static_cast<TraceEventType>(kNumTraceEventTypes)).name, "");

  // Every span table has at least one opener and one closer.
  for (const ChromeSpanKey key :
       {ChromeSpanKey::kStage, ChromeSpanKey::kTrial, ChromeSpanKey::kInstance}) {
    bool has_open = false;
    bool has_close = false;
    for (int i = 0; i < kNumTraceEventTypes; ++i) {
      const ChromeEventRule rule = ChromeRuleFor(static_cast<TraceEventType>(i));
      if (rule.key != key) {
        continue;
      }
      has_open = has_open || rule.kind == ChromeEventRule::kOpen;
      has_close = has_close || rule.kind == ChromeEventRule::kClose;
    }
    EXPECT_TRUE(has_open);
    EXPECT_TRUE(has_close);
  }
}

TEST(ChromeTrace, SpansFromTracePairsOpensWithCloses) {
  ExecutionTrace trace;
  trace.Record(0.0, TraceEventType::kStageStart, 0);
  trace.Record(1.0, TraceEventType::kInstanceReady, 0, -1, 7);
  trace.Record(2.0, TraceEventType::kTrialStart, 0, 3);
  trace.Record(10.0, TraceEventType::kTrialComplete, 0, 3);
  trace.Record(11.0, TraceEventType::kInstanceReleased, 0, -1, 7);
  trace.Record(12.0, TraceEventType::kSync, 0);
  const Timeline spans = SpansFromTrace(trace);
  ASSERT_EQ(spans.size(), 3u);

  const std::vector<TimelineSpan> stage = spans.OfName("stage");
  ASSERT_EQ(stage.size(), 1u);
  EXPECT_DOUBLE_EQ(stage[0].start, 0.0);
  EXPECT_DOUBLE_EQ(stage[0].end, 12.0);
  EXPECT_EQ(stage[0].stage, 0);

  const std::vector<TimelineSpan> trial = spans.OfName("trial");
  ASSERT_EQ(trial.size(), 1u);
  EXPECT_DOUBLE_EQ(trial[0].start, 2.0);
  EXPECT_DOUBLE_EQ(trial[0].end, 10.0);
  EXPECT_EQ(trial[0].trial, 3);

  const std::vector<TimelineSpan> instance = spans.OfName("instance");
  ASSERT_EQ(instance.size(), 1u);
  EXPECT_DOUBLE_EQ(instance[0].start, 1.0);
  EXPECT_DOUBLE_EQ(instance[0].end, 11.0);
  EXPECT_EQ(instance[0].instance, 7);
}

TEST(ChromeTrace, SpansFromTraceClosesDanglingSpansAtTraceEnd) {
  ExecutionTrace trace;
  trace.Record(0.0, TraceEventType::kStageStart, 0);
  trace.Record(1.0, TraceEventType::kInstanceReady, 0, -1, 2);
  trace.Record(5.0, TraceEventType::kTrialStart, 0, 1);  // never completes
  const Timeline spans = SpansFromTrace(trace);
  ASSERT_EQ(spans.size(), 3u);
  for (const TimelineSpan& span : spans.spans()) {
    EXPECT_DOUBLE_EQ(span.end, 5.0) << span.name << " should close at the last event";
  }
}

TEST(ChromeTrace, SpansFromTraceHandlesAllCloseKindsAndOrphanCloses) {
  ExecutionTrace trace;
  trace.Record(0.0, TraceEventType::kInstanceReady, 0, -1, 1);
  trace.Record(2.0, TraceEventType::kPreemption, 0, -1, 1);  // close via preemption
  trace.Record(3.0, TraceEventType::kInstanceReady, 0, -1, 2);
  trace.Record(4.0, TraceEventType::kInstanceCrash, 0, -1, 2);  // close via crash
  trace.Record(5.0, TraceEventType::kPreemption, 0, -1, 99);    // orphan close: no span
  trace.Record(6.0, TraceEventType::kTrialStart, 0, 4);
  trace.Record(7.0, TraceEventType::kTrialRestart, 0, 4);  // close via restart
  const Timeline spans = SpansFromTrace(trace);
  EXPECT_EQ(spans.OfName("instance").size(), 2u);
  EXPECT_EQ(spans.OfName("trial").size(), 1u);
  EXPECT_EQ(spans.size(), 3u);  // the orphan preemption derived no span
}

TEST(ChromeTrace, BuilderLaneSchemePutsSpansOnTheRightTids) {
  Timeline timeline;
  timeline.Record(TimelineSpan{"stage-total", "executor", 0.0, 10.0, 1, 0});
  timeline.Record(TimelineSpan{"restore", "executor", 1.0, 2.0, 1, 0, 3});
  timeline.Record(TimelineSpan{"quarantine", "executor", 4.0, 5.0, 1, 0, -1, 6});
  ChromeTraceBuilder builder;
  builder.SetProcessName(1, "job");
  builder.AddTimeline(timeline);
  const JsonValue doc = JsonValue::Parse(builder.ToJson());
  ASSERT_TRUE(doc.is_object());

  double stage_tid = -1.0;
  double trial_tid = -1.0;
  double instance_tid = -1.0;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("name").string() == "stage-total") {
      stage_tid = event.at("tid").number();
    } else if (event.at("name").string() == "restore") {
      trial_tid = event.at("tid").number();
    } else if (event.at("name").string() == "quarantine") {
      instance_tid = event.at("tid").number();
    }
  }
  EXPECT_DOUBLE_EQ(stage_tid, 0.0);          // control lane
  EXPECT_DOUBLE_EQ(trial_tid, 100003.0);     // 100000 + trial 3
  EXPECT_DOUBLE_EQ(instance_tid, 16.0);      // 10 + instance 6
}

TEST(ChromeTrace, JsonDocumentIsWellFormedTraceEventFormat) {
  ExecutionTrace trace;
  trace.Record(0.0, TraceEventType::kStageStart, 0);
  trace.Record(1.5, TraceEventType::kReplan, 1);
  trace.Record(2.0, TraceEventType::kSync, 0);
  ChromeTraceBuilder builder;
  builder.SetProcessName(1, "job");
  builder.AddExecutionTrace(trace, 1);
  const JsonValue doc = JsonValue::Parse(builder.ToJson());

  ASSERT_TRUE(doc.Has("traceEvents"));
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  bool saw_metadata = false;
  bool saw_complete = false;
  bool saw_instant = false;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    ASSERT_TRUE(event.Has("name"));
    ASSERT_TRUE(event.Has("ph"));
    ASSERT_TRUE(event.Has("pid"));
    ASSERT_TRUE(event.Has("tid"));
    const std::string& phase = event.at("ph").string();
    if (phase == "M") {
      saw_metadata = true;
      EXPECT_TRUE(event.at("args").Has("name"));
      continue;
    }
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("cat"));
    if (phase == "X") {
      saw_complete = true;
      EXPECT_TRUE(event.Has("dur"));
      EXPECT_GE(event.at("dur").number(), 0.0);
    } else {
      ASSERT_EQ(phase, "i");
      saw_instant = true;
      EXPECT_EQ(event.at("s").string(), "t");  // instant scope
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);

  // Timestamps are microseconds: the replan at 1.5s lands at 1.5e6 us.
  bool found_replan = false;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("name").string() == "replan") {
      found_replan = true;
      EXPECT_DOUBLE_EQ(event.at("ts").number(), 1'500'000.0);
    }
  }
  EXPECT_TRUE(found_replan);
}

TEST(ChromeTrace, EmptyBuilderStillEmitsAValidDocument) {
  ChromeTraceBuilder builder;
  const JsonValue doc = JsonValue::Parse(builder.ToJson());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);
}

TEST(ChromeTrace, ReportExportCoversPhasesAndTraceUnderOnePid) {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  ExecutorOptions options;
  options.observe = true;
  const ExecutionReport report = ExecutePlan(MakeSha(8, 2, 14, 2), AllocationPlan({8, 8, 8}),
                                             ResNet101Cifar10(), cloud, options);
  ASSERT_FALSE(report.timeline.empty());
  const JsonValue doc = JsonValue::Parse(ChromeTraceFromReport(report));

  std::set<std::string> categories;
  std::set<std::string> names;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("ph").string() == "M") {
      continue;
    }
    EXPECT_DOUBLE_EQ(event.at("pid").number(), 1.0);
    categories.insert(event.at("cat").string());
    names.insert(event.at("name").string());
  }
  EXPECT_TRUE(categories.count("executor"));  // phase spans
  EXPECT_TRUE(categories.count("trace"));     // raw event markers + derived spans
  EXPECT_TRUE(names.count("stage-total"));
  EXPECT_TRUE(names.count("stage-run"));
  EXPECT_TRUE(names.count("provision"));
  EXPECT_TRUE(names.count("sync"));
}

TEST(ChromeTrace, ServiceExportGivesEachJobItsOwnProcess) {
  ServiceConfig config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  config.capacity_gpus = 32;
  config.observe = true;
  config.seed = 2;
  TuningService service(config);
  for (int i = 0; i < 2; ++i) {
    JobRequest job;
    job.name = "job-" + std::to_string(i);
    job.spec = MakeSha(8, 2, 14, 2);
    job.workload = ResNet101Cifar10();
    job.submit_at = 900.0 * i;
    job.deadline = Minutes(60);
    service.SubmitLive(job);
  }
  const ServiceReport report = service.Run();
  ASSERT_EQ(report.completed, 2);
  const JsonValue doc = JsonValue::Parse(ChromeTraceFromService(report));

  std::set<int> pids;
  std::set<std::string> process_names;
  for (const JsonValue& event : doc.at("traceEvents").array()) {
    if (event.at("name").string() == "process_name") {
      process_names.insert(event.at("args").at("name").string());
    }
    if (event.at("ph").string() != "M") {
      pids.insert(static_cast<int>(event.at("pid").number()));
    }
  }
  EXPECT_TRUE(process_names.count("service"));
  EXPECT_TRUE(process_names.count("job-0"));
  EXPECT_TRUE(process_names.count("job-1"));
  // Service spans on pid 1..2 (per-job lanes), job payloads on pids 1 and 2.
  EXPECT_TRUE(pids.count(1));
  EXPECT_TRUE(pids.count(2));
}

}  // namespace
}  // namespace rubberband

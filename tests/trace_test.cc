// Execution trace and the realized-utilization metric.

#include "src/executor/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile TestCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

TEST(Trace, CsvHasHeaderAndOneRowPerEvent) {
  ExecutionTrace trace;
  trace.Record(1.0, TraceEventType::kStageStart, 0);
  trace.Record(2.5, TraceEventType::kTrialStart, 0, 3);
  trace.Record(9.0, TraceEventType::kSync, 0);
  const std::string csv = trace.ToCsv();
  EXPECT_NE(csv.find("time_s,event,stage,trial,instance"), std::string::npos);
  EXPECT_NE(csv.find("1.000,STAGE_START,0,-1,-1"), std::string::npos);
  EXPECT_NE(csv.find("2.500,TRIAL_START,0,3,-1"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Trace, OfTypeFilters) {
  ExecutionTrace trace;
  trace.Record(1.0, TraceEventType::kTrialStart, 0, 1);
  trace.Record(2.0, TraceEventType::kTrialComplete, 0, 1);
  trace.Record(3.0, TraceEventType::kTrialStart, 0, 2);
  EXPECT_EQ(trace.OfType(TraceEventType::kTrialStart).size(), 2u);
  EXPECT_EQ(trace.OfType(TraceEventType::kSync).size(), 0u);
}

TEST(Trace, CountIsTheNumberOfEventsOfEachType) {
  ExecutionTrace trace;
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    for (int copy = 0; copy < i % 3; ++copy) {
      trace.Record(i + 0.5 * copy, static_cast<TraceEventType>(i), 0);
    }
  }
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    EXPECT_EQ(trace.Count(type), i % 3) << ToString(type);
  }
  EXPECT_EQ(ExecutionTrace().Count(TraceEventType::kPreemption), 0);
}

TEST(Trace, ExecutorEmitsCoherentEventLog) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const ExecutionReport report =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), TestCloud());
  const ExecutionTrace& trace = report.trace;

  EXPECT_EQ(trace.OfType(TraceEventType::kStageStart).size(), 3u);
  EXPECT_EQ(trace.OfType(TraceEventType::kSync).size(), 3u);
  // 8 + 4 + 2 trial-stage runs start and complete.
  EXPECT_EQ(trace.OfType(TraceEventType::kTrialStart).size(), 14u);
  EXPECT_EQ(trace.OfType(TraceEventType::kTrialComplete).size(), 14u);
  // 4 + 2 trials are terminated at the two intermediate barriers.
  EXPECT_EQ(trace.OfType(TraceEventType::kTrialTerminated).size(), 6u);
  // Instances: 2 provisioned up front, every one released by the end.
  EXPECT_EQ(trace.OfType(TraceEventType::kInstanceReady).size(), 2u);
  EXPECT_EQ(trace.OfType(TraceEventType::kInstanceReleased).size(), 2u);

  // Timestamps are non-decreasing.
  Seconds previous = 0.0;
  for (const TraceEvent& event : trace.events()) {
    EXPECT_GE(event.time, previous);
    previous = event.time;
  }
}

TEST(Trace, CsvRoundTripPreservesEveryEvent) {
  ExecutionTrace trace;
  trace.Record(0.0, TraceEventType::kStageStart, 0);
  trace.Record(12.125, TraceEventType::kInstanceReady, 0, -1, 7);
  trace.Record(13.0, TraceEventType::kTrialStart, 0, 3);
  trace.Record(90.5, TraceEventType::kPreemption, 1, -1, 7);
  trace.Record(91.0, TraceEventType::kTrialRestart, 1, 3);
  trace.Record(120.0, TraceEventType::kTrialComplete, 1, 3);
  trace.Record(121.0, TraceEventType::kTrialTerminated, 1, 4);
  trace.Record(122.0, TraceEventType::kSync, 1);
  trace.Record(123.0, TraceEventType::kInstanceReleased, 1, -1, 7);

  const std::string csv = trace.ToCsv();
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(csv);
  ASSERT_EQ(parsed.events().size(), trace.events().size());
  for (size_t i = 0; i < trace.events().size(); ++i) {
    const TraceEvent& original = trace.events()[i];
    const TraceEvent& round_tripped = parsed.events()[i];
    EXPECT_DOUBLE_EQ(round_tripped.time, original.time);
    EXPECT_EQ(round_tripped.type, original.type);
    EXPECT_EQ(round_tripped.stage, original.stage);
    EXPECT_EQ(round_tripped.trial, original.trial);
    EXPECT_EQ(round_tripped.instance, original.instance);
  }
  // Re-exporting reproduces the file byte for byte.
  EXPECT_EQ(parsed.ToCsv(), csv);
}

TEST(Trace, ExecutorTraceSurvivesTheCsvRoundTrip) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const ExecutionReport report =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), TestCloud());
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(report.trace.ToCsv());
  EXPECT_EQ(parsed.events().size(), report.trace.events().size());
  EXPECT_EQ(parsed.ToCsv(), report.trace.ToCsv());
}

TEST(Trace, FaultEventKindsRoundTripThroughCsv) {
  ExecutionTrace trace;
  trace.Record(1.0, TraceEventType::kInstanceCrash, 0, -1, 7);
  trace.Record(2.0, TraceEventType::kProvisionFailure, 0);
  trace.Record(3.0, TraceEventType::kProvisionRetry, 0);
  trace.Record(4.0, TraceEventType::kProvisionGiveUp, 1);
  trace.Record(5.0, TraceEventType::kCheckpointRetry, 1, 3);
  trace.Record(6.0, TraceEventType::kStageDegraded, 1);
  trace.Record(7.0, TraceEventType::kReplan, 2);
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(trace.ToCsv());
  ASSERT_EQ(parsed.events().size(), trace.events().size());
  for (size_t i = 0; i < trace.events().size(); ++i) {
    EXPECT_EQ(parsed.events()[i].type, trace.events()[i].type);
    EXPECT_EQ(parsed.events()[i].time, trace.events()[i].time);
    EXPECT_EQ(parsed.events()[i].stage, trace.events()[i].stage);
    EXPECT_EQ(parsed.events()[i].trial, trace.events()[i].trial);
    EXPECT_EQ(parsed.events()[i].instance, trace.events()[i].instance);
  }
  EXPECT_EQ(parsed.OfType(TraceEventType::kInstanceCrash)[0].instance, 7);
  EXPECT_EQ(parsed.OfType(TraceEventType::kCheckpointRetry)[0].trial, 3);
}

TEST(Trace, EveryEventKindRoundTripsThroughCsv) {
  // Table-driven over the enum itself: every kind in [0, kNumTraceEventTypes)
  // is serialized with distinctive field values and parsed back. A new event
  // kind is enrolled automatically once kNumTraceEventTypes is bumped (and
  // the guard test below makes sure it is bumped).
  ExecutionTrace trace;
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    trace.Record(0.125 * i, static_cast<TraceEventType>(i), i % 3, i % 2 == 0 ? i : -1,
                 i % 2 == 1 ? 100 + i : -1);
  }
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(trace.ToCsv());
  ASSERT_EQ(parsed.events().size(), static_cast<size_t>(kNumTraceEventTypes));
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEvent& original = trace.events()[static_cast<size_t>(i)];
    const TraceEvent& round_tripped = parsed.events()[static_cast<size_t>(i)];
    EXPECT_EQ(round_tripped.type, original.type) << ToString(original.type);
    EXPECT_DOUBLE_EQ(round_tripped.time, original.time) << ToString(original.type);
    EXPECT_EQ(round_tripped.stage, original.stage) << ToString(original.type);
    EXPECT_EQ(round_tripped.trial, original.trial) << ToString(original.type);
    EXPECT_EQ(round_tripped.instance, original.instance) << ToString(original.type);
  }
  EXPECT_EQ(parsed.ToCsv(), trace.ToCsv());

  // Names are real (never the UNKNOWN fallthrough) and pairwise distinct —
  // a duplicated name would make FromCsv ambiguous.
  std::set<std::string> names;
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    const std::string name = ToString(static_cast<TraceEventType>(i));
    EXPECT_NE(name, "UNKNOWN") << "enum value " << i << " has no name";
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTraceEventTypes));
}

TEST(Trace, EventKindCountGuardsExhaustiveness) {
  // Static guard: if an event kind is appended to the enum without bumping
  // kNumTraceEventTypes, the value at the boundary acquires a real name and
  // this expectation fails — forcing the bump, which in turn enrolls the
  // new kind in the exhaustive round-trip test above. Event kinds cannot
  // silently skip CSV coverage.
  EXPECT_EQ(ToString(static_cast<TraceEventType>(kNumTraceEventTypes)), "UNKNOWN");
  EXPECT_NE(ToString(static_cast<TraceEventType>(kNumTraceEventTypes - 1)), "UNKNOWN");
  EXPECT_THROW(TraceEventTypeFromString("UNKNOWN"), std::invalid_argument);
}

TEST(Trace, StragglerEventKindsRoundTripThroughCsv) {
  ExecutionTrace trace;
  trace.Record(10.0, TraceEventType::kStragglerDetected, 1, -1, 42);
  trace.Record(10.0, TraceEventType::kStragglerFalsePositive, 1, -1, 42);
  trace.Record(11.0, TraceEventType::kStragglerQuarantined, 1, -1, 42);
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(trace.ToCsv());
  ASSERT_EQ(parsed.events().size(), 3u);
  EXPECT_EQ(parsed.OfType(TraceEventType::kStragglerDetected)[0].instance, 42);
  EXPECT_EQ(parsed.OfType(TraceEventType::kStragglerQuarantined)[0].instance, 42);
  EXPECT_EQ(parsed.OfType(TraceEventType::kStragglerFalsePositive)[0].stage, 1);
}

TEST(Trace, FromCsvRejectsMalformedInput) {
  EXPECT_THROW(ExecutionTrace::FromCsv(""), std::invalid_argument);
  EXPECT_THROW(ExecutionTrace::FromCsv("time,event\n"), std::invalid_argument);
  const std::string header = "time_s,event,stage,trial,instance\n";
  EXPECT_THROW(ExecutionTrace::FromCsv(header + "1.0,NOT_AN_EVENT,0,-1,-1\n"),
               std::invalid_argument);
  EXPECT_THROW(ExecutionTrace::FromCsv(header + "1.0,SYNC,0\n"), std::invalid_argument);
  EXPECT_NO_THROW(ExecutionTrace::FromCsv(header));  // empty trace is fine
}

TEST(Trace, FromCsvCountsMalformedRowsInTolerantMode) {
  // With a parse-error out-param, FromCsv salvages every good row and
  // counts the bad ones instead of throwing — trace2chrome surfaces the
  // count so a partially corrupted log still converts.
  const std::string header = "time_s,event,stage,trial,instance\n";
  const std::string csv = header +
                          "1.000,STAGE_START,0,-1,-1\n"        // good
                          "garbage row with no commas\n"       // unparseable
                          "2.000,NOT_AN_EVENT,0,-1,-1\n"       // unknown event
                          "3.000,SYNC,0\n"                     // truncated
                          "3.500,SYNC,0,-1,-1,extra\n"         // too many fields
                          "4.000,SYNC,0,-1,-1\n";              // good
  int parse_errors = -1;
  const ExecutionTrace trace = ExecutionTrace::FromCsv(csv, &parse_errors);
  EXPECT_EQ(parse_errors, 4);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].type, TraceEventType::kStageStart);
  EXPECT_EQ(trace.events()[1].type, TraceEventType::kSync);
  EXPECT_DOUBLE_EQ(trace.events()[1].time, 4.0);
}

TEST(Trace, FromCsvTolerantModeStillRejectsABadHeader) {
  // Header damage means the file is not a trace at all; tolerant mode only
  // forgives row damage.
  int parse_errors = -1;
  EXPECT_THROW(ExecutionTrace::FromCsv("", &parse_errors), std::invalid_argument);
  EXPECT_THROW(ExecutionTrace::FromCsv("time,event\n1.0,SYNC\n", &parse_errors),
               std::invalid_argument);
}

TEST(Trace, FromCsvReportsZeroErrorsOnACleanFile) {
  ExecutionTrace trace;
  trace.Record(1.0, TraceEventType::kStageStart, 0);
  trace.Record(2.0, TraceEventType::kSync, 0);
  int parse_errors = -1;
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(trace.ToCsv(), &parse_errors);
  EXPECT_EQ(parse_errors, 0);
  EXPECT_EQ(parsed.events().size(), 2u);
}

TEST(Trace, FromCsvRejectsNumbersWithTrailingGarbage) {
  // std::stoi("12abc") silently truncates; the strict full-token parse must
  // reject it in both modes, not round-trip a garbled row as a different
  // event.
  const std::string header = "time_s,event,stage,trial,instance\n";
  const std::string bad_stage = header + "1.0,SYNC,0abc,-1,-1\n";
  const std::string bad_time = header + "1.0x,SYNC,0,-1,-1\n";
  const std::string bad_instance = header + "1.0,SYNC,0,-1,-1junk\n";
  EXPECT_THROW(ExecutionTrace::FromCsv(bad_stage), std::invalid_argument);
  EXPECT_THROW(ExecutionTrace::FromCsv(bad_time), std::invalid_argument);
  EXPECT_THROW(ExecutionTrace::FromCsv(bad_instance), std::invalid_argument);
  for (const std::string* csv : {&bad_stage, &bad_time, &bad_instance}) {
    int parse_errors = -1;
    const ExecutionTrace trace = ExecutionTrace::FromCsv(*csv, &parse_errors);
    EXPECT_EQ(parse_errors, 1);
    EXPECT_TRUE(trace.empty());
  }
}

TEST(Trace, PreemptionsAreInstanceScopedAndRestartsTrialScoped) {
  // A spot run exercises the recovery path: the provider reclaims machines
  // (instance-scoped events) and the executor restarts the trials that were
  // running on them (trial-scoped events).
  CloudProfile cloud = TestCloud();
  cloud.spot.enabled = true;
  cloud.spot.discount = 0.3;
  cloud.spot.mean_time_to_preemption = 240.0;
  ExecutorOptions options;
  options.seed = 5;
  const ExecutionReport report = ExecutePlan(MakeSha(8, 2, 14, 2), AllocationPlan({8, 8, 8}),
                                             ResNet101Cifar10(), cloud, options);
  const std::vector<TraceEvent> preemptions = report.trace.OfType(TraceEventType::kPreemption);
  ASSERT_FALSE(preemptions.empty());
  for (const TraceEvent& event : preemptions) {
    EXPECT_GE(event.instance, 0) << "preemption events name the reclaimed instance";
    EXPECT_EQ(event.trial, -1);
    EXPECT_GE(event.stage, 0);
  }

  const std::vector<TraceEvent> restarts = report.trace.OfType(TraceEventType::kTrialRestart);
  ASSERT_FALSE(restarts.empty());
  for (const TraceEvent& event : restarts) {
    EXPECT_GE(event.trial, 0) << "restart events name the restarted trial";
    EXPECT_EQ(event.instance, -1);
  }

  // The preemption path also survives the CSV round trip.
  const ExecutionTrace parsed = ExecutionTrace::FromCsv(report.trace.ToCsv());
  EXPECT_EQ(parsed.OfType(TraceEventType::kPreemption).size(), preemptions.size());
  EXPECT_EQ(parsed.OfType(TraceEventType::kTrialRestart).size(), restarts.size());
}

TEST(Trace, UtilizationIsAFraction) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const ExecutionReport report =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), TestCloud());
  EXPECT_GT(report.realized_utilization, 0.3);
  EXPECT_LE(report.realized_utilization, 1.0);
}

TEST(Trace, ElasticPlanBeatsStaticOnUtilization) {
  // The paper's central claim, measured: the elastic plan wastes fewer
  // provisioned GPU-seconds than a static cluster running the same spec.
  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  ExecutorOptions options;
  options.seed = 4;
  const ExecutionReport fixed =
      ExecutePlan(spec, AllocationPlan::Uniform(4, 24), workload, TestCloud(), options);
  const ExecutionReport elastic =
      ExecutePlan(spec, AllocationPlan({32, 20, 12, 8}), workload, TestCloud(), options);
  EXPECT_GT(elastic.realized_utilization, fixed.realized_utilization);
}

}  // namespace
}  // namespace rubberband

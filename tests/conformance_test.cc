// Sim-vs-execution conformance suite (its own ctest label: conformance).
//
// Over a grid of (planner x billing model x fault profile) cases, each with
// a fixed seed, the suite checks three contracts:
//   1. Planning brackets execution: the chosen planner's estimate (scored
//      by its PlanEvaluator) brackets the executed JCT and cost within
//      tolerance.
//   2. Metrics reconcile with the trace exactly: registry counters equal
//      the event counts in the execution trace, the stage-total phase spans
//      tile [0, JCT] (they sum to the executed makespan), and the cloud's
//      billed-seconds gauge equals the billing meter to the last bit.
//   3. Observability is inert: the same run with observe on and off
//      produces bit-identical results.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/rubberband.h"

namespace rubberband {
namespace {

// Every event-backed executor.* and spot.* counter and the trace event it
// counts. JobMetricsSum binds these names to trace counts; the checks below
// recount each trace by hand, so a wrong binding there fails here.
struct EventCounter {
  const char* metric;
  TraceEventType type;
};

constexpr EventCounter kEventCounters[] = {
    {"executor.preemptions", TraceEventType::kPreemption},
    {"executor.crashes", TraceEventType::kInstanceCrash},
    {"executor.trial_restarts", TraceEventType::kTrialRestart},
    {"executor.provision_failures", TraceEventType::kProvisionFailure},
    {"executor.provision_retries", TraceEventType::kProvisionRetry},
    {"executor.capacity_shortfalls", TraceEventType::kProvisionGiveUp},
    {"executor.degraded_stages", TraceEventType::kStageDegraded},
    {"executor.replans", TraceEventType::kReplan},
    {"executor.checkpoint_retries", TraceEventType::kCheckpointRetry},
    {"executor.stragglers_detected", TraceEventType::kStragglerDetected},
    {"executor.stragglers_quarantined", TraceEventType::kStragglerQuarantined},
    {"executor.straggler_false_positives", TraceEventType::kStragglerFalsePositive},
    {"spot.preemption_warnings", TraceEventType::kPreemptionWarning},
    {"spot.market_fallbacks", TraceEventType::kMarketFallback},
    {"spot.preemptions", TraceEventType::kPreemption},
};

// Events of `type` in `trace`, counted without ExecutionTrace::Count.
int64_t EventsOfType(const ExecutionTrace& trace, TraceEventType type) {
  int64_t count = 0;
  for (const TraceEvent& event : trace.events()) {
    count += event.type == type ? 1 : 0;
  }
  return count;
}

enum class FaultCase { kNone, kSpot, kFaulty };

struct ConformanceCase {
  const char* planner = "greedy";
  BillingModel billing = BillingModel::kPerInstance;
  FaultCase faults = FaultCase::kNone;

  std::string Name() const {
    std::string name = planner;
    name += billing == BillingModel::kPerInstance ? "_PerInstance" : "_PerFunction";
    switch (faults) {
      case FaultCase::kNone:
        name += "_FaultFree";
        break;
      case FaultCase::kSpot:
        name += "_Spot";
        break;
      case FaultCase::kFaulty:
        name += "_Faulty";
        break;
    }
    return name;
  }
};

std::vector<ConformanceCase> AllCases() {
  std::vector<ConformanceCase> cases;
  for (const char* planner : {"static", "naive", "greedy"}) {
    for (const BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
      for (const FaultCase faults : {FaultCase::kNone, FaultCase::kSpot, FaultCase::kFaulty}) {
        cases.push_back(ConformanceCase{planner, billing, faults});
      }
    }
  }
  return cases;
}

CloudProfile CaseCloud(const ConformanceCase& test_case) {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  cloud.pricing.billing = test_case.billing;
  switch (test_case.faults) {
    case FaultCase::kNone:
      break;
    case FaultCase::kSpot:
      cloud.spot.enabled = true;
      cloud.spot.discount = 0.3;
      cloud.spot.mean_time_to_preemption = 3'600.0;
      break;
    case FaultCase::kFaulty:
      cloud.fault.provision_failure_rate = 0.1;
      cloud.fault.mtbf = 3'600.0;
      cloud.fault.checkpoint_failure_rate = 0.02;
      break;
  }
  return cloud;
}

PlannedJob PlanCase(const ConformanceCase& test_case, const PlannerInputs& inputs) {
  PlanEvaluator evaluator(inputs, {});
  if (std::string(test_case.planner) == "static") {
    return PlanStatic(evaluator);
  }
  if (std::string(test_case.planner) == "naive") {
    return PlanNaiveElastic(evaluator);
  }
  return PlanGreedy(evaluator);
}

// Runs the planned job on its own simulation + cloud, wired by hand (not
// through ExecutePlan) so the test can inspect the provider's meter and
// registry afterwards.
struct ConformanceRun {
  ExecutionReport report;
  double billed_meter_seconds = 0.0;
  double billed_gauge_seconds = 0.0;
  MetricsSnapshot cloud_metrics;
};

ConformanceRun RunCase(const ConformanceCase& test_case, const PlannedJob& job,
                       const ExperimentSpec& spec, const WorkloadSpec& workload,
                       bool observe) {
  Simulation sim(0);
  SimulatedCloud cloud(sim, CaseCloud(test_case));
  ClusterContext context;
  context.sim = &sim;
  context.cloud = &cloud;
  context.source = &cloud;
  ExecutorOptions options;
  options.seed = 7;
  options.observe = observe;
  Executor executor(spec, job.plan, workload, context, options);
  cloud.SetPreemptionHandler([&](InstanceId id) {
    if (executor.OwnsInstance(id)) {
      executor.OnPreemption(id);
    }
  });
  cloud.SetCrashHandler([&](InstanceId id) {
    if (executor.OwnsInstance(id)) {
      executor.OnCrash(id);
    }
  });

  ConformanceRun run;
  bool done = false;
  executor.Start([&](const ExecutionReport& r) {
    run.report = r;
    // An executor's report carries no named metrics: the cluster's owner
    // binds the names by summing the report and exporting, as done here.
    JobMetricsSum sum;
    sum.Add(r);
    run.report.metrics = MetricsSnapshot{};
    sum.ExportTo(&run.report.metrics);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
  run.billed_meter_seconds = cloud.meter().TotalInstanceSeconds();
  run.cloud_metrics = cloud.metrics().Snapshot();
  auto it = run.cloud_metrics.gauges.find("cloud.billed_instance_seconds");
  run.billed_gauge_seconds = it != run.cloud_metrics.gauges.end() ? it->second : -1.0;
  return run;
}

class Conformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(Conformance, SimulationBracketsExecutionAndMetricsReconcile) {
  const ConformanceCase& test_case = GetParam();
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const PlannerInputs inputs{spec, profile, CaseCloud(test_case), Minutes(45)};
  const PlannedJob job = PlanCase(test_case, inputs);
  ASSERT_GT(job.plan.num_stages(), 0);

  const ConformanceRun run = RunCase(test_case, job, spec, workload, /*observe=*/true);
  const ExecutionReport& report = run.report;
  ASSERT_GT(report.jct, 0.0);

  // --- 1. The simulated estimate brackets the executed outcome. ---
  // Fault-free execution tracks the estimate closely; fault profiles pay
  // recovery time the estimate does not model, so their bracket is looser.
  const double jct_slack = test_case.faults == FaultCase::kNone ? 0.5 : 1.5;
  // The estimate prices on-demand; a spot execution pays the discounted
  // rate (30% here), so its cost floor sits below the discount factor.
  const double cost_floor = test_case.faults == FaultCase::kSpot ? 0.2 : 0.3;
  EXPECT_GE(report.jct, job.estimate.jct_mean * 0.5) << job.plan.ToString();
  EXPECT_LE(report.jct, job.estimate.jct_mean * (1.0 + jct_slack)) << job.plan.ToString();
  EXPECT_GE(report.cost.Total().dollars(), job.estimate.cost_mean.dollars() * cost_floor);
  EXPECT_LE(report.cost.Total().dollars(), job.estimate.cost_mean.dollars() * (1.0 + jct_slack));

  // --- 2a. Stage-total spans tile [0, JCT]: they sum to the makespan. ---
  const std::vector<TimelineSpan> stage_totals = report.timeline.OfName("stage-total");
  ASSERT_EQ(static_cast<int>(stage_totals.size()), job.plan.num_stages());
  double tiled = 0.0;
  Seconds previous_end = 0.0;
  for (const TimelineSpan& span : stage_totals) {
    EXPECT_DOUBLE_EQ(span.start, previous_end) << "stage spans must tile without gaps";
    tiled += span.duration();
    previous_end = span.end;
  }
  EXPECT_NEAR(tiled, report.jct, 1e-6 * std::max(1.0, report.jct));
  EXPECT_DOUBLE_EQ(previous_end, report.jct);

  // --- 2b. Registry counters equal trace event counts exactly. ---
  const ExecutionTrace& trace = report.trace;
  const auto counter = [&](const char* name) {
    auto it = report.metrics.counters.find(name);
    return it != report.metrics.counters.end() ? it->second : 0;
  };
  for (const EventCounter& event_counter : kEventCounters) {
    EXPECT_EQ(counter(event_counter.metric), EventsOfType(trace, event_counter.type))
        << event_counter.metric;
  }

  // The report's scalar fields are views of the same counters.
  EXPECT_EQ(counter("executor.checkpoint_saves"), report.checkpoint_saves);
  EXPECT_EQ(counter("executor.checkpoint_fetches"), report.checkpoint_fetches);

  // --- 2c. The cloud's billed-seconds gauge equals the meter bit-exactly. ---
  EXPECT_DOUBLE_EQ(run.billed_gauge_seconds, run.billed_meter_seconds);
  // And the instance ledger balances: every launch was terminated or
  // reclaimed by the end of the run.
  const auto cloud_counter = [&](const char* name) {
    auto it = run.cloud_metrics.counters.find(name);
    return it != run.cloud_metrics.counters.end() ? it->second : 0;
  };
  EXPECT_EQ(cloud_counter("cloud.instances_launched"),
            cloud_counter("cloud.instances_terminated") +
                cloud_counter("cloud.instances_preempted") +
                cloud_counter("cloud.instances_crashed"));

  // --- 3. Observability is inert: observe off reproduces the run. ---
  const ConformanceRun baseline = RunCase(test_case, job, spec, workload, /*observe=*/false);
  EXPECT_DOUBLE_EQ(baseline.report.jct, report.jct);
  EXPECT_EQ(baseline.report.cost.Total().micros(), report.cost.Total().micros());
  EXPECT_DOUBLE_EQ(baseline.report.best_accuracy, report.best_accuracy);
  EXPECT_EQ(baseline.report.trace.ToCsv(), trace.ToCsv());
  EXPECT_TRUE(baseline.report.timeline.empty());  // spans are observe-only depth
  EXPECT_DOUBLE_EQ(baseline.billed_meter_seconds, run.billed_meter_seconds);

  // The exported artifacts are well-formed JSON documents.
  EXPECT_NO_THROW(JsonValue::Parse(report.metrics.ToJson()));
  EXPECT_NO_THROW(JsonValue::Parse(ChromeTraceFromReport(report)));
}

INSTANTIATE_TEST_SUITE_P(Grid, Conformance, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<ConformanceCase>& param_info) {
                           return param_info.param.Name();
                         });

TEST(ConformanceStandalone, ExecutePlanMetricsEqualItsOwnTrace) {
  // Provisioning callbacks can fire after the job finished: this seed's run
  // finishes at 709.4 s, and one more provisioning failure and retry land
  // at 713.1 s. The report's metrics must count them like its trace does,
  // while its cost stays settled at the finish instant.
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  cloud.fault.provision_failure_rate = 0.3;
  cloud.fault.init_failure_rate = 0.15;
  cloud.fault.mtbf = 600.0;
  ExecutorOptions options;
  options.seed = 13;
  const ExecutionReport report = ExecutePlan(MakeSha(8, 2, 14, 2), AllocationPlan({8, 8, 8}),
                                             ResNet101Cifar10(), cloud, options);
  ASSERT_FALSE(report.trace.events().empty());
  EXPECT_GT(report.trace.events().back().time, report.jct) << "no event landed after the finish";

  const auto counter = [&](const char* name) {
    auto it = report.metrics.counters.find(name);
    return it != report.metrics.counters.end() ? it->second : 0;
  };
  for (const EventCounter& event_counter : kEventCounters) {
    EXPECT_EQ(counter(event_counter.metric), EventsOfType(report.trace, event_counter.type))
        << event_counter.metric;
  }
  EXPECT_DOUBLE_EQ(report.metrics.gauges.at("executor.cost_dollars"),
                   report.cost.Total().dollars());
}

TEST(ConformanceService, ServiceMetricsReconcileWithJobReports) {
  // Fleet-level conformance: the service's merged snapshot equals the sum
  // of its per-job executor counters, and the billed-seconds gauge equals
  // the shared provider's meter.
  ServiceConfig config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  config.cloud.fault.provision_failure_rate = 0.05;
  config.cloud.fault.mtbf = 7'200.0;
  config.capacity_gpus = 32;
  config.observe = true;
  config.seed = 2;
  config.replan_on_faults = true;
  TuningService service(config);
  for (int i = 0; i < 3; ++i) {
    JobRequest job;
    job.name = "job-" + std::to_string(i);
    job.spec = MakeSha(8, 2, 14, 2);
    job.workload = ResNet101Cifar10();
    job.submit_at = 900.0 * i;
    job.deadline = Minutes(60);
    service.Submit(job);
  }
  const ServiceReport report = service.Run();
  ASSERT_EQ(report.completed, 3);

  const auto counter = [&](const char* name) {
    auto it = report.metrics.counters.find(name);
    return it != report.metrics.counters.end() ? it->second : 0;
  };
  EXPECT_EQ(counter("service.jobs_arrived"), 3);
  EXPECT_EQ(counter("service.jobs_completed"), 3);
  EXPECT_EQ(counter("executor.crashes"), report.total_crashes);
  EXPECT_EQ(counter("executor.provision_failures"), report.total_provision_failures);
  EXPECT_EQ(counter("executor.replans"), report.total_replans);

  // Per-job traces reconcile with the fleet counters.
  for (const EventCounter& event_counter : kEventCounters) {
    int64_t in_traces = 0;
    for (const JobOutcome& job : report.jobs) {
      in_traces += EventsOfType(job.trace, event_counter.type);
    }
    EXPECT_EQ(counter(event_counter.metric), in_traces) << event_counter.metric;
  }
  for (const JobOutcome& job : report.jobs) {
    // Each job's stage-total spans sum to its JCT.
    double tiled = 0.0;
    for (const TimelineSpan& span : job.timeline.OfName("stage-total")) {
      tiled += span.duration();
    }
    EXPECT_NEAR(tiled, job.jct, 1e-6 * std::max(1.0, job.jct)) << job.name;
  }

  // Fleet gauges mirror the report's headline numbers.
  EXPECT_DOUBLE_EQ(report.metrics.gauges.at("service.makespan_seconds"), report.makespan);
  EXPECT_DOUBLE_EQ(report.metrics.gauges.at("service.total_cost_dollars"),
                   report.total_cost.Total().dollars());
  EXPECT_NO_THROW(JsonValue::Parse(report.metrics.ToJson()));
  EXPECT_NO_THROW(JsonValue::Parse(ChromeTraceFromService(report)));
}

TEST(ConformanceService, ObserveOffServiceRunIsBitIdentical) {
  const auto run_service = [](bool observe) {
    ServiceConfig config;
    config.cloud.instance = P3_8xlarge();
    config.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
    config.capacity_gpus = 32;
    config.observe = observe;
    config.seed = 5;
    TuningService service(config);
    for (int i = 0; i < 2; ++i) {
      JobRequest job;
      job.name = "job-" + std::to_string(i);
      job.spec = MakeSha(8, 2, 14, 2);
      job.workload = ResNet101Cifar10();
      job.submit_at = 600.0 * i;
      job.deadline = Minutes(60);
      service.Submit(job);
    }
    return service.Run();
  };
  const ServiceReport on = run_service(true);
  const ServiceReport off = run_service(false);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.total_cost.Total().micros(), off.total_cost.Total().micros());
  ASSERT_EQ(on.jobs.size(), off.jobs.size());
  for (size_t i = 0; i < on.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(on.jobs[i].jct, off.jobs[i].jct);
    EXPECT_EQ(on.jobs[i].trace.ToCsv(), off.jobs[i].trace.ToCsv());
  }
  EXPECT_TRUE(off.timeline.empty());
  EXPECT_FALSE(on.timeline.empty());
}

}  // namespace
}  // namespace rubberband

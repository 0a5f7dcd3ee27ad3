// Mixed-scheduler service traces: one multi-tenant day admitting sha,
// hyperband, asha, random, and grid experiments side by side — everything
// completes, the whole day replays bit-for-bit, and an experiment-submitted
// SHA job is indistinguishable from one submitted as a plain JobRequest
// through SubmitLive().

#include "src/service/tuning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile ServiceCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(30.0, 60.0);
  return cloud;
}

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.cloud = ServiceCloud();
  config.capacity_gpus = 128;
  config.seed = 11;
  return config;
}

ExperimentIR MakeIr(SchedulerKind kind) {
  ExperimentIR ir;
  ir.scheduler = kind;
  switch (kind) {
    case SchedulerKind::kSha:
      ir.num_trials = 8;
      ir.min_iters = 2;
      ir.max_iters = 14;
      ir.reduction_factor = 2;
      break;
    case SchedulerKind::kHyperband:
      ir.max_iters = 9;
      ir.reduction_factor = 3;
      break;
    case SchedulerKind::kAsha:
      ir.num_trials = 9;
      ir.min_iters = 2;
      ir.max_iters = 18;
      ir.reduction_factor = 3;
      break;
    case SchedulerKind::kRandom:
      ir.num_trials = 6;
      ir.max_iters = 10;
      break;
    case SchedulerKind::kGrid:
      ir.max_iters = 8;
      ir.grid = GridShape{2, 2, 2};
      break;
  }
  return ir;
}

ExperimentRequest MakeExperiment(SchedulerKind kind, Seconds submit_at, Seconds deadline) {
  ExperimentRequest request;
  request.name = ToString(kind);
  request.ir = MakeIr(kind);
  request.workload = ResNet101Cifar10();
  request.submit_at = submit_at;
  request.deadline = deadline;
  return request;
}

ServiceReport RunMixedTrace(const ServiceConfig& config) {
  TuningService service(config);
  Seconds submit_at = 0.0;
  for (const SchedulerKind kind :
       {SchedulerKind::kSha, SchedulerKind::kHyperband, SchedulerKind::kAsha,
        SchedulerKind::kRandom, SchedulerKind::kGrid}) {
    service.SubmitExperiment(MakeExperiment(kind, submit_at, 2.0 * 3600.0));
    submit_at += 60.0;
  }
  return service.Run();
}

TEST(MixedScheduler, FiveSchedulerKindsShareOneTrace) {
  ServiceConfig config = BaseConfig();
  config.warm_pool.max_parked = 16;
  config.warm_pool.max_idle_seconds = 600.0;

  const ServiceReport report = RunMixedTrace(config);

  // sha(1) + hyperband(3 brackets) + asha(1) + random(1) + grid(1) = 7 jobs.
  ASSERT_EQ(report.jobs.size(), 7u);
  EXPECT_EQ(report.completed, 7);
  EXPECT_EQ(report.rejected, 0);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_EQ(job.state, JobState::kCompleted) << job.name;
    EXPECT_GT(job.best_accuracy, 0.0) << job.name;
    EXPECT_GT(job.jct, 0.0) << job.name;
  }

  // Single-unit experiments keep their tenant name verbatim; hyperband's
  // brackets are named after their unit.
  std::vector<std::string> names;
  names.reserve(report.jobs.size());
  for (const JobOutcome& job : report.jobs) {
    names.push_back(job.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "sha"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "asha"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "random"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "grid"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "hyperband/bracket-2"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "hyperband/bracket-0"), names.end());

  EXPECT_GT(report.total_cost.Total().dollars(), 0.0);
  EXPECT_GT(report.aggregate_utilization, 0.0);
}

TEST(MixedScheduler, MixedTraceReplaysBitForBit) {
  const ServiceConfig config = BaseConfig();
  const ServiceReport a = RunMixedTrace(config);
  const ServiceReport b = RunMixedTrace(config);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].name, b.jobs[i].name);
    EXPECT_EQ(a.jobs[i].state, b.jobs[i].state);
    EXPECT_EQ(a.jobs[i].jct, b.jobs[i].jct) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].finished_at, b.jobs[i].finished_at) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].cost, b.jobs[i].cost) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].best_accuracy, b.jobs[i].best_accuracy) << a.jobs[i].name;
  }
  EXPECT_EQ(a.total_cost.Total(), b.total_cost.Total());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.instance_launches, b.instance_launches);
}

TEST(MixedScheduler, ShaExperimentMatchesLegacySubmit) {
  // A SHA experiment submitted through the IR front end must be
  // indistinguishable from the legacy JobRequest path: same job name, same
  // plan, same makespan, same billed cost, same winner.
  const ServiceConfig config = BaseConfig();

  JobRequest legacy_job;
  legacy_job.name = "tenant-a";
  legacy_job.spec = MakeSha(8, 2, 14, 2);
  legacy_job.workload = ResNet101Cifar10();
  legacy_job.deadline = 3600.0;
  TuningService legacy(config);
  legacy.SubmitLive(legacy_job);
  const ServiceReport legacy_report = legacy.Run();

  ExperimentRequest experiment;
  experiment.name = "tenant-a";
  experiment.ir = MakeIr(SchedulerKind::kSha);
  experiment.workload = ResNet101Cifar10();
  experiment.deadline = 3600.0;
  TuningService compiled(config);
  const std::vector<size_t> ids = compiled.SubmitExperiment(experiment);
  EXPECT_EQ(ids.size(), 1u);
  const ServiceReport compiled_report = compiled.Run();

  ASSERT_EQ(legacy_report.jobs.size(), 1u);
  ASSERT_EQ(compiled_report.jobs.size(), 1u);
  const JobOutcome& l = legacy_report.jobs[0];
  const JobOutcome& c = compiled_report.jobs[0];
  EXPECT_EQ(c.name, l.name);
  EXPECT_EQ(c.state, JobState::kCompleted);
  EXPECT_EQ(c.plan, l.plan);
  EXPECT_EQ(c.jct, l.jct);
  EXPECT_EQ(c.finished_at, l.finished_at);
  EXPECT_EQ(c.cost, l.cost);
  EXPECT_EQ(c.best_accuracy, l.best_accuracy);
  EXPECT_EQ(compiled_report.total_cost.Total(), legacy_report.total_cost.Total());
}

TEST(MixedScheduler, ExperimentBudgetSplitsAcrossBrackets) {
  // A hyperband experiment with a budget spreads it over the brackets in
  // proportion to their training work; every bracket must still be admitted.
  ServiceConfig config = BaseConfig();
  ExperimentRequest experiment = MakeExperiment(SchedulerKind::kHyperband, 0.0, 2.0 * 3600.0);
  experiment.budget = Money::FromDollars(500.0);

  TuningService service(config);
  const std::vector<size_t> ids = service.SubmitExperiment(experiment);
  EXPECT_EQ(ids.size(), 3u);
  const ServiceReport report = service.Run();
  EXPECT_EQ(report.completed, 3);
  EXPECT_EQ(report.rejected, 0);
}

TEST(MixedScheduler, InvalidExperimentIsRejectedAtSubmit) {
  TuningService service(BaseConfig());
  ExperimentRequest experiment = MakeExperiment(SchedulerKind::kSha, 0.0, 3600.0);
  experiment.ir.num_trials = 0;
  EXPECT_THROW(service.SubmitExperiment(experiment), std::invalid_argument);
}

}  // namespace
}  // namespace rubberband

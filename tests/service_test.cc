// Multi-tenant tuning service: fair-share arithmetic, admission control,
// deterministic multi-job execution on one shared simulation, and the
// warm-pool cost/latency win over cold provisioning.

#include "src/service/tuning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/rubberband.h"

namespace rubberband {
namespace {

// ---------------------------------------------------------------------------
// FairShares: weighted max-min division of the service's GPU capacity.

TEST(FairShare, AmpleCapacityGivesEveryoneTheirDemand) {
  const std::vector<int> shares = FairShares(100, {{30, 1.0}, {20, 1.0}, {10, 1.0}});
  EXPECT_EQ(shares, (std::vector<int>{30, 20, 10}));
}

TEST(FairShare, EqualWeightsSplitContendedCapacityEvenly) {
  const std::vector<int> shares = FairShares(8, {{8, 1.0}, {8, 1.0}});
  EXPECT_EQ(shares, (std::vector<int>{4, 4}));
}

TEST(FairShare, SmallDemandsRollTheirSlackForward) {
  // Job 0 needs only 2 of its 4-GPU slice; the slack flows to the others.
  const std::vector<int> shares = FairShares(12, {{2, 1.0}, {20, 1.0}, {20, 1.0}});
  EXPECT_EQ(shares, (std::vector<int>{2, 5, 5}));
}

TEST(FairShare, WeightsBiasTheSplit) {
  const std::vector<int> shares = FairShares(9, {{9, 2.0}, {9, 1.0}});
  EXPECT_EQ(shares, (std::vector<int>{6, 3}));
}

TEST(FairShare, IntegerRemainderIsHandedOutDeterministically) {
  // 7 GPUs over two equal contenders: the tie breaks toward the earlier
  // submission, every time.
  const std::vector<int> shares = FairShares(7, {{7, 1.0}, {7, 1.0}});
  EXPECT_EQ(shares[0] + shares[1], 7);
  EXPECT_EQ(shares, FairShares(7, {{7, 1.0}, {7, 1.0}}));
}

TEST(FairShare, EdgeCases) {
  EXPECT_TRUE(FairShares(10, {}).empty());
  EXPECT_EQ(FairShares(0, {{5, 1.0}}), (std::vector<int>{0}));
  EXPECT_EQ(FairShares(10, {{0, 1.0}, {4, 1.0}}), (std::vector<int>{0, 4}));
}

// The service skips the arbiter while the running jobs' demands fit in
// capacity, granting each job its whole demand (0 when its demand or
// weight is not positive). That shortcut must be exactly FairShares' answer,
// ties at sum(demand) == capacity included.
TEST(FairShare, DemandsThatFitAreGrantedWhole) {
  Rng rng(20261018);
  for (int set = 0; set < 50000; ++set) {
    const int jobs = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<ShareRequest> requests;
    std::vector<int> expected;
    int total_demand = 0;
    for (int j = 0; j < jobs; ++j) {
      ShareRequest request;
      request.demand = static_cast<int>(rng.UniformInt(-1, 64));
      // Mostly positive weights of assorted magnitudes, some zero or
      // negative, some equal (equal slices are where rounding bites).
      const int64_t kind = rng.UniformInt(0, 9);
      request.weight = kind == 0   ? 0.0
                       : kind == 1 ? -1.0
                       : kind < 5  ? 1.0
                                   : rng.Uniform(0.01, 10.0);
      requests.push_back(request);
      const bool counted = request.demand > 0 && request.weight > 0.0;
      expected.push_back(counted ? request.demand : 0);
      total_demand += std::max(0, request.demand);
    }
    // Half the sets sit exactly at capacity, the rest have some slack.
    const int slack = rng.UniformInt(0, 1) == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 8));
    const int capacity = total_demand + slack;
    ASSERT_EQ(FairShares(capacity, requests), expected) << "set " << set;
  }
}

// ---------------------------------------------------------------------------
// TuningService.

CloudProfile ServiceCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(30.0, 60.0);
  return cloud;
}

JobRequest MakeJob(const std::string& name, Seconds submit_at, Seconds deadline) {
  JobRequest job;
  job.name = name;
  job.spec = MakeSha(8, 2, 14, 2);
  job.workload = ResNet101Cifar10();
  job.submit_at = submit_at;
  job.deadline = deadline;
  return job;
}

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.cloud = ServiceCloud();
  config.capacity_gpus = 128;
  config.seed = 11;
  return config;
}

ServiceReport RunTrace(const ServiceConfig& config, const std::vector<JobRequest>& trace) {
  TuningService service(config);
  for (const JobRequest& job : trace) {
    service.SubmitLive(job);
  }
  return service.Run();
}

TEST(Service, EightConcurrentJobsRunDeterministically) {
  ServiceConfig config = BaseConfig();
  config.warm_pool.max_parked = 16;
  config.warm_pool.max_idle_seconds = 600.0;

  std::vector<JobRequest> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back(MakeJob("job-" + std::to_string(i), 30.0 * i, 3600.0));
  }

  const ServiceReport a = RunTrace(config, trace);
  const ServiceReport b = RunTrace(config, trace);

  EXPECT_EQ(a.completed, 8);
  EXPECT_EQ(a.rejected, 0);
  EXPECT_EQ(a.deadline_misses, 0);
  ASSERT_EQ(a.jobs.size(), 8u);
  ASSERT_EQ(b.jobs.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.jobs[i].state, JobState::kCompleted) << a.jobs[i].name;
    EXPECT_TRUE(a.jobs[i].met_deadline) << a.jobs[i].name;
    EXPECT_GT(a.jobs[i].best_accuracy, 0.5);
    // Same seed, same trace: the entire multi-tenant day replays bit-for-bit.
    EXPECT_DOUBLE_EQ(a.jobs[i].jct, b.jobs[i].jct) << a.jobs[i].name;
    EXPECT_DOUBLE_EQ(a.jobs[i].finished_at, b.jobs[i].finished_at);
    EXPECT_EQ(a.jobs[i].cost, b.jobs[i].cost);
  }
  EXPECT_EQ(a.total_cost.Total(), b.total_cost.Total());
  EXPECT_EQ(a.instance_launches, b.instance_launches);
  EXPECT_EQ(a.warm.warm_hits, b.warm.warm_hits);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Service, AdmittedJobsMeetTheirDeadlineOrAreRejectedUpFront) {
  ServiceConfig config = BaseConfig();

  std::vector<JobRequest> trace;
  trace.push_back(MakeJob("feasible-a", 0.0, 3600.0));
  // No plan finishes an 8-trial SHA sweep in 45 seconds: rejected at
  // admission, never run late.
  trace.push_back(MakeJob("impossible", 10.0, 45.0));
  trace.push_back(MakeJob("feasible-b", 20.0, 3600.0));

  const ServiceReport report = RunTrace(config, trace);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.deadline_misses, 0);
  EXPECT_EQ(report.jobs[1].state, JobState::kRejectedInfeasible);
  for (size_t i : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(report.jobs[i].state, JobState::kCompleted);
    EXPECT_TRUE(report.jobs[i].met_deadline);
    EXPECT_LE(report.jobs[i].finished_at, report.jobs[i].deadline_at);
  }
}

TEST(Service, WarmPoolCutsProvisioningEventsAndCost) {
  // Four identical jobs, two at a time through an 8-GPU cluster. The two
  // queued jobs dequeue the instant a predecessor finishes — exactly when
  // its fleet lands in the pool — so their scale-up is served warm. Init
  // latency is steep (300s, billed from launch), so each avoided
  // provisioning event saves far more than the pool's parked idling costs.
  ServiceConfig config = BaseConfig();
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 300.0);
  config.capacity_gpus = 8;
  config.seed = 3;

  std::vector<JobRequest> trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back(MakeJob("job-" + std::to_string(i), 1.0 * i, 4800.0));
  }

  ServiceConfig cold = config;
  cold.warm_pool.max_parked = 0;
  ServiceConfig warm = config;
  warm.warm_pool.max_parked = 8;
  warm.warm_pool.max_idle_seconds = 300.0;

  const ServiceReport cold_report = RunTrace(cold, trace);
  const ServiceReport warm_report = RunTrace(warm, trace);

  ASSERT_EQ(cold_report.completed, 4);
  ASSERT_EQ(warm_report.completed, 4);
  EXPECT_EQ(cold_report.deadline_misses, 0);
  EXPECT_EQ(warm_report.deadline_misses, 0);

  // The pool absorbed real provisioning events (each a paid init period).
  EXPECT_GT(warm_report.warm.warm_hits, 0);
  EXPECT_GT(warm_report.warm.HitRate(), 0.0);
  EXPECT_GT(warm_report.warm.init_seconds_saved, 0.0);
  EXPECT_LT(warm_report.instance_launches, cold_report.instance_launches);

  // And the account bill — including the pool's parked idle time — is
  // strictly lower than cold provisioning for the same trace.
  EXPECT_LT(warm_report.total_cost.Total().dollars(), cold_report.total_cost.Total().dollars());

  // Warm starts also shave queue+init off successors' time-to-first-trial.
  EXPECT_LE(warm_report.makespan, cold_report.makespan);
}

TEST(Service, CapacityContentionQueuesJobsFifo) {
  ServiceConfig config = BaseConfig();
  config.capacity_gpus = 8;

  std::vector<JobRequest> trace;
  // A 900s deadline forces the first job onto all 8 GPUs; the second must
  // wait for the whole cluster, then replans for its remaining time.
  trace.push_back(MakeJob("first", 0.0, 900.0));
  trace.push_back(MakeJob("second", 10.0, 1900.0));

  const ServiceReport report = RunTrace(config, trace);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.deadline_misses, 0);
  EXPECT_DOUBLE_EQ(report.jobs[0].queue_wait, 0.0);
  EXPECT_GT(report.jobs[1].queue_wait, 0.0);
  EXPECT_GE(report.jobs[1].started_at, report.jobs[0].finished_at);
  EXPECT_GT(report.mean_queue_wait, 0.0);

  // The dequeue re-plan runs on the same per-job evaluator as admission
  // (only the deadline moved), so the service-level cache metric must show
  // plan estimates served from the memo.
  EXPECT_GT(report.planner_cache.plan_evaluations, 0);
  EXPECT_GT(report.planner_cache.plan_memo_hits, 0);
  EXPECT_GT(report.planner_cache.PlanHitRate(), 0.0);
}

TEST(Service, QueuedJobWhoseDeadlineExpiresIsRejectedStaleNotLate) {
  ServiceConfig config = BaseConfig();
  config.capacity_gpus = 8;

  std::vector<JobRequest> trace;
  // The hog's tight deadline reserves the whole 8-GPU cluster until ~766s.
  trace.push_back(MakeJob("hog", 0.0, 900.0));
  // Feasible at arrival (solo it would finish in ~790s), but by the time
  // the hog releases the cluster only ~240s of its deadline remain.
  trace.push_back(MakeJob("squeezed", 10.0, 1000.0));

  const ServiceReport report = RunTrace(config, trace);
  EXPECT_EQ(report.jobs[0].state, JobState::kCompleted);
  EXPECT_EQ(report.jobs[1].state, JobState::kRejectedStale);
  // The contract: a job the service could not serve on time is reported,
  // never silently finished late.
  EXPECT_EQ(report.deadline_misses, 0);
}

TEST(Service, OvercommitMakesTheFairShareArbiterBind) {
  ServiceConfig config = BaseConfig();
  config.capacity_gpus = 8;
  config.overcommit = 2.0;  // admit two peak-8 jobs onto 8 GPUs

  std::vector<JobRequest> trace;
  // 900s deadlines make both plans peak at the full cluster.
  trace.push_back(MakeJob("a", 0.0, 900.0));
  trace.push_back(MakeJob("b", 0.0, 900.0));

  const ServiceReport report = RunTrace(config, trace);
  EXPECT_EQ(report.completed, 2);
  // Halved clusters run past the 900s deadlines — late, but *reported*
  // late: overcommit trades the admission-time guarantee for throughput.
  EXPECT_EQ(report.deadline_misses, 2);
  const int gpus_per_instance = config.cloud.gpus_per_instance();
  int bound = 0;
  for (const JobOutcome& job : report.jobs) {
    EXPECT_EQ(job.state, JobState::kCompleted);
    EXPECT_LE(job.peak_instances * gpus_per_instance, config.capacity_gpus);
    if (job.peak_instances * gpus_per_instance < job.plan.MaxGpus()) {
      ++bound;
    }
  }
  // At least one job ran below its planned peak: the caps actually bit.
  EXPECT_GT(bound, 0);
}

// The caps a reader sees equal a from-scratch FairShares over the running
// jobs at every step of an overcommitted mixed trace: the incremental
// under-capacity shortcut and the lazy recompute agree with the arbiter
// across every transition between the two regimes.
TEST(Service, IncrementalSharesMatchAFullArbitration) {
  ServiceConfig config = BaseConfig();
  config.capacity_gpus = 24;
  config.overcommit = 2.0;
  TuningService service(config);
  for (int i = 0; i < 10; ++i) {
    JobRequest job = MakeJob("j", 120.0 * i, 3600.0 * (1.0 + 0.5 * (i % 3)));
    job.name += std::to_string(i);
    job.spec = MakeSha(4 + 4 * (i % 3), 1, 8 + 2 * (i % 4), 2);
    job.weight = 0.5 + 0.5 * (i % 4);
    service.SubmitLive(std::move(job));
  }
  int checks = 0;
  int binding = 0;
  for (Seconds t = 0.0; (!service.LiveIdle() || t == 0.0) && t < 1e6; t += 20.0) {
    service.AdvanceUntil(t);
    std::vector<size_t> running;
    std::vector<ShareRequest> requests;
    for (size_t i = 0; i < service.num_jobs(); ++i) {
      if (service.outcome(i).state == JobState::kRunning) {
        running.push_back(i);
        requests.push_back(
            ShareRequest{service.planned(i).plan.MaxGpus(), service.request(i).weight});
      }
    }
    const std::vector<int> expected = FairShares(config.capacity_gpus, requests);
    for (size_t k = 0; k < running.size(); ++k) {
      ASSERT_EQ(service.share_cap(running[k]), expected[k])
          << "job " << running[k] << " at " << t;
      ++checks;
      binding += expected[k] < requests[k].demand ? 1 : 0;
    }
  }
  service.FinishLive();
  EXPECT_GT(checks, 0);
  EXPECT_GT(binding, 0);  // the overcommitted regime was reached
}

// OS threads of this process. The kernel drops a joined thread's task
// entry shortly after the join returns, so the caller polls.
int CountThreads() {
  int threads = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    static_cast<void>(entry);
    ++threads;
  }
  return threads;
}

bool ThreadsSettleAtOrBelow(int limit) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (CountThreads() <= limit) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return CountThreads() <= limit;
}

// A job's evaluator (and the eval_threads - 1 threads of its pool) is freed
// when the job starts or is rejected, not when the service ends; its cache
// stats are kept for the report.
TEST(Service, JobEvaluatorsAreFreedWhenJobsLeaveAdmission) {
  std::vector<JobRequest> trace;
  for (int i = 0; i < 40; ++i) {
    // One in five cannot finish in 45 s and is rejected at arrival.
    trace.push_back(MakeJob("job-" + std::to_string(i), 5000.0 * i, i % 5 == 4 ? 45.0 : 3600.0));
  }

  // Each job plans once, at arrival, through its own evaluator.
  ServiceConfig config = BaseConfig();
  ProfilerOptions profiler = config.profiler;
  profiler.seed = config.seed;
  const ModelProfile profile = ProfileWorkload(ResNet101Cifar10(), profiler).profile;
  PlannerOptions options = config.planner;
  options.max_total_gpus = std::min(options.max_total_gpus, config.capacity_gpus);
  PlannerCacheStats expected;
  for (const JobRequest& job : trace) {
    PlanEvaluator evaluator({job.spec, profile, config.cloud, job.deadline}, options);
    PlanGreedy(evaluator);
    expected += evaluator.stats();
  }
  const ServiceReport serial = RunTrace(config, trace);
  EXPECT_EQ(serial.completed, 32);
  EXPECT_EQ(serial.rejected, 8);
  EXPECT_EQ(serial.planner_cache.plan_evaluations, expected.plan_evaluations);
  EXPECT_EQ(serial.planner_cache.plan_memo_hits, expected.plan_memo_hits);
  EXPECT_EQ(serial.planner_cache.stage_evaluations, expected.stage_evaluations);
  EXPECT_EQ(serial.planner_cache.stage_cache_hits, expected.stage_cache_hits);

  config.planner.eval_threads = 4;
  // A sanitizer runtime may start a helper thread along with the first user
  // thread; start one first so the baseline counts it.
  std::thread([] {}).join();
  const int threads_before = CountThreads();
  TuningService service(config);
  for (const JobRequest& job : trace) {
    service.SubmitLive(job);
  }
  const ServiceReport parallel = service.Run();
  // Held until the service died, the 40 evaluators kept 120 idle threads.
  EXPECT_TRUE(ThreadsSettleAtOrBelow(threads_before))
      << CountThreads() << " threads, " << threads_before << " before the service";
  ASSERT_EQ(parallel.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(parallel.jobs[i].plan, serial.jobs[i].plan) << serial.jobs[i].name;
  }
  // Racing threads may both sample a stage, but every lookup is counted once.
  EXPECT_EQ(parallel.planner_cache.plan_evaluations + parallel.planner_cache.plan_memo_hits,
            expected.plan_evaluations + expected.plan_memo_hits);
}

// Shared admission evaluators live as long as the service, one per shape.
// They plan on one pool: 20 shapes at eval_threads = 4 hold 3 workers, not
// 20 pools of 3.
TEST(Service, SharedEvaluatorsPlanOnOneBoundedPool) {
  std::vector<JobRequest> trace;
  for (int i = 0; i < 20; ++i) {
    JobRequest job = MakeJob("shape-" + std::to_string(i), 5000.0 * i, 3600.0);
    job.spec = MakeSha(4 + i, 2, 14, 2);
    trace.push_back(job);
  }
  ServiceConfig config = BaseConfig();
  config.share_admission_evaluator = true;
  const ServiceReport serial = RunTrace(config, trace);

  config.planner.eval_threads = 4;
  std::thread([] {}).join();  // see JobEvaluatorsAreFreedWhenJobsLeaveAdmission
  const int threads_before = CountThreads();
  TuningService service(config);
  for (const JobRequest& job : trace) {
    service.SubmitLive(job);
  }
  const ServiceReport parallel = service.Run();
  EXPECT_TRUE(ThreadsSettleAtOrBelow(threads_before + 3))
      << CountThreads() << " threads, " << threads_before << " before the service";
  ASSERT_EQ(parallel.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(parallel.jobs[i].state, serial.jobs[i].state) << serial.jobs[i].name;
    EXPECT_EQ(parallel.jobs[i].plan, serial.jobs[i].plan) << serial.jobs[i].name;
    EXPECT_EQ(parallel.jobs[i].jct, serial.jobs[i].jct) << serial.jobs[i].name;
    EXPECT_EQ(parallel.jobs[i].cost, serial.jobs[i].cost) << serial.jobs[i].name;
  }
}

// Fleet mode memoizes each arrival's whole admission decision by shape and
// deadline. The key must hold the deadline exactly: an arrival whose
// deadline is a hair shorter than an earlier same-shape arrival's is a
// different planning problem, and the earlier plan can miss it.
TEST(Service, ArrivalPlanMemoKeysTheExactDeadline) {
  ServiceConfig config = BaseConfig();
  config.share_admission_evaluator = true;
  const auto plan_alone = [&](Seconds deadline) {
    TuningService service(config);
    const size_t index = service.SubmitLive(MakeJob("alone", 0.0, deadline));
    service.Run();
    return service.planned(index);
  };
  // Job a's deadline is its own plan's estimated JCT, so that plan just
  // meets it; job b's deadline is 10 ns shorter.
  const Seconds deadline_a = plan_alone(1350.0).estimate.jct_mean;
  const Seconds deadline_b = deadline_a - 1e-8;
  const PlannedJob a_alone = plan_alone(deadline_a);
  const PlannedJob b_alone = plan_alone(deadline_b);
  ASSERT_TRUE(a_alone.feasible);
  ASSERT_TRUE(b_alone.feasible);
  ASSERT_EQ(a_alone.estimate.jct_mean, deadline_a);
  ASSERT_NE(a_alone.plan, b_alone.plan);

  TuningService service(config);
  const size_t a = service.SubmitLive(MakeJob("a", 0.0, deadline_a));
  const size_t b = service.SubmitLive(MakeJob("b", 10.0, deadline_b));
  service.Run();
  EXPECT_EQ(service.planned(a).plan, a_alone.plan);
  EXPECT_EQ(service.planned(b).plan, b_alone.plan);
  EXPECT_TRUE(service.planned(b).estimate.MeetsDeadline(deadline_b))
      << service.planned(b).estimate.jct_mean << " s estimated";
}

TEST(Service, BudgetRejectsJobsWhoseCheapestPlanIsTooExpensive) {
  ServiceConfig config = BaseConfig();
  JobRequest job = MakeJob("frugal", 0.0, 3600.0);
  job.budget = Money::FromCents(1);  // no GPU-hour costs a cent
  const ServiceReport report = RunTrace(config, {job});
  EXPECT_EQ(report.jobs[0].state, JobState::kRejectedOverBudget);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.completed, 0);
}

TEST(Service, SubmissionValidation) {
  TuningService service(BaseConfig());
  JobRequest no_deadline = MakeJob("bad", 0.0, 0.0);
  EXPECT_THROW(service.SubmitLive(no_deadline), std::invalid_argument);
  JobRequest time_traveler = MakeJob("bad", -5.0, 100.0);
  EXPECT_THROW(service.SubmitLive(time_traveler), std::invalid_argument);

  service.SubmitLive(MakeJob("ok", 0.0, 3600.0));
  const ServiceReport first = service.Run();
  ASSERT_EQ(first.completed, 1);

  // Run() drives the one timeline to the end; a job submitted afterwards
  // arrives at the current clock and the next Run() settles it.
  const Seconds end_of_first = service.now();
  const size_t late = service.SubmitLive(MakeJob("late", 0.0, 3600.0));
  const ServiceReport second = service.Run();
  EXPECT_EQ(second.completed, 2);
  EXPECT_EQ(second.rejected, 0);
  const JobOutcome& outcome = service.outcome(late);
  EXPECT_EQ(outcome.state, JobState::kCompleted);
  EXPECT_EQ(outcome.submitted_at, end_of_first);
  EXPECT_GE(outcome.started_at, end_of_first);
  EXPECT_TRUE(outcome.met_deadline);
}

}  // namespace
}  // namespace rubberband

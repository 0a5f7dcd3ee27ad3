// ASHA baseline: AshaEngine's time-limited mode (the compiled kAsha rung
// ladder, no sample cap) — asynchronous rung promotion semantics, the
// comparison RubberBand's evaluation leans on, and the frozen oracle.

#include "src/executor/asha_engine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json.h"
#include "src/rubberband.h"

#ifndef RB_TEST_GOLDEN_DIR
#error "RB_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace rubberband {
namespace {

struct AshaBaseline {
  int64_t min_iters = 1;
  int64_t max_iters = 27;
  int eta = 3;
  int gpus_per_trial = 1;
  int workers = 8;
  Seconds time_limit = Minutes(30);
  uint64_t seed = 3;
};

struct AshaRun {
  ExecutionReport report;
  int configurations_sampled = 0;
  int64_t best_config_cum_iters = 0;
  std::vector<AshaRungStats> rungs;
  std::vector<AshaPromotion> promotions;
};

// Compiles the kAsha ladder for (r, R, eta) and runs it to the time limit,
// the way `rubberband asha` does.
AshaRun RunBaseline(const WorkloadSpec& workload, const CloudProfile& cloud,
                    const AshaBaseline& baseline) {
  ExperimentIR ir;
  ir.scheduler = SchedulerKind::kAsha;
  ir.num_trials = 1;  // validation only: the time-limited mode has no cap
  ir.min_iters = baseline.min_iters;
  ir.max_iters = baseline.max_iters;
  ir.reduction_factor = baseline.eta;
  AshaPlan plan = *CompileExperiment(ir).asha;
  plan.num_trials = 0;
  plan.gpus_per_trial = baseline.gpus_per_trial;

  AshaEngineOptions options;
  options.num_workers = baseline.workers;
  options.time_limit = baseline.time_limit;
  options.seed = baseline.seed;
  AshaEngine engine(plan, workload, cloud, options);
  AshaRun run;
  run.report = engine.Run();
  run.configurations_sampled = engine.configurations_sampled();
  run.best_config_cum_iters = engine.best_config_cum_iters();
  run.rungs = engine.rung_stats();
  run.promotions = engine.promotions();
  return run;
}

CloudProfile TestCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

TEST(Asha, RunsToTimeLimitAndReports) {
  const AshaRun run = RunBaseline(ResNet101Cifar10(), TestCloud(), {});
  EXPECT_GT(run.configurations_sampled, 8);  // kept sampling beyond the pool
  EXPECT_GT(run.report.best_accuracy, 0.5);
  EXPECT_GE(run.report.jct, Minutes(30));  // in-flight tasks drain past the limit
  // Grace: at most one in-flight top-rung task (18 iters x ~88 s at 1 GPU).
  EXPECT_LT(run.report.jct, Minutes(30) + 15.0 + 18 * 110.0);
  EXPECT_GT(run.report.cost.Total().dollars(), 0.0);
}

TEST(Asha, RungCountsFollowGeometricDecay) {
  const AshaRun run = RunBaseline(ResNet101Cifar10(), TestCloud(), {});
  ASSERT_GE(run.rungs.size(), 3u);
  // Rung 0 completes the most results; each promotion gate passes ~1/eta.
  EXPECT_GT(run.rungs[0].completed, run.rungs[1].completed);
  EXPECT_GE(run.rungs[1].completed, run.rungs[2].completed);
  // Promotions out of a rung never exceed completions into it.
  for (size_t r = 0; r + 1 < run.rungs.size(); ++r) {
    EXPECT_LE(run.rungs[r].promoted, run.rungs[r].completed);
    EXPECT_EQ(run.rungs[r + 1].completed, run.rungs[r].promoted);
  }
}

TEST(Asha, DeterministicForFixedSeed) {
  const AshaRun a = RunBaseline(ResNet101Cifar10(), TestCloud(), {});
  const AshaRun b = RunBaseline(ResNet101Cifar10(), TestCloud(), {});
  EXPECT_EQ(a.configurations_sampled, b.configurations_sampled);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_DOUBLE_EQ(a.report.best_accuracy, b.report.best_accuracy);
  EXPECT_EQ(a.report.cost.Total(), b.report.cost.Total());
}

TEST(Asha, MoreWorkersSampleMoreConfigurations) {
  AshaBaseline small;
  small.workers = 4;
  AshaBaseline large;
  large.workers = 16;
  const AshaRun a = RunBaseline(ResNet101Cifar10(), TestCloud(), small);
  const AshaRun b = RunBaseline(ResNet101Cifar10(), TestCloud(), large);
  EXPECT_GT(b.configurations_sampled, a.configurations_sampled);
}

TEST(Asha, RubberBandReachesDeeperTrainingAtComparableCost) {
  // The paper's argument (via HyperSched): under a time constraint,
  // continually sampling new configurations is an ineffective use of
  // resources — RubberBand trains its winner to the full budget R, while
  // ASHA spreads the same spending over many shallow runs.
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = TestCloud();

  AshaBaseline baseline;
  baseline.max_iters = 50;
  baseline.time_limit = Minutes(20);
  const AshaRun asha = RunBaseline(workload, cloud, baseline);

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const PlannedJob job = CompilePlan(spec, profile, cloud, Minutes(20));
  ASSERT_TRUE(job.feasible);
  const ExecutionReport rubberband = Execute(spec, job.plan, workload, cloud);

  // RubberBand's winner is trained to R = 50; ASHA's best is much shallower.
  EXPECT_LT(asha.best_config_cum_iters, 50);
  EXPECT_GE(rubberband.best_accuracy + 0.02, asha.report.best_accuracy);
}

// ---- Oracle ------------------------------------------------------------------

// The run's output in the layout of tests/golden/asha_oracle.json. Numbers
// serialize with %.17g, so equal text means bit-equal values.
JsonValue OracleRecord(const AshaRun& run) {
  const auto number = [](double value) { return JsonValue::MakeNumber(value); };
  const auto pair = [&](double first, double second) {
    JsonValue out = JsonValue::MakeArray();
    out.Append(number(first));
    out.Append(number(second));
    return out;
  };
  JsonValue promotions = JsonValue::MakeArray();
  for (const AshaPromotion& promotion : run.promotions) {
    promotions.Append(pair(promotion.rung, promotion.trial));
  }
  JsonValue rungs = JsonValue::MakeArray();
  for (const AshaRungStats& rung : run.rungs) {
    rungs.Append(pair(rung.completed, rung.promoted));
  }
  const HyperparameterConfig& config = run.report.best_config;
  JsonValue best = JsonValue::MakeObject();
  best.Set("id", number(config.id));
  best.Set("learning_rate", number(config.learning_rate));
  best.Set("weight_decay", number(config.weight_decay));
  best.Set("momentum", number(config.momentum));
  best.Set("quality", number(config.quality));

  JsonValue record = JsonValue::MakeObject();
  record.Set("configurations_sampled", number(run.configurations_sampled));
  record.Set("jct_s", number(run.report.jct));
  record.Set("best_accuracy", number(run.report.best_accuracy));
  record.Set("best_config", std::move(best));
  record.Set("best_config_cum_iters", number(static_cast<double>(run.best_config_cum_iters)));
  record.Set("cost_total_micros", number(static_cast<double>(run.report.cost.Total().micros())));
  record.Set("cost_compute_micros",
             number(static_cast<double>(run.report.cost.compute.micros())));
  record.Set("rungs_completed_promoted", std::move(rungs));
  record.Set("promotions_rung_trial", std::move(promotions));
  return record;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The golden holds the output of the original stand-alone ASHA executor,
// frozen before it was deleted, for time-limited runs on p3.8xlarge. The
// engine must reproduce every field: the ordered promotion log is the
// scheduler's complete decision trace, the rest is its outcome and bill.
TEST(Compile, AshaOracleParity) {
  const std::string path = std::string(RB_TEST_GOLDEN_DIR) + "/asha_oracle.json";
  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty()) << path << " is missing";
  const JsonValue oracle = JsonValue::Parse(text);
  ASSERT_GE(oracle.at("runs").size(), 3u);

  for (const JsonValue& golden : oracle.at("runs").array()) {
    const JsonValue& config = golden.at("config");
    SCOPED_TRACE(config.at("name").string());
    const auto integer = [&](const char* key) {
      return static_cast<int64_t>(config.at(key).number());
    };
    CloudProfile cloud;
    cloud.provisioning =
        ProvisioningModel::Fixed(config.at("queue_s").number(), config.at("init_s").number());
    AshaBaseline baseline;
    baseline.min_iters = integer("min_iters");
    baseline.max_iters = integer("max_iters");
    baseline.eta = static_cast<int>(integer("eta"));
    baseline.gpus_per_trial = static_cast<int>(integer("gpus_per_trial"));
    baseline.workers = static_cast<int>(integer("workers"));
    baseline.time_limit = config.at("time_limit_s").number();
    baseline.seed = static_cast<uint64_t>(integer("seed"));
    const auto workload = FindWorkload(config.at("workload").string());
    ASSERT_TRUE(workload.has_value());

    const JsonValue actual = OracleRecord(RunBaseline(*workload, cloud, baseline));
    for (const auto& [key, expected] : golden.object()) {
      if (key != "config") {
        ASSERT_TRUE(actual.Has(key)) << key;
        EXPECT_EQ(actual.at(key).ToJson(), expected.ToJson()) << key;
      }
    }
    EXPECT_EQ(actual.size() + 1, golden.size());  // no field left unchecked
  }
}

}  // namespace
}  // namespace rubberband

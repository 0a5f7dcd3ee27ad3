#include <gtest/gtest.h>

#include <cstdint>

#include "src/spec/experiment_spec.h"
#include "src/spec/hyperband.h"
#include "src/spec/sha.h"

namespace rubberband {
namespace {

TEST(ExperimentSpec, BuilderAccumulatesStages) {
  ExperimentSpec spec;
  spec.AddStage(10, 10).AddStage(8, 21).AddStage(3, 53);
  EXPECT_EQ(spec.num_stages(), 3);
  EXPECT_EQ(spec.stage(0).num_trials, 10);
  EXPECT_EQ(spec.stage(2).iters_per_trial, 53);
  EXPECT_EQ(spec.TotalWork(), 10 * 10 + 8 * 21 + 3 * 53);
  EXPECT_EQ(spec.MaxTrials(), 10);
  EXPECT_EQ(spec.CumulativeIters(1), 31);
}

TEST(ExperimentSpec, ValidateRejectsBadShapes) {
  EXPECT_THROW(ExperimentSpec().Validate(), std::invalid_argument);
  {
    ExperimentSpec spec;
    spec.AddStage(0, 5);
    EXPECT_THROW(spec.Validate(), std::invalid_argument);
  }
  {
    ExperimentSpec spec;
    spec.AddStage(4, 0);
    EXPECT_THROW(spec.Validate(), std::invalid_argument);
  }
  {
    // Early stopping only terminates: trial counts must not grow.
    ExperimentSpec spec;
    spec.AddStage(4, 5).AddStage(8, 5);
    EXPECT_THROW(spec.Validate(), std::invalid_argument);
  }
}

TEST(ExperimentSpec, ToStringMentionsEveryStage) {
  ExperimentSpec spec;
  spec.AddStage(4, 5).AddStage(2, 10);
  const std::string s = spec.ToString();
  EXPECT_NE(s.find("4 trials"), std::string::npos);
  EXPECT_NE(s.find("10 iters"), std::string::npos);
}

// The paper's own SHA instances, used throughout its evaluation.
TEST(Sha, PaperFigure9Instance) {
  // SHA(n=64, r=4, R=508, eta=2): 4+8+16+32+64+128+256 = 508 exactly.
  const ExperimentSpec spec = MakeSha(64, 4, 508, 2);
  ASSERT_EQ(spec.num_stages(), 7);
  int64_t expected_iters = 4;
  int expected_trials = 64;
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(spec.stage(i).num_trials, expected_trials);
    EXPECT_EQ(spec.stage(i).iters_per_trial, expected_iters);
    expected_iters *= 2;
    expected_trials /= 2;
  }
  EXPECT_EQ(spec.CumulativeIters(6), 508);
}

TEST(Sha, PaperTable3Instance) {
  // SHA(n=32, r=1, R=50, eta=3) must reproduce Table 3's epoch ranges:
  // 0-1 (32 trials), 1-4 (10), 4-13 (3), 13-50 (1).
  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  ASSERT_EQ(spec.num_stages(), 4);
  EXPECT_EQ(spec.stage(0).num_trials, 32);
  EXPECT_EQ(spec.stage(1).num_trials, 10);
  EXPECT_EQ(spec.stage(2).num_trials, 3);
  EXPECT_EQ(spec.stage(3).num_trials, 1);
  EXPECT_EQ(spec.CumulativeIters(0), 1);
  EXPECT_EQ(spec.CumulativeIters(1), 4);
  EXPECT_EQ(spec.CumulativeIters(2), 13);
  EXPECT_EQ(spec.CumulativeIters(3), 50);
}

TEST(Sha, PaperFigure12Instance) {
  const ExperimentSpec spec = MakeSha(512, 4, 4096, 2);
  EXPECT_EQ(spec.stage(0).num_trials, 512);
  EXPECT_EQ(spec.stages().back().num_trials, 1);
  EXPECT_EQ(spec.CumulativeIters(spec.num_stages() - 1), 4096);
}

TEST(Sha, RejectsInvalidParameters) {
  EXPECT_THROW(MakeSha(0, 4, 508, 2), std::invalid_argument);
  EXPECT_THROW(MakeSha(64, 0, 508, 2), std::invalid_argument);
  EXPECT_THROW(MakeSha(64, 8, 4, 2), std::invalid_argument);   // R < r
  EXPECT_THROW(MakeSha(64, 4, 508, 1), std::invalid_argument);  // eta < 2
}

TEST(Sha, SingleTrialTrainsFullBudget) {
  const ExperimentSpec spec = MakeSha(1, 4, 100, 2);
  ASSERT_EQ(spec.num_stages(), 1);
  EXPECT_EQ(spec.stage(0).num_trials, 1);
  EXPECT_EQ(spec.stage(0).iters_per_trial, 100);
}

// Property sweep: SHA structure invariants across a parameter grid.
// Every field is 64-bit so the struct has no padding: gtest names each case
// by a dump of its raw bytes, and uninitialised padding would put stray
// memory into the test names.
struct ShaCase {
  int64_t n;
  int64_t r;
  int64_t big_r;
  int64_t eta;
};

class ShaProperties : public ::testing::TestWithParam<ShaCase> {};

TEST_P(ShaProperties, StructuralInvariants) {
  const ShaCase& c = GetParam();
  const ExperimentSpec spec =
      MakeSha(static_cast<int>(c.n), c.r, c.big_r, static_cast<int>(c.eta));
  spec.Validate();

  // Trial counts follow floor(n / eta^i) and strictly decrease (until 1).
  int64_t eta_pow = 1;
  for (int i = 0; i < spec.num_stages(); ++i) {
    EXPECT_EQ(spec.stage(i).num_trials, static_cast<int>(c.n / eta_pow)) << "stage " << i;
    eta_pow *= c.eta;
  }
  // First stage does exactly r iterations; budget never exceeds R and the
  // last survivor (if reached) exhausts it.
  EXPECT_EQ(spec.stage(0).iters_per_trial, std::min(c.r, c.big_r));
  EXPECT_LE(spec.CumulativeIters(spec.num_stages() - 1), c.big_r);
  if (spec.stages().back().num_trials == 1) {
    EXPECT_EQ(spec.CumulativeIters(spec.num_stages() - 1), c.big_r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShaProperties,
    ::testing::Values(ShaCase{64, 4, 508, 2}, ShaCase{32, 1, 50, 3}, ShaCase{512, 4, 4096, 2},
                      ShaCase{16, 1, 100, 4}, ShaCase{100, 2, 64, 2}, ShaCase{7, 3, 20, 2},
                      ShaCase{81, 1, 81, 3}, ShaCase{2, 1, 2, 2}, ShaCase{128, 8, 1000, 2},
                      ShaCase{50, 5, 500, 5}));

TEST(Hyperband, BracketStructure) {
  const std::vector<ExperimentSpec> brackets = MakeHyperband({81, 3});
  // s_max = log_3(81) = 4 -> 5 brackets.
  ASSERT_EQ(brackets.size(), 5u);
  // The most aggressive bracket starts many trials at few iterations; the
  // most conservative runs few trials at the full budget.
  EXPECT_GT(brackets.front().stage(0).num_trials, brackets.back().stage(0).num_trials);
  EXPECT_LT(brackets.front().stage(0).iters_per_trial, brackets.back().stage(0).iters_per_trial);
  for (const ExperimentSpec& bracket : brackets) {
    bracket.Validate();
    EXPECT_LE(bracket.CumulativeIters(bracket.num_stages() - 1), 81);
  }
}

TEST(Hyperband, LastBracketIsPlainSearch) {
  const std::vector<ExperimentSpec> brackets = MakeHyperband({27, 3});
  // s = 0: no early stopping, single stage at full budget.
  EXPECT_EQ(brackets.back().num_stages(), 1);
  EXPECT_EQ(brackets.back().stage(0).iters_per_trial, 27);
}

TEST(Hyperband, RejectsInvalidParameters) {
  EXPECT_THROW(MakeHyperband({0, 3}), std::invalid_argument);
  EXPECT_THROW(MakeHyperband({81, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace rubberband

// Durability layer of the serving front door: CRC-32C, the write-ahead
// journal's record format and recovery semantics (torn tails truncated,
// corruption refused with a byte offset), and the runner-level contract —
// a server killed at any byte of the WAL resumes bit-identical to an
// uninterrupted run, and idempotent retries never double-apply, even
// across the kill.

#include "src/server/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/rubberband.h"
#include "src/server/protocol.h"
#include "src/server/service_runner.h"

namespace rubberband {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// CRC-32C.

TEST(Crc32c, KnownAnswers) {
  // The canonical Castagnoli check value (RFC 3720 appendix / every
  // hardware implementation agrees on this one).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  // 32 zero bytes — another published vector (iSCSI test pattern).
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32c, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << cut;
  }
}

// ---------------------------------------------------------------------------
// WAL record format and recovery.

TEST(Wal, RoundTripsRecordsInOrder) {
  const std::string path = TempPath("wal_roundtrip.wal");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Create(path, WalOptions{}, &error)) << error;
  ASSERT_TRUE(writer.Append("first", &error)) << error;
  ASSERT_TRUE(writer.Append("", &error)) << error;  // empty payload is legal
  ASSERT_TRUE(writer.Append(std::string(1000, 'x'), &error)) << error;
  writer.Close();

  WalReadResult result;
  ASSERT_TRUE(ReadWal(path, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0], "first");
  EXPECT_EQ(result.records[1], "");
  EXPECT_EQ(result.records[2], std::string(1000, 'x'));
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, ReadFileBytes(path).size());
}

TEST(Wal, AbsentOrEmptyFileIsAFreshJournal) {
  WalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadWal(TempPath("wal_never_created.wal"), &result, &error)) << error;
  EXPECT_TRUE(result.records.empty());

  const std::string path = TempPath("wal_empty.wal");
  WriteFileBytes(path, "");
  ASSERT_TRUE(ReadWal(path, &result, &error)) << error;
  EXPECT_TRUE(result.records.empty());
}

TEST(Wal, FsyncPolicyControlsSyncCadence) {
  std::string error;
  {
    WalWriter always;
    ASSERT_TRUE(always.Create(TempPath("wal_always.wal"), WalOptions{}, &error)) << error;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(always.Append("r", &error)) << error;
    }
    EXPECT_EQ(always.syncs(), 5);  // one per record
  }
  {
    WalOptions batched;
    batched.fsync = FsyncPolicy::kBatch;
    batched.batch_records = 3;
    WalWriter writer;
    ASSERT_TRUE(writer.Create(TempPath("wal_batch.wal"), batched, &error)) << error;
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(writer.Append("r", &error)) << error;
    }
    EXPECT_EQ(writer.syncs(), 2);  // after records 3 and 6
    writer.Close();
    EXPECT_EQ(writer.syncs(), 3);  // close flushes the partial batch
  }
  {
    WalOptions off;
    off.fsync = FsyncPolicy::kOff;
    WalWriter writer;
    ASSERT_TRUE(writer.Create(TempPath("wal_off.wal"), off, &error)) << error;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.Append("r", &error)) << error;
    }
    writer.Close();
    EXPECT_EQ(writer.syncs(), 0);
  }
  FsyncPolicy policy;
  EXPECT_TRUE(ParseFsyncPolicy("batch", &policy));
  EXPECT_EQ(policy, FsyncPolicy::kBatch);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", &policy));
}

TEST(Wal, TornTailIsReportedAndTruncatedNotFatal) {
  const std::string path = TempPath("wal_torn.wal");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Create(path, WalOptions{}, &error)) << error;
  ASSERT_TRUE(writer.Append("alpha", &error)) << error;
  ASSERT_TRUE(writer.Append("beta", &error)) << error;
  // Die mid-append: only 6 of the third record's bytes reach the file.
  ASSERT_TRUE(writer.AppendTorn("gamma", 6, &error)) << error;
  writer.Abandon();

  WalReadResult result;
  ASSERT_TRUE(ReadWal(path, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[1], "beta");
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.torn_offset, result.valid_bytes);
  EXPECT_LT(result.valid_bytes, ReadFileBytes(path).size());

  // Repair, then append again: the journal is whole.
  ASSERT_TRUE(TruncateWal(path, result.valid_bytes, &error)) << error;
  WalWriter resumed;
  ASSERT_TRUE(resumed.OpenAppend(path, WalOptions{}, &error)) << error;
  ASSERT_TRUE(resumed.Append("gamma", &error)) << error;
  resumed.Close();
  ASSERT_TRUE(ReadWal(path, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[2], "gamma");
  EXPECT_FALSE(result.torn_tail);
}

TEST(Wal, CorruptionOfACompleteRecordRefusesNamingTheOffset) {
  const std::string path = TempPath("wal_corrupt.wal");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Create(path, WalOptions{}, &error)) << error;
  ASSERT_TRUE(writer.Append("alpha", &error)) << error;
  ASSERT_TRUE(writer.Append("beta", &error)) << error;
  writer.Close();

  // Flip one payload byte of the SECOND record. Its record starts right
  // after the first record ends.
  std::string bytes = ReadFileBytes(path);
  const size_t second_record = kWalMagicBytes + kWalRecordHeaderBytes + 5;
  bytes[second_record + kWalRecordHeaderBytes] ^= 0x01;
  WriteFileBytes(path, bytes);

  WalReadResult result;
  ASSERT_FALSE(ReadWal(path, &result, &error));
  EXPECT_NE(error.find("offset " + std::to_string(second_record)), std::string::npos)
      << error;
  EXPECT_NE(error.find("refusing"), std::string::npos) << error;
}

TEST(Wal, GarbledMagicAndOversizeLengthAreCorruption) {
  const std::string path = TempPath("wal_magic.wal");
  WriteFileBytes(path, "NOTAWAL\n");
  WalReadResult result;
  std::string error;
  ASSERT_FALSE(ReadWal(path, &result, &error));
  EXPECT_NE(error.find("offset 0"), std::string::npos) << error;

  // Valid magic, then a length prefix announcing > kMaxWalRecordBytes.
  std::string bytes(kWalMagic, kWalMagicBytes);
  bytes += std::string("\xff\xff\xff\xff\x00\x00\x00\x00", 8);
  WriteFileBytes(path, bytes);
  ASSERT_FALSE(ReadWal(path, &result, &error));
  EXPECT_NE(error.find("offset " + std::to_string(kWalMagicBytes)), std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// Runner-level WAL recovery: the bit-identical-resume contract.

RunnerOptions WalRunner(const std::string& wal_path, uint64_t seed = 11) {
  RunnerOptions options;
  options.service.cloud.instance = P3_8xlarge();
  options.service.cloud.provisioning = ProvisioningModel::Fixed(30.0, 60.0);
  options.service.capacity_gpus = 16;
  options.service.seed = seed;
  options.auto_advance_step = 0.0;
  options.wal_path = wal_path;
  return options;
}

Request Req(const std::string& method, JsonValue params = JsonValue::MakeObject(),
            const std::string& idem = "") {
  Request request;
  request.method = method;
  request.params = std::move(params);
  request.idem = idem;
  return request;
}

JsonValue SubmitParams(const std::string& name) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(4));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(4));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(36'000.0));
  return params;
}

JsonValue AdvanceParams(double seconds) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("seconds", JsonValue::MakeNumber(seconds));
  return params;
}

void RunToQuiescence(ServiceRunner& runner) {
  for (int i = 0; i < 10'000 && runner.service().HasPendingEvents(); ++i) {
    runner.Handle(Req("advance", AdvanceParams(600.0)));
  }
  ASSERT_TRUE(runner.service().LiveIdle());
}

std::string FinalReportText(ServiceRunner& runner) {
  RunToQuiescence(runner);
  const OpResult report = runner.Handle(Req("report"));
  EXPECT_TRUE(report.ok) << report.message;
  return report.body.at("text").string();
}

TEST(WalRecovery, KilledRunnerResumesBitIdenticalToUninterruptedRun) {
  // Control: never killed, no WAL.
  ServiceRunner control(WalRunner(""));
  control.Handle(Req("submit", SubmitParams("exp1")));
  control.Handle(Req("advance", AdvanceParams(120.0)));
  control.Handle(Req("submit", SubmitParams("exp2")));
  control.Handle(Req("advance", AdvanceParams(300.0)));
  const std::string control_report = FinalReportText(control);

  // Victim: same ops, killed (WAL abandoned, no clean close) mid-run.
  const std::string wal = TempPath("wal_recovery_identity.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  victim->Handle(Req("advance", AdvanceParams(120.0)));
  victim->Handle(Req("submit", SubmitParams("exp2")));
  victim->AbandonWal();
  victim.reset();

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(WalRunner(wal));
  EXPECT_TRUE(resumed->wal_stats().recovered);
  EXPECT_EQ(resumed->wal_stats().ops_replayed, 2);
  resumed->Handle(Req("advance", AdvanceParams(300.0)));
  EXPECT_EQ(FinalReportText(*resumed), control_report);
}

TEST(WalRecovery, SurvivesAKillMidAppendUnderFsyncAlways) {
  const std::string wal = TempPath("wal_recovery_midappend.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  victim->AbandonWal();
  victim.reset();

  // A kill -9 lands mid-append of the next record: splice a torn record
  // onto the journal by hand (in-process kills cannot tear write()s).
  {
    WalReadResult current;
    std::string error;
    ASSERT_TRUE(ReadWal(wal, &current, &error)) << error;
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out << std::string("\x00\x00\x01", 3);  // 3 bytes of a length prefix
  }

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(WalRunner(wal));
  EXPECT_TRUE(resumed->wal_stats().torn_tail_truncated);
  EXPECT_GT(resumed->wal_stats().torn_offset, 0u);
  EXPECT_EQ(resumed->wal_stats().ops_replayed, 1);

  ServiceRunner control(WalRunner(""));
  control.Handle(Req("submit", SubmitParams("exp1")));
  EXPECT_EQ(FinalReportText(*resumed), FinalReportText(control));
}

TEST(WalRecovery, TornWriteMatrixEveryTruncationResumesOrRefusesPrecisely) {
  // Build a journal with several ops and settled outcomes.
  const std::string wal = TempPath("wal_matrix_master.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  victim->Handle(Req("advance", AdvanceParams(120.0)));
  victim->Handle(Req("submit", SubmitParams("exp2")));
  RunToQuiescence(*victim);  // completions => clock + outcome records
  victim->AbandonWal();
  victim.reset();
  const std::string master = ReadFileBytes(wal);

  // Record boundaries, from the raw file.
  std::vector<size_t> boundaries = {kWalMagicBytes};
  {
    size_t offset = kWalMagicBytes;
    while (offset + kWalRecordHeaderBytes <= master.size()) {
      const uint32_t length =
          (static_cast<uint32_t>(static_cast<unsigned char>(master[offset])) << 24) |
          (static_cast<uint32_t>(static_cast<unsigned char>(master[offset + 1])) << 16) |
          (static_cast<uint32_t>(static_cast<unsigned char>(master[offset + 2])) << 8) |
          static_cast<uint32_t>(static_cast<unsigned char>(master[offset + 3]));
      offset += kWalRecordHeaderBytes + length;
      boundaries.push_back(offset);
    }
    ASSERT_EQ(boundaries.back(), master.size());
    ASSERT_GE(boundaries.size(), 5u);  // header + 2 ops + clock + outcomes
  }

  const std::string cut_path = TempPath("wal_matrix_cut.wal");
  // Every record boundary, and a mid-record cut inside every record.
  std::vector<size_t> cuts = boundaries;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    cuts.push_back(boundaries[i] + (boundaries[i + 1] - boundaries[i]) / 2);
  }
  for (size_t cut : cuts) {
    WriteFileBytes(cut_path, master.substr(0, cut));
    // Any truncation is either a clean prefix or a torn tail — never a
    // refusal. Open() must succeed and replay exactly the complete records.
    std::unique_ptr<ServiceRunner> resumed;
    ASSERT_NO_THROW(resumed = ServiceRunner::Open(WalRunner(cut_path))) << "cut at " << cut;
    RunToQuiescence(*resumed);
  }

  // A byte flip INSIDE a complete record is corruption, and the resume
  // refuses, naming the record's byte offset.
  std::string corrupt = master;
  const size_t target_record = boundaries[1];  // first op record
  corrupt[target_record + kWalRecordHeaderBytes + 2] ^= 0x10;
  WriteFileBytes(cut_path, corrupt);
  try {
    ServiceRunner::Open(WalRunner(cut_path));
    FAIL() << "corrupt journal must refuse to resume";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset " + std::to_string(target_record)),
              std::string::npos)
        << e.what();
  }
}

TEST(WalRecovery, RefusesAConfigMismatch) {
  const std::string wal = TempPath("wal_config_mismatch.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal, /*seed=*/11));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  victim->AbandonWal();
  victim.reset();
  EXPECT_THROW(ServiceRunner::Open(WalRunner(wal, /*seed=*/12)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Journaled admission decisions: a submit whose arrival it planned carries
// the decision, and recovery applies it instead of planning again.

// The journal's records, parsed; the header first.
std::vector<JsonValue> WalRecords(const std::string& path) {
  WalReadResult wal;
  std::string error;
  EXPECT_TRUE(ReadWal(path, &wal, &error)) << error;
  std::vector<JsonValue> records;
  for (const std::string& record : wal.records) {
    records.push_back(JsonValue::Parse(record));
  }
  return records;
}

void WriteWalRecords(const std::string& path, const std::vector<JsonValue>& records) {
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Create(path, WalOptions{}, &error)) << error;
  for (const JsonValue& record : records) {
    ASSERT_TRUE(writer.Append(record.ToJson(), &error)) << error;
  }
  writer.Close();
}

int64_t JournaledDecisions(const std::string& path) {
  int64_t decisions = 0;
  for (const JsonValue& record : WalRecords(path)) {
    decisions += record.Has("decision") ? 1 : 0;
  }
  return decisions;
}

// Index of the submit record of job `name` in `records`.
size_t SubmitRecord(const std::vector<JsonValue>& records, const std::string& name) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].at("kind").string() == "submit" &&
        records[i].at("params").at("name").string() == name) {
      return i;
    }
  }
  ADD_FAILURE() << "no submit record for " << name;
  return 0;
}

// Per-job mode under provisioning, init and checkpoint failures and crashes,
// with fault re-planning on.
RunnerOptions FaultyWalRunner(const std::string& wal_path) {
  RunnerOptions options = WalRunner(wal_path, /*seed=*/23);
  options.service.capacity_gpus = 8;
  options.service.replan_on_faults = true;
  FaultProfile& fault = options.service.cloud.fault;
  fault.provision_failure_rate = 0.2;
  fault.init_failure_rate = 0.05;
  fault.checkpoint_failure_rate = 0.05;
  fault.mtbf = 3600.0;
  return options;
}

// One front-door op at an absolute simulation time.
struct TimedOp {
  double at = 0.0;
  std::string method;
  JsonValue params;
};

JsonValue ShapedSubmit(const std::string& name, int trials, int max_iters, double deadline_s) {
  JsonValue params = SubmitParams(name);
  params.Set("trials", JsonValue::MakeNumber(trials));
  params.Set("max_iters", JsonValue::MakeNumber(max_iters));
  params.Set("deadline_s", JsonValue::MakeNumber(deadline_s));
  return params;
}

// Runs (two with deadlines a fault can break), rejects for either reason,
// queues (b and c are dequeued later, big2 is cancelled), and one
// future-dated arrival.
std::vector<TimedOp> MixedOps() {
  JsonValue costly = ShapedSubmit("costly", 8, 8, 36'000.0);
  costly.Set("budget_dollars", JsonValue::MakeNumber(0.01));
  JsonValue later = ShapedSubmit("later", 4, 4, 36'000.0);
  later.Set("submit_at_s", JsonValue::MakeNumber(2'000.0));
  JsonValue cancel = JsonValue::MakeObject();
  cancel.Set("job", JsonValue::MakeString("big2"));
  return {
      {0.0, "submit", ShapedSubmit("a", 8, 8, 900.0)},
      {0.0, "submit", ShapedSubmit("tight", 16, 16, 60.0)},
      {30.0, "submit", costly},
      {60.0, "submit", ShapedSubmit("big1", 16, 8, 1'800.0)},
      {90.0, "submit", ShapedSubmit("big2", 16, 6, 36'000.0)},
      {120.0, "cancel", cancel},
      {150.0, "submit", later},
      {600.0, "submit", ShapedSubmit("b", 4, 4, 36'000.0)},
      {900.0, "submit", ShapedSubmit("c", 8, 6, 36'000.0)},
  };
}

// Advances `runner` to the absolute time `at` (a recovered runner's clock
// stands at its last journaled op, not where the killed one stood).
void AdvanceTo(ServiceRunner& runner, double at) {
  const double now = runner.service().now();
  if (at > now) {
    runner.Handle(Req("advance", AdvanceParams(at - now)));
  }
}

void ApplyOps(ServiceRunner& runner, const std::vector<TimedOp>& ops, size_t begin,
              size_t end) {
  for (size_t i = begin; i < end; ++i) {
    AdvanceTo(runner, ops[i].at);
    const OpResult result = runner.Handle(Req(ops[i].method, ops[i].params));
    ASSERT_TRUE(result.ok) << ops[i].method << " " << i << ": " << result.message;
  }
}

std::string ControlReport(const RunnerOptions& options, const std::vector<TimedOp>& ops) {
  ServiceRunner control(options);
  ApplyOps(control, ops, 0, ops.size());
  return FinalReportText(control);
}

TEST(WalRecovery, JournaledDecisionsResumeBitIdenticalAfterAKillAfterEveryOp) {
  const std::vector<TimedOp> ops = MixedOps();
  ServiceRunner control(FaultyWalRunner(""));
  ApplyOps(control, ops, 0, ops.size());
  const std::string control_report = FinalReportText(control);
  // The trace covers what it claims to.
  const TuningService& service = control.service();
  const auto state = [&](const std::string& name) {
    return service.outcome(service.FindJob(name)).state;
  };
  EXPECT_EQ(state("tight"), JobState::kRejectedInfeasible);
  EXPECT_EQ(state("costly"), JobState::kRejectedOverBudget);
  EXPECT_EQ(state("big2"), JobState::kCancelled);
  EXPECT_EQ(state("later"), JobState::kCompleted);
  EXPECT_EQ(state("big1"), JobState::kCompleted);
  EXPECT_GT(service.outcome(service.FindJob("b")).queue_wait, 0.0);
  EXPECT_GT(service.outcome(service.FindJob("later")).submitted_at, 1'000.0);
  int replans = 0;
  for (size_t i = 0; i < service.num_jobs(); ++i) {
    replans += service.outcome(i).replans;
  }
  EXPECT_GT(replans, 0);

  const std::string wal = TempPath("wal_decisions_every_op.wal");
  for (size_t kill_after = 1; kill_after <= ops.size(); ++kill_after) {
    auto victim = std::make_unique<ServiceRunner>(FaultyWalRunner(wal));
    ApplyOps(*victim, ops, 0, kill_after);
    victim->AbandonWal();
    victim.reset();
    const int64_t journaled = JournaledDecisions(wal);

    std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(FaultyWalRunner(wal));
    EXPECT_EQ(resumed->wal_stats().decisions_applied, journaled) << "kill after op " << kill_after;
    ApplyOps(*resumed, ops, kill_after, ops.size());
    EXPECT_EQ(FinalReportText(*resumed), control_report) << "kill after op " << kill_after;
  }
  // Decided by planning at submit: a, tight, costly, big1. Queued (big2,
  // b, c) and future-dated (later) submits carry none.
  auto whole = std::make_unique<ServiceRunner>(FaultyWalRunner(wal));
  ApplyOps(*whole, ops, 0, ops.size());
  whole->AbandonWal();
  whole.reset();
  const std::vector<JsonValue> records = WalRecords(wal);
  for (const char* name : {"a", "tight", "costly", "big1"}) {
    EXPECT_TRUE(records[SubmitRecord(records, name)].Has("decision")) << name;
  }
  for (const char* name : {"big2", "later", "b", "c"}) {
    EXPECT_FALSE(records[SubmitRecord(records, name)].Has("decision")) << name;
  }
}

TEST(WalRecovery, AJournalWithoutDecisionsRecoversToTheSameReport) {
  const std::vector<TimedOp> ops = MixedOps();
  const size_t kill_after = ops.size() - 1;
  const std::string wal = TempPath("wal_decisions_stripped.wal");
  auto victim = std::make_unique<ServiceRunner>(FaultyWalRunner(wal));
  ApplyOps(*victim, ops, 0, kill_after);
  victim->AbandonWal();
  victim.reset();

  // The journal as code before journaled decisions wrote it.
  std::vector<JsonValue> records = WalRecords(wal);
  for (JsonValue& record : records) {
    JsonValue stripped = JsonValue::MakeObject();
    for (const auto& [key, value] : record.object()) {
      if (key != "decision") {
        stripped.Set(key, value);
      }
    }
    record = std::move(stripped);
  }
  WriteWalRecords(wal, records);
  ASSERT_EQ(JournaledDecisions(wal), 0);

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(FaultyWalRunner(wal));
  EXPECT_EQ(resumed->wal_stats().decisions_applied, 0);
  ApplyOps(*resumed, ops, kill_after, ops.size());
  EXPECT_EQ(FinalReportText(*resumed), ControlReport(FaultyWalRunner(""), ops));
}

TEST(WalRecovery, ATamperedDecisionIsRefusedByTheJobsOutcomeDigest) {
  const std::string wal = TempPath("wal_decision_tampered.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  RunToQuiescence(*victim);  // exp1 completes: its outcome digest is journaled
  victim->AbandonWal();
  victim.reset();

  // Same stage count, valid GPU counts, a different plan.
  std::vector<JsonValue> records = WalRecords(wal);
  JsonValue& decision = records[SubmitRecord(records, "exp1")];
  ASSERT_TRUE(decision.Has("decision"));
  JsonValue tampered = decision.at("decision");
  JsonValue plan = JsonValue::MakeArray();
  for (size_t i = 0; i < tampered.at("plan").size(); ++i) {
    plan.Append(JsonValue::MakeNumber(1));
  }
  ASSERT_NE(plan, tampered.at("plan"));
  tampered.Set("plan", std::move(plan));
  decision.Set("decision", std::move(tampered));
  WriteWalRecords(wal, records);

  try {
    ServiceRunner::Open(WalRunner(wal));
    FAIL() << "a tampered decision must not resume";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("replay diverged on job 'exp1'"), std::string::npos)
        << e.what();
  }
}

TEST(WalRecovery, AMalformedDecisionIsRefusedNamingTheRecord) {
  const std::string master = TempPath("wal_decision_master.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(master));
  victim->Handle(Req("submit", SubmitParams("exp1")));
  victim->AbandonWal();
  victim.reset();
  const std::vector<JsonValue> records = WalRecords(master);
  const size_t index = SubmitRecord(records, "exp1");
  ASSERT_TRUE(records[index].Has("decision"));
  const JsonValue& good = records[index].at("decision");

  JsonValue extra_stage = good;
  JsonValue longer = good.at("plan");
  longer.Append(JsonValue::MakeNumber(4));
  extra_stage.Set("plan", std::move(longer));
  JsonValue zero_gpus = good;
  JsonValue zeroed = JsonValue::MakeArray();
  for (size_t i = 0; i < good.at("plan").size(); ++i) {
    zeroed.Append(JsonValue::MakeNumber(i == 0 ? 0 : 4));
  }
  zero_gpus.Set("plan", std::move(zeroed));
  JsonValue not_a_number = good;
  not_a_number.Set("jct_mean_s", JsonValue::MakeString("inf"));
  JsonValue no_counters = good;
  no_counters.Set("cache", JsonValue::MakeObject());

  const std::string wal = TempPath("wal_decision_malformed.wal");
  const std::string where = "wal record " + std::to_string(index);
  for (const JsonValue& bad : {extra_stage, zero_gpus, not_a_number, no_counters}) {
    std::vector<JsonValue> edited = records;
    edited[index].Set("decision", bad);
    WriteWalRecords(wal, edited);
    try {
      ServiceRunner::Open(WalRunner(wal));
      ADD_FAILURE() << "malformed decision resumed: " << bad.ToJson();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where + ": corrupt journal decision"),
                std::string::npos)
          << e.what();
    }
  }
}

// A CRC-valid record that lacks a field replay reads, or holds it with
// another type, is refused as corrupt, naming the record and the field.
TEST(WalRecovery, AMissingOrMistypedRecordFieldIsRefusedNamingIt) {
  const std::string master = TempPath("wal_fields_master.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(master));
  ASSERT_TRUE(victim->Handle(Req("submit", SubmitParams("exp1"))).ok);
  RunToQuiescence(*victim);
  victim->AbandonWal();
  victim.reset();
  const std::vector<JsonValue> records = WalRecords(master);
  size_t outcome = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].at("kind").string() == "outcome") {
      outcome = i;
    }
  }
  ASSERT_GT(outcome, 0u) << "the completed job left no outcome record";
  ASSERT_EQ(records[outcome].at("job").string(), "exp1");

  const auto parsed = [](const std::string& text) { return JsonValue::Parse(text); };
  JsonValue no_jct = JsonValue::MakeObject();
  for (const auto& [key, value] : records[outcome].object()) {
    if (key != "jct_s") {
      no_jct.Set(key, value);
    }
  }
  struct Case {
    std::vector<JsonValue> records;
    size_t record;
    std::string field;
  };
  const std::vector<Case> cases = {
      {{records[0], parsed(R"({"kind":"clock"})")}, 1, "at_s"},
      {{records[0], parsed(R"({"kind":"clock","at_s":"600"})")}, 1, "at_s"},
      {{records[0], parsed(R"({"kind":"submit","at_s":0})")}, 1, "params"},
      {{records[0], parsed(R"({"kind":"cancel","at_s":0})")}, 1, "params"},
      {{records[0], parsed(R"({"kind":"cancel","at_s":0,"params":{}})")}, 1, "job"},
      {[&] {
         std::vector<JsonValue> edited(records.begin(), records.begin() + outcome);
         edited.push_back(no_jct);
         return edited;
       }(),
       outcome, "jct_s"},
  };
  const std::string wal = TempPath("wal_fields_malformed.wal");
  for (const Case& bad : cases) {
    WriteWalRecords(wal, bad.records);
    const std::string expected =
        "wal record " + std::to_string(bad.record) + ": corrupt journal: field '" + bad.field + "'";
    try {
      ServiceRunner::Open(WalRunner(wal));
      ADD_FAILURE() << "a malformed record resumed: " << bad.records.back().ToJson();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
    }
  }
}

// Fleet mode (shared admission evaluators, the arrival-plan memo): kills
// a run of repeated shapes (memo hits, journaled without a decision) and
// distinct ones after half its submits, resumes it, and returns the
// recovered and the uninterrupted final reports.
std::pair<ServiceReport, ServiceReport> FleetRecovery(int capacity_gpus, const std::string& wal) {
  const auto fleet = [capacity_gpus](const std::string& wal_path) {
    RunnerOptions options = WalRunner(wal_path, /*seed=*/29);
    options.service.capacity_gpus = capacity_gpus;
    options.service.share_admission_evaluator = true;
    return options;
  };
  std::vector<TimedOp> ops;
  for (int i = 0; i < 12; ++i) {
    const int trials = i % 3 == 0 ? 16 : 4 + 4 * (i % 2);
    ops.push_back({40.0 * i, "submit",
                   ShapedSubmit("f" + std::to_string(i), trials, 4 + i % 4, 36'000.0)});
  }
  ServiceRunner control(fleet(""));
  ApplyOps(control, ops, 0, ops.size());
  RunToQuiescence(control);

  const size_t kill_after = ops.size() / 2;
  auto victim = std::make_unique<ServiceRunner>(fleet(wal));
  ApplyOps(*victim, ops, 0, kill_after);
  victim->AbandonWal();
  victim.reset();
  const int64_t journaled = JournaledDecisions(wal);
  EXPECT_GT(journaled, 0);
  EXPECT_LT(journaled, static_cast<int64_t>(kill_after));  // memo hits carry none

  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(fleet(wal));
  EXPECT_EQ(resumed->wal_stats().decisions_applied, journaled);
  ApplyOps(*resumed, ops, kill_after, ops.size());
  RunToQuiescence(*resumed);
  return {resumed->service().SnapshotReport(), control.service().SnapshotReport()};
}

TEST(WalRecovery, FleetModeRecoveryDiffersOnlyInPlannerCounters) {
  // 16 GPUs: jobs queue, and a dequeue re-plans a shape from a cold
  // shared evaluator, so only planner.* may differ.
  const auto [actual, expected] = FleetRecovery(16, TempPath("wal_decisions_fleet.wal"));
  ASSERT_EQ(actual.jobs.size(), expected.jobs.size());
  for (size_t i = 0; i < actual.jobs.size(); ++i) {
    EXPECT_EQ(actual.jobs[i].state, expected.jobs[i].state) << i;
    EXPECT_EQ(actual.jobs[i].plan, expected.jobs[i].plan) << i;
    EXPECT_EQ(actual.jobs[i].jct, expected.jobs[i].jct) << i;
    EXPECT_EQ(actual.jobs[i].cost, expected.jobs[i].cost) << i;
  }
  const auto without_planner = [](auto values) {
    std::erase_if(values, [](const auto& entry) { return entry.first.rfind("planner.", 0) == 0; });
    return values;
  };
  EXPECT_EQ(without_planner(actual.metrics.counters), without_planner(expected.metrics.counters));
  EXPECT_EQ(without_planner(actual.metrics.gauges), without_planner(expected.metrics.gauges));
  // A cold evaluator can only add planning work.
  EXPECT_GE(actual.planner_cache.plan_evaluations, expected.planner_cache.plan_evaluations);
  EXPECT_GE(actual.planner_cache.stage_evaluations, expected.planner_cache.stage_evaluations);
}

TEST(WalRecovery, FleetModeRecoveryWithoutRePlansKeepsEveryMetric) {
  // 256 GPUs: nothing queues, and no shape planned before the kill is
  // planned again after it. Applied decisions seed the arrival-plan memo,
  // so every later same-shape arrival stays a memo hit and even the
  // planner counters match.
  const auto [actual, expected] = FleetRecovery(256, TempPath("wal_decisions_fleet_wide.wal"));
  EXPECT_EQ(actual.metrics.counters.at("service.jobs_queued"), 0);
  EXPECT_EQ(actual.metrics.ToJson(), expected.metrics.ToJson());
  EXPECT_EQ(actual.planner_cache.plan_evaluations, expected.planner_cache.plan_evaluations);
  EXPECT_EQ(actual.planner_cache.stage_evaluations, expected.planner_cache.stage_evaluations);
}

// ---------------------------------------------------------------------------
// Idempotency: at-most-once application of retried ops.

TEST(Idempotency, DuplicateSubmitReturnsTheOriginalDecision) {
  ServiceRunner runner(WalRunner(""));
  const OpResult first = runner.Handle(Req("submit", SubmitParams("exp1"), "key-1"));
  ASSERT_TRUE(first.ok) << first.message;
  runner.Handle(Req("advance", AdvanceParams(60.0)));

  // The retry returns the journaled original decision byte-for-byte — not
  // a fresh status (the job has advanced since) and not a second job.
  const OpResult retry = runner.Handle(Req("submit", SubmitParams("exp1"), "key-1"));
  ASSERT_TRUE(retry.ok) << retry.message;
  EXPECT_EQ(retry.body.ToJson(), first.body.ToJson());
  EXPECT_EQ(runner.service().num_jobs(), 1u);
  EXPECT_EQ(runner.idem_duplicates(), 1);

  // A different key is a different op.
  const OpResult other = runner.Handle(Req("submit", SubmitParams("exp2"), "key-2"));
  ASSERT_TRUE(other.ok) << other.message;
  EXPECT_EQ(runner.service().num_jobs(), 2u);
}

TEST(Idempotency, RetriedSubmitAcrossARestartIsAppliedExactlyOnce) {
  const std::string wal = TempPath("wal_idem_restart.wal");
  auto victim = std::make_unique<ServiceRunner>(WalRunner(wal));
  const OpResult original = victim->Handle(Req("submit", SubmitParams("exp1"), "key-9"));
  ASSERT_TRUE(original.ok) << original.message;
  victim->AbandonWal();
  victim.reset();

  // The client never saw the ack (the server died), so it retries against
  // the restarted server. Exactly one job exists; the original decision
  // comes back verbatim.
  std::unique_ptr<ServiceRunner> resumed = ServiceRunner::Open(WalRunner(wal));
  const OpResult retry = resumed->Handle(Req("submit", SubmitParams("exp1"), "key-9"));
  ASSERT_TRUE(retry.ok) << retry.message;
  EXPECT_EQ(retry.body.ToJson(), original.body.ToJson());
  EXPECT_EQ(resumed->service().num_jobs(), 1u);
  EXPECT_EQ(resumed->idem_duplicates(), 1);
}

TEST(Idempotency, CancelRetriesAreIdempotentToo) {
  ServiceRunner runner(WalRunner(""));
  // A future arrival stays PENDING — the only cancellable state.
  JsonValue params = SubmitParams("exp1");
  params.Set("submit_at_s", JsonValue::MakeNumber(5'000.0));
  runner.Handle(Req("submit", params));
  JsonValue who = JsonValue::MakeObject();
  who.Set("job", JsonValue::MakeString("exp1"));
  const OpResult first = runner.Handle(Req("cancel", who, "cxl-1"));
  ASSERT_TRUE(first.ok) << first.message;
  // A bare retry would be CONFLICT (already cancelled); the keyed retry
  // returns the original decision instead.
  const OpResult retry = runner.Handle(Req("cancel", who, "cxl-1"));
  ASSERT_TRUE(retry.ok) << retry.message;
  EXPECT_EQ(retry.body.ToJson(), first.body.ToJson());
  const OpResult bare = runner.Handle(Req("cancel", who));
  EXPECT_FALSE(bare.ok);
  EXPECT_EQ(bare.code, kErrConflict);
}

}  // namespace
}  // namespace rubberband

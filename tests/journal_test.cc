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

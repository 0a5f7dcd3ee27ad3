// Durable write-ahead journal for the serving front door.
//
// File layout: an 8-byte magic ("RBWAL01\n") followed by append-only
// records, each `[4-byte BE payload length][4-byte BE CRC-32C of payload]
// [payload]`. The CRC is per record, so recovery can tell the two failure
// shapes apart:
//
//   - torn tail: the file ends before a record's announced bytes are all
//     present (a crash mid-append). Recovery drops the partial record,
//     reports where the valid prefix ends, and the writer truncates there
//     before resuming appends. The torn record was never acknowledged to a
//     client (appends are acked only after the record — and, under
//     `fsync=always`, its fsync — completes), so dropping it loses nothing
//     a client was promised.
//   - corruption: a record whose announced bytes are all present but whose
//     CRC does not match (bit rot, a flipped byte, an overwritten region).
//     That is not a crash artifact; recovery refuses with an error naming
//     the byte offset rather than replaying a different history.
//
// The records (written by ServiceRunner, service_runner.cc), one JSON
// object each:
//
//   - header: the WAL version and the service's config fingerprint;
//   - submit / cancel: an applied op with its simulation time, tenant,
//     params, idempotency key and response; a submit whose arrival it
//     decided by planning also carries the admission `decision`, which
//     recovery applies instead of planning again;
//   - clock: a simulation time the live run reached (settled completions
//     or a drain);
//   - outcome: a completed job's digest (JCT, cost), verified on replay.
//
// Fsync policy trades durability for append latency: `always` fsyncs every
// record before the append returns (a kill -9 loses at most the in-flight
// unacknowledged record), `batch` fsyncs every N records (a machine crash
// can lose up to N-1 acked records; a mere process kill loses nothing,
// since written pages survive the process), `off` never fsyncs explicitly.

#ifndef SRC_SERVER_JOURNAL_H_
#define SRC_SERVER_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rubberband {

inline constexpr char kWalMagic[] = "RBWAL01\n";  // 8 bytes on disk
inline constexpr size_t kWalMagicBytes = 8;
inline constexpr size_t kWalRecordHeaderBytes = 8;  // length + crc
// A journal record is one op's JSON; far smaller than a wire frame, and a
// corrupt length prefix should fail fast, not allocate gigabytes.
inline constexpr uint32_t kMaxWalRecordBytes = 16 * 1024 * 1024;

enum class FsyncPolicy { kAlways, kBatch, kOff };

// Parses "always" / "batch" / "off"; returns false on anything else.
bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* policy);
const char* ToString(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  size_t batch_records = 16;  // fsync cadence under kBatch
};

// Append side. Create() starts a fresh journal (truncating any existing
// file); OpenAppend() resumes one that ReadWal() already validated.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  bool Create(const std::string& path, const WalOptions& options, std::string* error);
  bool OpenAppend(const std::string& path, const WalOptions& options, std::string* error);

  // Appends one record and applies the fsync policy. Returns false with
  // `*error` set on a write/fsync failure (the journal is then unusable).
  bool Append(const std::string& payload, std::string* error);

  // Forces an fsync regardless of policy (used at graceful close).
  bool Sync(std::string* error);

  // Sync (under kAlways/kBatch) + close.
  void Close();
  // Close WITHOUT the final sync — simulates dying mid-flight. Data already
  // write()n still reaches the file (the page cache belongs to the kernel,
  // not the process); only a machine crash would lose unsynced bytes.
  void Abandon();

  bool is_open() const { return fd_ >= 0; }
  int64_t appends() const { return appends_; }
  int64_t syncs() const { return syncs_; }

  // Test/chaos hook: writes only the first `bytes` bytes of what Append
  // would have written (a record torn mid-write), then syncs. Models a
  // kill -9 that lands between a record's first and last byte.
  bool AppendTorn(const std::string& payload, size_t bytes, std::string* error);

 private:
  bool Open(const std::string& path, const WalOptions& options, bool truncate,
            std::string* error);

  int fd_ = -1;
  WalOptions options_;
  size_t unsynced_records_ = 0;
  int64_t appends_ = 0;
  int64_t syncs_ = 0;
};

struct WalReadResult {
  std::vector<std::string> records;
  // Byte length of the valid prefix (magic + complete, CRC-clean records).
  uint64_t valid_bytes = 0;
  // True when a partial record was dropped from the tail.
  bool torn_tail = false;
  uint64_t torn_offset = 0;  // where the dropped partial record began
};

// Reads every complete record. Returns false with `*error` naming the byte
// offset on corruption (missing/garbled magic, or a complete record whose
// CRC mismatches). A truncated tail is NOT an error: it is reported through
// `torn_tail`/`torn_offset` and the caller truncates to `valid_bytes`
// before reopening for append. An empty or absent file yields zero records.
bool ReadWal(const std::string& path, WalReadResult* result, std::string* error);

// Truncates the journal to `valid_bytes` (torn-tail repair).
bool TruncateWal(const std::string& path, uint64_t valid_bytes, std::string* error);

}  // namespace rubberband

#endif  // SRC_SERVER_JOURNAL_H_

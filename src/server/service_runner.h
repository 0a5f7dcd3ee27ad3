// ServiceRunner: the single-threaded owner of a live TuningService behind
// the serving front door.
//
// The server's I/O threads never touch the TuningService — they enqueue
// requests, and exactly one service thread calls Handle() for each. That
// thread-per-service design keeps the discrete-event simulation single-
// threaded (its determinism contract) while the network side scales with
// connections.
//
// Restartability is event sourcing. Every state-changing op (submit,
// cancel) is appended to the write-ahead log (`journal.{h,cc}`) with the
// simulation time at which it was applied, and (per fsync policy) fsynced
// BEFORE its response leaves the server. A submit whose arrival the op
// decided by planning also carries that AdmissionDecision (the plan, its
// estimate and the planner-cache counters it cost), unless the job queued.
// A live run is a pure function of (seed, config, the stamped operation
// sequence, those decisions): Open() replays the ops and applies each
// journaled decision instead of planning it again, so per-job mode
// recovers byte-identical reports, planner line included. In fleet mode
// (ServiceConfig::share_admission_evaluator) a shape planned before the
// stop and again after it (a new deadline, or a dequeue) plans from a cold
// shared evaluator, so only its planner.* counters can read higher. Open()
// resumes after any stop: a kill -9 at any byte (torn tails are truncated)
// or a drain, which pins its clock in the log so the resume continues at
// the drained time. Completed-outcome digest records interleaved in the
// log verify the replay reproduced history or the resume refuses.

#ifndef SRC_SERVER_SERVICE_RUNNER_H_
#define SRC_SERVER_SERVICE_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/server/journal.h"
#include "src/server/protocol.h"
#include "src/service/tuning_service.h"

namespace rubberband {

struct RunnerOptions {
  ServiceConfig service;
  // Simulated seconds the clock advances per idle Tick(); 0 disables
  // auto-advance (tests drive time with the explicit `advance` method).
  double auto_advance_step = 0.0;
  // Write-ahead journal. Empty path disables the WAL (nothing survives a
  // restart).
  std::string wal_path;
  WalOptions wal;
};

// Outcome of one handled request, transport-agnostic.
struct OpResult {
  bool ok = true;
  JsonValue body;            // `result` payload when ok
  std::string code;          // protocol error code when !ok
  std::string message;
  int64_t retry_after_ms = -1;

  static OpResult Ok(JsonValue body);
  static OpResult Error(std::string code, std::string message, int64_t retry_after_ms = -1);
};

// Counters from a WAL recovery, surfaced to metrics and the chaos bench.
struct WalRecoveryStats {
  bool recovered = false;      // true when Open() replayed a non-empty WAL
  int64_t ops_replayed = 0;
  int64_t outcomes_verified = 0;
  // Journaled admission decisions recovery applied instead of planning.
  int64_t decisions_applied = 0;
  bool torn_tail_truncated = false;
  uint64_t torn_offset = 0;
};

class ServiceRunner {
 public:
  // Starts a FRESH run. With `wal_path` set this truncates any existing
  // journal at that path — use Open() to resume one.
  explicit ServiceRunner(const RunnerOptions& options);

  ServiceRunner(const ServiceRunner&) = delete;
  ServiceRunner& operator=(const ServiceRunner&) = delete;

  // Resumes from the WAL at options.wal_path when it exists and holds
  // records; otherwise starts fresh (identical to the constructor). Throws
  // std::runtime_error, naming the byte offset or record where possible, on
  // a corrupt journal (a record field that replay reads missing or
  // mistyped, named with its record; a journaled decision with a wrong
  // stage count, a GPU count below 1, or a missing or non-finite field), a
  // config-fingerprint mismatch, or a replay that diverges from the
  // journaled outcome digests.
  static std::unique_ptr<ServiceRunner> Open(const RunnerOptions& options);

  // Dispatches one request (submit / cancel / status / report / metrics /
  // trace / advance / drain / ping). Single-threaded: caller guarantees no
  // concurrent Handle/Tick. `server_metrics`, when non-null, is merged into
  // the `metrics` response (the server's own request-path registry).
  OpResult Handle(const Request& request, const MetricsSnapshot* server_metrics = nullptr);

  // One auto-advance pacing step (no-op when auto_advance_step == 0 or the
  // service is idle with no pending events).
  void Tick();

  // True once a drain was requested; new submits are refused.
  bool draining() const { return draining_; }

  // Closes the WAL without the final fsync — crash simulation (see
  // WalWriter::Abandon). Safe to call when no WAL is configured.
  void AbandonWal();

  TuningService& service() { return *service_; }
  const RunnerOptions& options() const { return options_; }
  const WalRecoveryStats& wal_stats() const { return wal_stats_; }
  int64_t wal_appends() const { return wal_.appends(); }
  int64_t idem_duplicates() const { return idem_duplicates_; }

 private:
  OpResult HandleSubmit(const Request& request);
  OpResult HandleCancel(const Request& request);
  OpResult HandleStatus(const Request& request);
  OpResult HandleReport();
  OpResult HandleMetrics(const MetricsSnapshot* server_metrics);
  OpResult HandleTrace();
  OpResult HandleAdvance(const Request& request);
  OpResult HandleDrain(const Request& request);

  // Records one applied op — `kind` "submit"/"cancel", applied at
  // simulation time `at`, with its journal-form `params` (submit params or
  // {"job": name}), its `response` and, for a submit whose arrival it
  // planned, the admission `decision` — in the idempotency index and, when
  // configured, the WAL (append + fsync per policy). Called after the op
  // applied but before its response leaves Handle(): the WAL write is
  // ahead of the acknowledgement, which is the durability contract.
  void CommitOp(const char* kind, Seconds at, const Request& request, JsonValue params,
                const JsonValue& response, const AdmissionDecision* decision = nullptr);
  // Appends clock + outcome digest records for newly completed jobs. With
  // `pin_clock` the clock record is written even when no job completed.
  void JournalNewOutcomes(bool pin_clock = false);
  // Returns the journaled original decision when `key` was seen before.
  const std::string* FindIdempotent(const std::string& key) const;

  // Replays one WAL record into the service; throws on corruption or
  // divergence. `where` names the record for error messages.
  void ReplayWalRecord(const JsonValue& record, const std::string& where);

  RunnerOptions options_;
  std::unique_ptr<TuningService> service_;
  // Idempotency index: key -> serialized original decision body. Rebuilt
  // from the WAL on recovery, so it survives restarts.
  std::map<std::string, std::string> idem_index_;
  int64_t idem_duplicates_ = 0;
  WalWriter wal_;
  WalRecoveryStats wal_stats_;
  std::vector<bool> outcome_digested_;  // per job index, WAL outcome written
  bool draining_ = false;
};

}  // namespace rubberband

#endif  // SRC_SERVER_SERVICE_RUNNER_H_

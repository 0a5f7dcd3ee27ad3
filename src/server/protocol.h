// Wire protocol for the serving front door.
//
// Requests and responses are single JSON objects, one per frame:
//
//   request:  {"id": 7, "tenant": "alice", "method": "submit",
//              "params": {...}}
//   success:  {"id": 7, "ok": true, "result": {...}}
//   failure:  {"id": 7, "ok": false,
//              "error": {"code": "RATE_LIMITED", "message": "...",
//                        "retry_after_ms": 120}}
//
// `id` is an opaque client-chosen correlation value echoed verbatim.
// `tenant` names the rate-limit bucket (default "default"). Error codes are
// closed-vocabulary so clients can switch on them; `retry_after_ms` is only
// present on the two backpressure codes, and it is honest — computed from
// the token bucket or queue state, not a constant.

#ifndef SRC_SERVER_PROTOCOL_H_
#define SRC_SERVER_PROTOCOL_H_

#include <string>

#include "src/obs/json.h"
#include "src/service/tuning_service.h"

namespace rubberband {

// Closed vocabulary of protocol error codes.
inline constexpr const char* kErrBadRequest = "BAD_REQUEST";    // malformed envelope/params
inline constexpr const char* kErrRateLimited = "RATE_LIMITED";  // tenant over its token rate
inline constexpr const char* kErrQueueFull = "QUEUE_FULL";      // admission queue at capacity
inline constexpr const char* kErrDraining = "DRAINING";         // server refusing new work
inline constexpr const char* kErrNotFound = "NOT_FOUND";        // unknown job name
inline constexpr const char* kErrConflict = "CONFLICT";         // op illegal in current state
inline constexpr const char* kErrInternal = "INTERNAL";         // handler threw
inline constexpr const char* kErrTimeout = "TIMEOUT";           // client-side deadline expired

// Largest simulation time the front door accepts, in seconds (about
// 31,700 years). Far beyond it a double no longer resolves a second, so
// every stage event of a job placed out there lands on the same instant.
// Bounds submit_at_s, deadline_s, their sum, and the advance target.
inline constexpr double kMaxWireSeconds = 1e12;

// A parsed request envelope.
struct Request {
  JsonValue id;  // echoed verbatim; null when the client sent none
  std::string tenant = "default";
  std::string method;
  JsonValue params;  // object; empty object when absent
  // Client-supplied idempotency key (optional). A submit/cancel retried
  // with the same key after an ambiguous failure (timeout, dead
  // connection, server restart) is applied at most once: the journaled
  // original decision is returned verbatim instead of re-executing.
  std::string idem;
};

// Parses one request frame. Returns false with `*error` set on malformed
// JSON, a non-object document, or a missing/non-string method.
bool ParseRequest(const std::string& payload, Request* request, std::string* error);

// Builds a success / failure response envelope. `retry_after_ms` < 0 omits
// the field.
std::string OkResponse(const JsonValue& id, JsonValue result);
std::string ErrorResponse(const JsonValue& id, const std::string& code,
                          const std::string& message, int64_t retry_after_ms = -1);

// Builds a JobRequest from `submit` params:
//   name (string, required), workload (zoo name, default resnet101-cifar10),
//   trials/min_iters/max_iters/eta (SHA shape, defaults 32/1/50/3),
//   deadline_s (required, > 0), budget_dollars (default 0 = unbounded),
//   weight (default 1.0).
// Returns false with `*error` naming the offending field.
bool ParseJobRequest(const JsonValue& params, JobRequest* request, std::string* error);

// Re-serializes a JobRequest's wire-expressible fields as submit params
// (the journal stores ops in exactly the shape `submit` accepts).
JsonValue JobRequestToParams(const JobRequest& request);

// One job's status object: {job, state, submitted_at_s, ...}; timing and
// cost fields appear once the job settles.
JsonValue JobStatusJson(const JobOutcome& outcome);

}  // namespace rubberband

#endif  // SRC_SERVER_PROTOCOL_H_

#include "src/server/protocol.h"

#include <cmath>
#include <stdexcept>

#include "src/spec/sha.h"
#include "src/trainer/model_zoo.h"

namespace rubberband {

namespace {

// Fetches an optional numeric field; returns false (with *error) when the
// field exists but is not a number.
bool GetNumber(const JsonValue& params, const std::string& key, double* out,
               std::string* error) {
  if (!params.Has(key)) {
    return true;
  }
  const JsonValue& value = params.at(key);
  if (!value.is_number()) {
    *error = "field '" + key + "' must be a number";
    return false;
  }
  *out = value.number();
  return true;
}

bool GetInt(const JsonValue& params, const std::string& key, int64_t* out, std::string* error) {
  double number = static_cast<double>(*out);
  if (!GetNumber(params, key, &number, error)) {
    return false;
  }
  if (number != std::floor(number)) {
    *error = "field '" + key + "' must be an integer";
    return false;
  }
  *out = static_cast<int64_t>(number);
  return true;
}

}  // namespace

bool ParseRequest(const std::string& payload, Request* request, std::string* error) {
  JsonValue doc;
  try {
    doc = JsonValue::Parse(payload);
  } catch (const std::exception& e) {
    *error = std::string("malformed JSON: ") + e.what();
    return false;
  }
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  if (doc.Has("id")) {
    request->id = doc.at("id");
  }
  if (doc.Has("tenant")) {
    if (!doc.at("tenant").is_string() || doc.at("tenant").string().empty()) {
      *error = "field 'tenant' must be a non-empty string";
      return false;
    }
    request->tenant = doc.at("tenant").string();
  }
  if (!doc.Has("method") || !doc.at("method").is_string()) {
    *error = "missing string field 'method'";
    return false;
  }
  request->method = doc.at("method").string();
  if (doc.Has("idem")) {
    if (!doc.at("idem").is_string()) {
      *error = "field 'idem' must be a string";
      return false;
    }
    request->idem = doc.at("idem").string();
  }
  if (doc.Has("params")) {
    if (!doc.at("params").is_object()) {
      *error = "field 'params' must be an object";
      return false;
    }
    request->params = doc.at("params");
  } else {
    request->params = JsonValue::MakeObject();
  }
  return true;
}

std::string OkResponse(const JsonValue& id, JsonValue result) {
  JsonValue response = JsonValue::MakeObject();
  response.Set("id", id);
  response.Set("ok", JsonValue::MakeBool(true));
  response.Set("result", std::move(result));
  return response.ToJson();
}

std::string ErrorResponse(const JsonValue& id, const std::string& code,
                          const std::string& message, int64_t retry_after_ms) {
  JsonValue detail = JsonValue::MakeObject();
  detail.Set("code", JsonValue::MakeString(code));
  detail.Set("message", JsonValue::MakeString(message));
  if (retry_after_ms >= 0) {
    detail.Set("retry_after_ms", JsonValue::MakeNumber(static_cast<double>(retry_after_ms)));
  }
  JsonValue response = JsonValue::MakeObject();
  response.Set("id", id);
  response.Set("ok", JsonValue::MakeBool(false));
  response.Set("error", std::move(detail));
  return response.ToJson();
}

bool ParseJobRequest(const JsonValue& params, JobRequest* request, std::string* error) {
  if (!params.Has("name") || !params.at("name").is_string() ||
      params.at("name").string().empty()) {
    *error = "submit needs a non-empty string field 'name'";
    return false;
  }
  request->name = params.at("name").string();

  std::string workload_name = "resnet101-cifar10";
  if (params.Has("workload")) {
    if (!params.at("workload").is_string()) {
      *error = "field 'workload' must be a string";
      return false;
    }
    workload_name = params.at("workload").string();
  }
  const auto workload = FindWorkload(workload_name);
  if (!workload.has_value()) {
    *error = "unknown workload '" + workload_name + "'";
    return false;
  }
  request->workload = *workload;

  try {
    if (params.Has("stages")) {
      // An explicit stage list (the journal's form) overrides the SHA
      // shape: replay must rebuild the exact spec, not re-derive it.
      if (!params.at("stages").is_array() || params.at("stages").size() == 0) {
        *error = "field 'stages' must be a non-empty array";
        return false;
      }
      ExperimentSpec spec;
      for (const JsonValue& entry : params.at("stages").array()) {
        if (!entry.is_object() || !entry.Has("trials") || !entry.Has("iters") ||
            !entry.at("trials").is_number() || !entry.at("iters").is_number()) {
          *error = "each stage needs numeric 'trials' and 'iters'";
          return false;
        }
        spec.AddStage(static_cast<int>(entry.at("trials").number()),
                      static_cast<int64_t>(entry.at("iters").number()));
      }
      spec.Validate();
      request->spec = spec;
    } else {
      int64_t trials = 32, min_iters = 1, max_iters = 50, eta = 3;
      if (!GetInt(params, "trials", &trials, error) ||
          !GetInt(params, "min_iters", &min_iters, error) ||
          !GetInt(params, "max_iters", &max_iters, error) ||
          !GetInt(params, "eta", &eta, error)) {
        return false;
      }
      request->spec =
          MakeSha(static_cast<int>(trials), min_iters, max_iters, static_cast<int>(eta));
      request->spec.Validate();
    }
  } catch (const std::exception& e) {
    *error = std::string("invalid experiment shape: ") + e.what();
    return false;
  }

  double deadline_s = 0.0;
  if (!GetNumber(params, "deadline_s", &deadline_s, error)) {
    return false;
  }
  if (deadline_s <= 0.0) {
    *error = "submit needs 'deadline_s' > 0";
    return false;
  }
  request->deadline = deadline_s;

  double budget = 0.0, weight = 1.0, submit_at = 0.0;
  if (!GetNumber(params, "budget_dollars", &budget, error) ||
      !GetNumber(params, "weight", &weight, error) ||
      !GetNumber(params, "submit_at_s", &submit_at, error)) {
    return false;
  }
  if (weight <= 0.0) {
    *error = "field 'weight' must be > 0";
    return false;
  }
  if (submit_at > kMaxWireSeconds || deadline_s > kMaxWireSeconds ||
      submit_at + deadline_s > kMaxWireSeconds) {
    *error = "fields 'submit_at_s', 'deadline_s' and their sum must be <= 1e12";
    return false;
  }
  request->budget = Money::FromDollars(budget);
  request->weight = weight;
  request->submit_at = submit_at;
  return true;
}

JsonValue JobRequestToParams(const JobRequest& request) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(request.name));
  params.Set("workload", JsonValue::MakeString(request.workload.name));
  params.Set("trials", JsonValue::MakeNumber(request.spec.stage(0).num_trials));
  params.Set("min_iters",
             JsonValue::MakeNumber(static_cast<double>(request.spec.stage(0).iters_per_trial)));
  params.Set("max_iters",
             JsonValue::MakeNumber(static_cast<double>(request.spec.CumulativeIters(
                 request.spec.num_stages() - 1))));
  params.Set("deadline_s", JsonValue::MakeNumber(request.deadline));
  params.Set("budget_dollars", JsonValue::MakeNumber(request.budget.dollars()));
  params.Set("weight", JsonValue::MakeNumber(request.weight));
  params.Set("submit_at_s", JsonValue::MakeNumber(request.submit_at));
  // eta is recoverable from the stage sequence only approximately; the
  // journal stores the explicit stage list instead so replay rebuilds the
  // exact spec.
  JsonValue stages = JsonValue::MakeArray();
  for (const Stage& stage : request.spec.stages()) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("trials", JsonValue::MakeNumber(stage.num_trials));
    entry.Set("iters", JsonValue::MakeNumber(static_cast<double>(stage.iters_per_trial)));
    stages.Append(std::move(entry));
  }
  params.Set("stages", std::move(stages));
  return params;
}

JsonValue JobStatusJson(const JobOutcome& outcome) {
  JsonValue status = JsonValue::MakeObject();
  status.Set("job", JsonValue::MakeString(outcome.name));
  status.Set("state", JsonValue::MakeString(ToString(outcome.state)));
  status.Set("submitted_at_s", JsonValue::MakeNumber(outcome.submitted_at));
  if (outcome.state == JobState::kCompleted) {
    status.Set("queue_wait_s", JsonValue::MakeNumber(outcome.queue_wait));
    status.Set("jct_s", JsonValue::MakeNumber(outcome.jct));
    status.Set("cost_dollars", JsonValue::MakeNumber(outcome.cost.dollars()));
    status.Set("best_accuracy", JsonValue::MakeNumber(outcome.best_accuracy));
    status.Set("met_deadline", JsonValue::MakeBool(outcome.met_deadline));
    status.Set("preemptions", JsonValue::MakeNumber(outcome.preemptions));
  }
  return status;
}

}  // namespace rubberband

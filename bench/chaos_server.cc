// Chaos harness for the serving front door: a seeded kill/restart schedule
// against a live arrival trace, with the acceptance bar that the final
// report is BYTE-IDENTICAL to the same trace run without any kills.
//
// The driver submits jobs at absolute simulation times (ping for now_s,
// advance the difference), so restart timing cannot move ops in sim time.
// Each op carries an idempotency key and is sent via CallIdempotent: when
// a kill lands between an op's WAL append and its ack, the retry against
// the recovered server returns the journaled original decision instead of
// double-submitting. Kills are abrupt (Server::Kill — no drain, no final
// fsync), recovery is pure WAL replay, and half the kills (seeded) also
// splice a torn partial record onto the journal tail to model dying
// mid-append under fsync=always.
//
//   --seeds=3            run kill schedules for seeds base..base+seeds-1
//   --seed=11            base seed (service seed and kill schedule)
//   --jobs=12            arrival trace length
//   --kill-rate=0.3      per-op kill probability
//   --json <path>        write BENCH_chaos.json
//
// Exits non-zero if any seed's chaos report differs from its control
// report, or if a seed recovered a journal holding a submit whose arrival
// was decided at submit and applied no journaled decision (recovery
// re-planned what it should have read back). The BenchBaseline.ChaosServer
// ctest entry runs it with --json as a gate and compares the JSON against
// the checked-in BENCH_chaos.json byte for byte.

#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/server/client.h"
#include "src/server/server.h"

#include <fstream>

namespace rubberband {
namespace {

constexpr double kArrivalGapS = 45.0;  // sim seconds between submits

JsonValue TinySubmitParams(const std::string& name) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString(name));
  params.Set("trials", JsonValue::MakeNumber(4));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(4));
  params.Set("eta", JsonValue::MakeNumber(2));
  params.Set("deadline_s", JsonValue::MakeNumber(36'000.0));
  return params;
}

ServerOptions BaseOptions(uint64_t seed, const std::string& wal_path) {
  ServerOptions options;
  options.port = 0;
  options.runner.service.capacity_gpus = 16;
  options.runner.service.seed = seed;
  options.runner.auto_advance_step = 0.0;  // the driver owns the clock
  options.runner.wal_path = wal_path;
  options.runner.wal.fsync = FsyncPolicy::kAlways;
  return options;
}

struct ChaosCounters {
  int kills = 0;
  int torn_tails_injected = 0;
  int64_t wal_recoveries = 0;
  int64_t ops_replayed = 0;
  int64_t decisions_applied = 0;
  int64_t torn_tails_truncated = 0;
  int64_t idem_duplicates = 0;
  int64_t client_retries = 0;
  int64_t client_reconnects = 0;
  int64_t client_timeouts = 0;
};

struct ChaosRun {
  bool ok = false;
  std::string final_report;
  ChaosCounters counters;
  // Some restart recovered a journal holding a submit acknowledged as
  // decided (running or rejected, not pending or queued).
  bool recovered_decided_submit = false;
};

// A submit acknowledged in this state had its arrival decided by the op.
bool DecidedAtSubmit(const JsonValue& decision) {
  const std::string& state = decision.at("state").string();
  return state == "RUNNING" || state.rfind("REJECTED", 0) == 0;
}

bool Call(Client& client, const std::string& method, const JsonValue& params,
          const std::string& idem, JsonValue* result) {
  JsonValue response;
  std::string error;
  if (!client.CallIdempotent(method, params, "default", idem, &response, &error)) {
    std::fprintf(stderr, "error: %s %s: %s\n", method.c_str(), idem.c_str(), error.c_str());
    return false;
  }
  if (!response.at("ok").bool_value()) {
    std::fprintf(stderr, "error: %s rejected: %s\n", method.c_str(), response.ToJson().c_str());
    return false;
  }
  *result = response.at("result");
  return true;
}

// Drives simulation time to the ABSOLUTE target, whatever the restarted
// server's clock says (recovery replays only journaled ops, so a restart
// can be "behind" the pre-kill clock until the driver re-advances it).
bool AdvanceTo(Client& client, double target) {
  JsonValue now_result;
  if (!Call(client, "ping", JsonValue::MakeObject(), "", &now_result)) {
    return false;
  }
  const double now = now_result.at("now_s").number();
  if (now >= target) {
    return true;
  }
  JsonValue params = JsonValue::MakeObject();
  params.Set("seconds", JsonValue::MakeNumber(target - now));
  JsonValue advanced;
  return Call(client, "advance", params, "", &advanced);
}

void HarvestServer(Server& server, ChaosCounters* counters) {
  const ServiceRunner* runner = server.runner();
  counters->idem_duplicates += runner->idem_duplicates();
  if (runner->wal_stats().recovered) {
    ++counters->wal_recoveries;
    counters->ops_replayed += runner->wal_stats().ops_replayed;
    counters->decisions_applied += runner->wal_stats().decisions_applied;
    if (runner->wal_stats().torn_tail_truncated) {
      ++counters->torn_tails_truncated;
    }
  }
}

ChaosRun RunTrace(uint64_t seed, int jobs, double kill_rate, bool chaos) {
  ChaosRun run;
  const std::string wal_path =
      "/tmp/rb_chaos_" + std::to_string(seed) + (chaos ? "_chaos" : "_control") + ".wal";
  std::remove(wal_path.c_str());

  ServerOptions options = BaseOptions(seed, wal_path);
  auto server = std::make_unique<Server>(options);
  std::string error;
  if (!server->Start(&error)) {
    std::fprintf(stderr, "error: start: %s\n", error.c_str());
    return run;
  }
  options.port = server->port();  // restarts rebind the same front door

  ClientOptions client_options;
  client_options.max_attempts = 30;
  client_options.base_backoff_ms = 5.0;
  client_options.max_backoff_ms = 100.0;
  client_options.connect_timeout_ms = 2'000;
  client_options.io_timeout_ms = 10'000;
  client_options.seed = seed;
  Client client(client_options);
  if (!client.Connect("127.0.0.1", server->port(), &error)) {
    std::fprintf(stderr, "error: connect: %s\n", error.c_str());
    return run;
  }

  Rng schedule = Rng::ForStream(seed, /*stream=*/0xC4A05, /*index=*/0);
  bool journaled_decided_submit = false;
  for (int i = 0; i < jobs; ++i) {
    const double at = static_cast<double>(i) * kArrivalGapS;
    if (!AdvanceTo(client, at)) {
      return run;
    }
    const std::string name = "chaos-job-" + std::to_string(i);
    JsonValue decision;
    if (!Call(client, "submit", TinySubmitParams(name), /*idem=*/name, &decision)) {
      return run;
    }
    journaled_decided_submit = journaled_decided_submit || DecidedAtSubmit(decision);

    if (chaos && schedule.Uniform(0.0, 1.0) < kill_rate) {
      // kill -9 between ops. Half the kills also die mid-append: splice a
      // torn record (3 bytes of a length prefix) onto the journal tail —
      // an in-process kill cannot tear a completed write() on its own.
      HarvestServer(*server, &run.counters);
      server->Kill();
      server.reset();
      ++run.counters.kills;
      run.recovered_decided_submit = run.recovered_decided_submit || journaled_decided_submit;
      if (schedule.Uniform(0.0, 1.0) < 0.5) {
        std::ofstream torn(wal_path, std::ios::binary | std::ios::app);
        torn << std::string("\x00\x00\x01", 3);
        ++run.counters.torn_tails_injected;
      }
      server = std::make_unique<Server>(options);
      if (!server->Start(&error)) {
        std::fprintf(stderr, "error: restart: %s\n", error.c_str());
        return run;
      }
      // Model a lost ack: re-send the submit the kill chased, same key.
      // The recovered server must answer with the journaled original
      // decision, not a second job.
      JsonValue replayed;
      if (!Call(client, "submit", TinySubmitParams(name), /*idem=*/name, &replayed)) {
        return run;
      }
      if (replayed.ToJson() != decision.ToJson()) {
        std::fprintf(stderr, "error: idempotent retry diverged from original decision\n");
        return run;
      }
    }
  }

  // Run everything to completion, then take the final report.
  for (int i = 0; i < 10'000; ++i) {
    JsonValue params = JsonValue::MakeObject();
    params.Set("seconds", JsonValue::MakeNumber(600.0));
    JsonValue advanced;
    if (!Call(client, "advance", params, "", &advanced)) {
      return run;
    }
    if (advanced.at("idle").bool_value()) {
      break;
    }
  }
  JsonValue report;
  if (!Call(client, "report", JsonValue::MakeObject(), "", &report)) {
    return run;
  }
  run.final_report = report.at("text").string();

  server->Stop();
  HarvestServer(*server, &run.counters);
  run.counters.client_retries = client.stats().retries;
  run.counters.client_reconnects = client.stats().reconnects;
  run.counters.client_timeouts = client.stats().timeouts;
  std::remove(wal_path.c_str());
  run.ok = true;
  return run;
}

struct SeedVerdict {
  uint64_t seed = 0;
  bool identical = false;
  ChaosCounters counters;
};

bool WriteJson(const std::string& path, int jobs, double kill_rate,
               const std::vector<SeedVerdict>& verdicts) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"chaos_server\",\n");
  std::fprintf(file, "  \"jobs\": %d,\n  \"kill_rate\": %.2f,\n  \"seeds\": [\n", jobs,
               kill_rate);
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const SeedVerdict& v = verdicts[i];
    std::fprintf(file,
                 "    {\"seed\": %llu, \"report_identical\": %s, \"kills\": %d, "
                 "\"torn_tails_injected\": %d, \"wal_recoveries\": %lld, "
                 "\"ops_replayed\": %lld, \"decisions_applied\": %lld, "
                 "\"torn_tails_truncated\": %lld, "
                 "\"idem_duplicates\": %lld, \"client_retries\": %lld, "
                 "\"client_reconnects\": %lld, \"client_timeouts\": %lld}%s\n",
                 static_cast<unsigned long long>(v.seed), v.identical ? "true" : "false",
                 v.counters.kills, v.counters.torn_tails_injected,
                 static_cast<long long>(v.counters.wal_recoveries),
                 static_cast<long long>(v.counters.ops_replayed),
                 static_cast<long long>(v.counters.decisions_applied),
                 static_cast<long long>(v.counters.torn_tails_truncated),
                 static_cast<long long>(v.counters.idem_duplicates),
                 static_cast<long long>(v.counters.client_retries),
                 static_cast<long long>(v.counters.client_reconnects),
                 static_cast<long long>(v.counters.client_timeouts),
                 i + 1 < verdicts.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  const uint64_t base_seed = static_cast<uint64_t>(flags.GetInt64("seed", 11));
  const int seeds = flags.GetInt("seeds", 3);
  const int jobs = flags.GetInt("jobs", 12);
  const double kill_rate = flags.GetDouble("kill-rate", 0.3);

  bench::Heading("chaos: seeded kill/restart vs uninterrupted control");
  std::vector<SeedVerdict> verdicts;
  bool all_identical = true;
  bool decisions_read_back = true;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(s);
    const ChaosRun control = RunTrace(seed, jobs, kill_rate, /*chaos=*/false);
    const ChaosRun chaotic = RunTrace(seed, jobs, kill_rate, /*chaos=*/true);
    SeedVerdict verdict;
    verdict.seed = seed;
    verdict.counters = chaotic.counters;
    verdict.identical =
        control.ok && chaotic.ok && control.final_report == chaotic.final_report;
    all_identical = all_identical && verdict.identical;
    const bool vacuous =
        chaotic.recovered_decided_submit && chaotic.counters.decisions_applied == 0;
    decisions_read_back = decisions_read_back && !vacuous;
    verdicts.push_back(verdict);
    std::printf(
        "seed %llu: %s (%d kills, %d torn tails, %lld ops replayed, "
        "%lld decisions applied%s, %lld idem duplicates, %lld client retries)\n",
        static_cast<unsigned long long>(seed),
        verdict.identical ? "report byte-identical" : "REPORT DIVERGED",
        chaotic.counters.kills, chaotic.counters.torn_tails_injected,
        static_cast<long long>(chaotic.counters.ops_replayed),
        static_cast<long long>(chaotic.counters.decisions_applied),
        vacuous ? " (NONE, yet a decided submit was journaled)" : "",
        static_cast<long long>(chaotic.counters.idem_duplicates),
        static_cast<long long>(chaotic.counters.client_retries));
  }

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, jobs, kill_rate, verdicts)) {
      return 1;
    }
  }
  if (!all_identical) {
    std::fprintf(stderr, "error: chaos run diverged from control\n");
    return 1;
  }
  if (!decisions_read_back) {
    std::fprintf(stderr,
                 "error: a seed recovered a decided submit but applied no journaled decision\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }

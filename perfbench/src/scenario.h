// Workload scenarios for the end-to-end benchmark.
//
// A scenario is everything one workload feeds the program: the service
// configuration, the in-process replay trace (compiled experiments with
// arrival times), the wire-expressible submit stream the front door serves,
// and the fixed pacing of the serve phase. Every field is a pure function of
// (workload name, seed), drawn from the benchmark's own SplitMix64 stream so
// a change to the program's random number generator cannot change the
// inputs.

#ifndef PERFBENCH_SRC_SCENARIO_H_
#define PERFBENCH_SRC_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/service/tuning_service.h"

namespace perfbench {

// SplitMix64: the benchmark's input stream, independent of the program's Rng.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                       // [0, 1)
  int Pick(int n);                        // [0, n)
  double Exponential(double mean);

 private:
  uint64_t state_;
};

// One submit on the wire, with the simulated time it is due.
struct WireSubmit {
  rubberband::JsonValue params;  // `submit` params (SHA shape)
  std::string tenant;
  double at_s = 0.0;
};

struct Scenario {
  rubberband::ServiceConfig config;
  // In-process replay trace.
  std::vector<rubberband::ExperimentRequest> experiments;
  // Front-door submits in order; one `advance` after every `advance_every`
  // submits moves the simulated clock to the next block's due time (the
  // generator owns the clock).
  std::vector<WireSubmit> serve;
  int advance_every = 10;
  int journal_submits = 1000;  // submits in the journal the recoveries reopen
  double submit_rps = 100.0;   // nominal open-loop submit rate (wall clock)
  double status_rps = 400.0;   // nominal status-poll rate, second connection
  int capacity_burst = 100;    // submits per closed-loop capacity burst
  int rounds = 8;              // timed rounds of replay, recovery, serve and capacity
};

// Builds the scenario; throws std::invalid_argument on an unknown name.
Scenario MakeScenario(const std::string& workload, uint64_t seed);

// Service-side evaluator key of a compiled unit, as the tuning service
// forms it when it shares admission evaluators across jobs.
std::string ShapeKey(const rubberband::JobRequest& job);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCENARIO_H_

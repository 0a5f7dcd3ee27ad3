// Running RubberBand as a service: many tenants, one elastic cluster.
//
// A single tuning job rents its cluster, pays the provisioning tax once,
// and walks away. A tuning *service* amortizes that tax across a stream of
// jobs: admission control runs the planner on every arrival and rejects
// deadlines it cannot honor, a weighted max-min arbiter divides the GPUs
// among whatever is running, and a warm pool recycles one job's
// still-billed instances into the next job's scale-up so successors skip
// the queuing + init delay entirely.
//
// This example replays the same five-job arrival trace twice — cold
// (every release terminates) and warm — and compares the bills. A replay
// is the same call sequence a serving front door makes: SubmitLive
// schedules each tenant's arrival on the service's one timeline, and Run()
// drives that timeline to the end and returns the settled report.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  // Provisioning is expensive here (~2.5 min to a usable machine, billed
  // from launch) — exactly the regime the warm pool is for.
  cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);

  ServiceConfig config;
  config.cloud = cloud;
  config.capacity_gpus = 4;
  config.seed = 7;

  // Five tenants submit within five minutes; a one-instance cluster works
  // through them back to back. Every hand-off from a finishing job to the
  // next in the queue happens the moment the instance is released — the
  // warm pool turns that into a zero-idle, zero-init hand-over.
  const auto replay = [&](const WarmPoolConfig& pool) {
    TuningService service([&] {
      ServiceConfig c = config;
      c.warm_pool = pool;
      return c;
    }());
    for (int i = 0; i < 5; ++i) {
      JobRequest job;
      job.name = "tenant-" + std::to_string(i);
      job.spec = MakeSha(/*num_trials=*/8, /*min_iters=*/2, /*max_iters=*/14,
                         /*reduction_factor=*/2);
      job.workload = ResNet101Cifar10();
      job.submit_at = 60.0 * i;
      job.deadline = Minutes(150);
      service.SubmitLive(job);
    }
    return service.Run();
  };

  const ServiceReport cold = replay(WarmPoolConfig{/*max_parked=*/0});
  const ServiceReport warm = replay(WarmPoolConfig{/*max_parked=*/16,
                                                   /*max_idle_seconds=*/300.0});

  std::printf("%-28s %12s %12s\n", "", "cold", "warm");
  std::printf("%-28s %12d %12d\n", "jobs completed", cold.completed, warm.completed);
  std::printf("%-28s %12d %12d\n", "deadline misses", cold.deadline_misses,
              warm.deadline_misses);
  std::printf("%-28s %12d %12d\n", "instance launches", cold.instance_launches,
              warm.instance_launches);
  std::printf("%-28s %11.0f%% %11.0f%%\n", "warm hit rate", 100.0 * cold.warm.HitRate(),
              100.0 * warm.warm.HitRate());
  std::printf("%-28s %12.0f %12.0f\n", "init seconds saved", cold.warm.init_seconds_saved,
              warm.warm.init_seconds_saved);
  std::printf("%-28s %12s %12s\n", "total bill", cold.total_cost.Total().ToString().c_str(),
              warm.total_cost.Total().ToString().c_str());
  std::printf("%-28s %12s %12s\n", "$/job",
              cold.cost_per_completed_job.ToString().c_str(),
              warm.cost_per_completed_job.ToString().c_str());

  const double saved =
      cold.total_cost.Total().dollars() - warm.total_cost.Total().dollars();
  std::printf("\nwarm reuse saved $%.2f (%.1f%%) on the same trace\n", saved,
              100.0 * saved / cold.total_cost.Total().dollars());
  return 0;
}

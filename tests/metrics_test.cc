// Metrics registry: typed handles, scopes, snapshot merging, JSON export,
// and the concurrency guarantees the parallel plan evaluator leans on.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.h"

namespace rubberband {
namespace {

TEST(Metrics, CounterAddsAndSupportsNegativeDeltas) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(5);
  EXPECT_EQ(counter.value(), 6);
  counter.Add(-2);  // warm pool revokes a hit
  EXPECT_EQ(counter.value(), 4);
}

TEST(Metrics, GaugeSetsAndAccumulates) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.Set(1.0);  // Set overwrites
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram histogram({10, 100, 1000});
  histogram.RecordNanos(10);    // on the bound -> first bucket
  histogram.RecordNanos(11);    // just past -> second bucket
  histogram.RecordNanos(1000);  // last finite bucket
  histogram.RecordNanos(5000);  // overflow
  const HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum_ns, 10 + 11 + 1000 + 5000);
}

TEST(Metrics, HistogramRecordSecondsRoundsToNanos) {
  Histogram histogram(DefaultLatencyBucketsNs());
  histogram.RecordSeconds(1.5);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.sum_ns, 1'500'000'000);
  EXPECT_DOUBLE_EQ(snap.MeanSeconds(), 1.5);
}

TEST(Metrics, DefaultBucketsCoverCheckpointToProvisioningScales) {
  const std::vector<int64_t>& bounds = DefaultLatencyBucketsNs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_LE(bounds.front(), 1'000'000);           // <= 1ms floor
  EXPECT_GE(bounds.back(), 3'600'000'000'000LL);  // >= 1h ceiling
}

TEST(Metrics, HistogramMergeIsExactBucketAddition) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  a.RecordNanos(5);
  a.RecordNanos(50);
  b.RecordNanos(50);
  b.RecordNanos(500);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 4);
  EXPECT_EQ(merged.sum_ns, 5 + 50 + 50 + 500);
  EXPECT_EQ(merged.counts[0], 1);
  EXPECT_EQ(merged.counts[1], 2);
  EXPECT_EQ(merged.counts[2], 1);
}

TEST(Metrics, HistogramMergeRejectsMismatchedBounds) {
  Histogram a({10, 100});
  Histogram b({10, 1000});
  HistogramSnapshot snap = a.Snapshot();
  EXPECT_THROW(snap.Merge(b.Snapshot()), std::invalid_argument);
}

TEST(Metrics, HistogramMergeIsOrderIndependent) {
  // Property test: integer-nanosecond recording makes merging exact, so any
  // merge order over any partition of the same observations produces the
  // same snapshot. 20 seeded rounds with random observations and partitions.
  std::mt19937_64 rng(0xB0B0'CAFE);
  for (int round = 0; round < 20; ++round) {
    std::uniform_int_distribution<int> num_obs(1, 200);
    std::uniform_int_distribution<int64_t> nanos(0, 8'000'000'000'000LL);
    std::uniform_int_distribution<int> num_parts(2, 5);
    const int observations = num_obs(rng);
    const int partitions = num_parts(rng);

    std::deque<Histogram> shards;  // deque: Histogram holds atomics, no moves
    for (int p = 0; p < partitions; ++p) {
      shards.emplace_back(DefaultLatencyBucketsNs());
    }
    Histogram reference(DefaultLatencyBucketsNs());
    std::uniform_int_distribution<int> pick(0, partitions - 1);
    for (int i = 0; i < observations; ++i) {
      const int64_t value = nanos(rng);
      reference.RecordNanos(value);
      shards[static_cast<size_t>(pick(rng))].RecordNanos(value);
    }

    // Merge the shards in a random order; result must equal the reference
    // histogram that saw every observation directly.
    std::vector<size_t> order(static_cast<size_t>(partitions));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::shuffle(order.begin(), order.end(), rng);
    HistogramSnapshot merged = shards[order[0]].Snapshot();
    for (size_t i = 1; i < order.size(); ++i) {
      merged.Merge(shards[order[i]].Snapshot());
    }
    EXPECT_EQ(merged, reference.Snapshot()) << "round " << round;
  }
}

TEST(Metrics, RegistryFindOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("executor.replans");
  EXPECT_EQ(registry.GetCounter("executor.replans"), counter);
  counter->Add(3);
  EXPECT_EQ(registry.Snapshot().counters.at("executor.replans"), 3);

  Gauge* gauge = registry.GetGauge("service.makespan_seconds");
  EXPECT_EQ(registry.GetGauge("service.makespan_seconds"), gauge);
  Histogram* histogram = registry.GetHistogram("cloud.latency", DefaultLatencyBucketsNs());
  EXPECT_EQ(registry.GetHistogram("cloud.latency", DefaultLatencyBucketsNs()), histogram);
}

TEST(Metrics, RegistryRejectsRedefiningHistogramBounds) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {10, 100});
  EXPECT_THROW(registry.GetHistogram("h", {10, 1000}), std::invalid_argument);
}

TEST(Metrics, DisabledRegistryHandsOutNullAndHelpersNoOp) {
  MetricsRegistry registry(/*enabled=*/false);
  MetricsScope scope = registry.scope("executor");
  EXPECT_FALSE(scope.live());
  EXPECT_EQ(scope.GetCounter("replans"), nullptr);
  EXPECT_EQ(scope.GetGauge("jct_seconds"), nullptr);
  EXPECT_EQ(scope.GetHistogram("sync_wait_seconds"), nullptr);
  // The obs:: helpers are the no-op path instrumented code actually runs.
  obs::Inc(scope.GetCounter("replans"));
  obs::Set(scope.GetGauge("jct_seconds"), 1.0);
  obs::Add(scope.GetGauge("jct_seconds"), 1.0);
  obs::ObserveSeconds(scope.GetHistogram("sync_wait_seconds"), 1.0);
  obs::ObserveNanos(scope.GetHistogram("sync_wait_seconds"), 1);
  EXPECT_TRUE(registry.Snapshot().empty());

  MetricsScope default_scope;  // no registry at all
  EXPECT_FALSE(default_scope.live());
  EXPECT_EQ(default_scope.GetCounter("x"), nullptr);
  EXPECT_EQ(default_scope.Sub("warm").GetCounter("x"), nullptr);
}

TEST(Metrics, ScopesPrefixNamesAndNest) {
  MetricsRegistry registry;
  MetricsScope cloud = registry.scope("cloud");
  EXPECT_TRUE(cloud.live());
  obs::Inc(cloud.GetCounter("instances_launched"));
  obs::Inc(cloud.Sub("warm").GetCounter("warm_hits"), 2);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("cloud.instances_launched"), 1);
  EXPECT_EQ(snap.counters.at("cloud.warm.warm_hits"), 2);
}

TEST(Metrics, SnapshotMergeAddsCountersGaugesAndHistograms) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("executor.crashes")->Add(2);
  b.GetCounter("executor.crashes")->Add(3);
  b.GetCounter("executor.replans")->Add(1);  // only in b
  a.GetGauge("executor.recovery_seconds")->Add(10.0);
  b.GetGauge("executor.recovery_seconds")->Add(5.0);
  a.GetHistogram("executor.stage_seconds", {1000})->RecordNanos(500);
  b.GetHistogram("executor.stage_seconds", {1000})->RecordNanos(2000);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("executor.crashes"), 5);
  EXPECT_EQ(merged.counters.at("executor.replans"), 1);
  EXPECT_DOUBLE_EQ(merged.gauges.at("executor.recovery_seconds"), 15.0);
  EXPECT_EQ(merged.histograms.at("executor.stage_seconds").count, 2);
  EXPECT_EQ(merged.histograms.at("executor.stage_seconds").sum_ns, 2500);
}

TEST(Metrics, SnapshotMergeIsOrderIndependentForCountersAndHistograms) {
  // The service merges per-job executor snapshots in completion order,
  // which faults can permute — fleet totals must not depend on it.
  std::mt19937_64 rng(0x5EED'0001);
  std::uniform_int_distribution<int64_t> delta(0, 1000);
  std::vector<MetricsSnapshot> parts;
  for (int j = 0; j < 6; ++j) {
    MetricsRegistry registry;
    registry.GetCounter("executor.crashes")->Add(delta(rng));
    Histogram* h = registry.GetHistogram("executor.stage_seconds", DefaultLatencyBucketsNs());
    for (int i = 0; i < 50; ++i) {
      h->RecordNanos(delta(rng) * 1'000'000);
    }
    parts.push_back(registry.Snapshot());
  }
  MetricsSnapshot forward;
  for (const MetricsSnapshot& part : parts) {
    forward.Merge(part);
  }
  MetricsSnapshot backward;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    backward.Merge(*it);
  }
  EXPECT_EQ(forward.counters, backward.counters);
  EXPECT_EQ(forward.histograms, backward.histograms);
}

TEST(Metrics, ToJsonIsDeterministicAndParses) {
  MetricsRegistry registry;
  registry.GetCounter("b.second")->Add(2);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("z.gauge")->Set(0.125);
  registry.GetHistogram("m.hist", {10, 100})->RecordNanos(42);
  const std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.Snapshot().ToJson());  // byte-stable

  const JsonValue doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("a.first").number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("b.second").number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("z.gauge").number(), 0.125);
  const JsonValue& hist = doc.at("histograms").at("m.hist");
  EXPECT_EQ(hist.at("bounds_ns").size(), 2u);
  EXPECT_EQ(hist.at("counts").size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum_ns").number(), 42.0);
}

TEST(MetricsRegistryConcurrency, ParallelRecordersLoseNoIncrements) {
  // The parallel plan evaluator bumps shared counters from worker threads;
  // handles must be safe without external locking.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("planner.stage_evaluations");
  Gauge* gauge = registry.GetGauge("planner.seconds");
  Histogram* histogram = registry.GetHistogram("planner.latency", DefaultLatencyBucketsNs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add();
        gauge->Add(1.0);
        histogram->RecordNanos(1'000'000);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(gauge->value(), kThreads * kPerThread);
  const HistogramSnapshot snap = histogram->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum_ns, static_cast<int64_t>(kThreads) * kPerThread * 1'000'000);
}

TEST(MetricsRegistryConcurrency, FindOrCreateRacesResolveToOneHandle) {
  // Threads race to resolve the same names; everyone must get the same
  // stable pointer and no increment may be lost to a duplicate metric.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> resolved(kThreads, nullptr);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &resolved, t] {
      for (int i = 0; i < 200; ++i) {
        Counter* counter = registry.GetCounter("raced.counter." + std::to_string(i % 10));
        counter->Add();
      }
      resolved[static_cast<size_t>(t)] = registry.GetCounter("raced.counter.0");
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(resolved[static_cast<size_t>(t)], resolved[0]);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  int64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    (void)name;
    total += value;
  }
  EXPECT_EQ(total, kThreads * 200);
}

TEST(Json, ParsesScalarsArraysAndNestedObjects) {
  EXPECT_TRUE(JsonValue::Parse("null").is_null());
  EXPECT_TRUE(JsonValue::Parse("true").bool_value());
  EXPECT_FALSE(JsonValue::Parse("false").bool_value());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2").number(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("\"a\\\"b\\n\"").string(), "a\"b\n");
  const JsonValue doc = JsonValue::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(2).at("b").string(), "c");
  EXPECT_TRUE(doc.at("d").is_object());
  EXPECT_EQ(doc.at("d").size(), 0u);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::Parse(""), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("{\"a\": 1} trailing"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("'single'"), std::invalid_argument);
  // Nesting is bounded at 64, so a run of '[' (a million here, well under
  // the wire's frame cap) is a parse error at the 65th, not a stack overflow.
  try {
    JsonValue::Parse(std::string(1'000'000, '['));
    ADD_FAILURE() << "a million '[' parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("at byte 64:"), std::string::npos) << error.what();
  }
  EXPECT_EQ(JsonValue::Parse(std::string(64, '[') + std::string(64, ']')).size(), 1u);
}

TEST(Json, EqualityIgnoresMemberOrderButNotValues) {
  const JsonValue a = JsonValue::Parse(R"({"x": 1, "y": [true, "s"]})");
  const JsonValue b = JsonValue::Parse(R"({"y": [true, "s"], "x": 1})");
  const JsonValue c = JsonValue::Parse(R"({"x": 2, "y": [true, "s"]})");
  const JsonValue d = JsonValue::Parse(R"({"y": ["s", true], "x": 1})");  // array order matters
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  const std::string escaped = JsonEscape(std::string(1, '\x01'));
  EXPECT_EQ(escaped, "\\u0001");
}

}  // namespace
}  // namespace rubberband

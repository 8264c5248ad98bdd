// Tests for the experiment engine: thread pool, metrics registry, JSON
// emitter, and the SweepRunner's core guarantee — results byte-identical at
// any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/trace_generator.h"
#include "exp/json.h"
#include "exp/metrics.h"
#include "exp/sweep.h"
#include "exp/thread_pool.h"
#include "rate/rapid_sample.h"
#include "rate/trace_runner.h"
#include "util/rng.h"

namespace sh::exp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

// Waits until `arrived` reaches `target`, for at most ten seconds, so that a
// pool that runs fewer threads than it should fails its test instead of
// hanging it.
void wait_for_arrivals(const std::atomic<int>& arrived, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  pool.parallel_for(3, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  // shlint:shard-safe — atomic counter, order-independent.
  pool.parallel_for(3, [&](std::size_t i) { sum += static_cast<int>(i) + 1; });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<int> count{0};
    // shlint:shard-safe — atomic counter, order-independent.
    pool.parallel_for(17, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 17);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndBatchStillDrains) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ++hits[i];
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Remaining tasks were not abandoned mid-batch.
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  // The pool survives for the next batch.
  std::atomic<int> count{0};
  // shlint:shard-safe — atomic counter, order-independent.
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);

  // One throw from the caller's own task and one from a worker's, in the
  // same batch: the two tasks wait for each other, so they run on the two
  // threads of a pool of 2.
  ThreadPool pair(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> arrived{0};
    std::vector<std::thread::id> ran_on(2);
    std::vector<int> drained(16, 0);
    try {
      pair.parallel_for(drained.size(), [&](std::size_t i) {
        drained[i] = 1;
        if (i >= 2) return;
        ran_on[i] = std::this_thread::get_id();
        // shlint:shard-safe — atomic rendezvous counter.
        ++arrived;
        wait_for_arrivals(arrived, 2);
        throw std::runtime_error(i == 0 ? "first" : "second");
      });
      ADD_FAILURE() << "the batch did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(std::string(e.what()) == "first" ||
                  std::string(e.what()) == "second");
    }
    ASSERT_EQ(arrived.load(), 2);
    EXPECT_NE(ran_on[0], ran_on[1]);
    EXPECT_TRUE(ran_on[0] == std::this_thread::get_id() ||
                ran_on[1] == std::this_thread::get_id());
    for (std::size_t i = 0; i < drained.size(); ++i) EXPECT_EQ(drained[i], 1);
    std::atomic<int> next{0};
    // shlint:shard-safe — atomic counter, order-independent.
    pair.parallel_for(5, [&](std::size_t) { ++next; });
    ASSERT_EQ(next.load(), 5);
  }
}

TEST(ThreadPoolTest, RunsOnExactlyThreadCountThreads) {
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    const auto n = static_cast<std::size_t>(threads);
    std::atomic<int> arrived{0};
    std::vector<std::thread::id> ran_on(n);
    // Every task waits for all n to arrive, so each holds its own thread.
    pool.parallel_for(n, [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
      // shlint:shard-safe — atomic rendezvous counter.
      ++arrived;
      wait_for_arrivals(arrived, threads);
    });
    ASSERT_EQ(arrived.load(), threads) << "pool of " << threads;
    const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
    EXPECT_EQ(distinct.size(), n) << "pool of " << threads;
    EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1U)
        << "the caller ran no task of a pool of " << threads;
  }
}

TEST(ThreadPoolTest, BackToBackTinyBatchesNeverCrossEpochs) {
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::atomic<int> current{-1};
    std::atomic<int> crossed{0};
    for (int batch = 0; batch < 20000; ++batch) {
      const std::size_t n = 1 + static_cast<std::size_t>(batch % 3);
      std::vector<int> hits(n, 0);
      current.store(batch);
      pool.parallel_for(n, [&hits, &current, &crossed, batch](std::size_t i) {
        // shlint:shard-safe — `crossed` is atomic and only ever counts.
        if (current.load() != batch || i >= hits.size()) ++crossed;
        ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "pool of " << threads << ", batch " << batch;
      }
    }
    EXPECT_EQ(crossed.load(), 0) << "pool of " << threads;
  }
}

TEST(ThreadPoolTest, ConstructAndDestroyWhileWorkersSpinOrSleep) {
  for (int round = 0; round < 300; ++round) {
    ThreadPool pool(2 + round % 7);
    if (round % 3 == 0) continue;  // destroyed before any batch
    std::atomic<int> count{0};
    // shlint:shard-safe — atomic counter, order-independent.
    pool.parallel_for(9, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 9);
    // Mostly destroyed while the workers still spin; now and then only
    // after they have gone to sleep.
    if (round % 50 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  // shlint:shard-safe — the body must never run; the write is the probe.
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricSampleTest, SetOverwritesInPlaceAndKeepsOrder) {
  MetricSample s;
  s.set("a", 1.0);
  s.set("b", 2.0);
  s.set("a", 3.0);
  ASSERT_EQ(s.entries().size(), 2U);
  EXPECT_EQ(s.entries()[0].first, "a");
  EXPECT_DOUBLE_EQ(s.entries()[0].second, 3.0);
  ASSERT_NE(s.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(*s.find("b"), 2.0);
  EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(MetricRegistryTest, AggregatesKnownSequence) {
  MetricRegistry reg;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    reg.add("m", x);
  const auto s = reg.summary("m");
  EXPECT_EQ(s.count, 8U);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev * s.stddev, 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / std::sqrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(MetricRegistryTest, MissingMetricIsEmptySummary) {
  MetricRegistry reg;
  EXPECT_EQ(reg.summary("nope").count, 0U);
  EXPECT_EQ(reg.stats("nope"), nullptr);
}

TEST(MetricRegistryTest, SummariesPreserveFirstSeenOrder) {
  MetricRegistry reg;
  MetricSample s1;
  s1.set("z", 1.0);
  s1.set("a", 2.0);
  reg.add(s1);
  reg.add("z", 3.0);
  const auto all = reg.summaries();
  ASSERT_EQ(all.size(), 2U);
  EXPECT_EQ(all[0].first, "z");
  EXPECT_EQ(all[1].first, "a");
  EXPECT_EQ(all[0].second.count, 2U);
}

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, NumbersUseShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonTest, WriterEmitsNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("name", "x");
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{1});
  w.value(true);
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n  \"name\": \"x\",\n  \"list\": [\n    1,\n    true\n  ],\n"
            "  \"empty\": {}\n}");
}

// ---------------------------------------------------------------------------
// SweepRunner

MetricSample mini_fn(const SweepPoint&, const RunContext& ctx) {
  MetricSample s;
  if (ctx.point_index == 0) {
    s.set("x", ctx.repetition == 0 ? 1.0 : 3.0);
  } else {
    s.set("x", 5.0);
    s.set("y", 0.5);
  }
  return s;
}

std::vector<SweepPoint> mini_points() {
  SweepPoint a;
  a.label = "A";
  a.params = {{"k", "v"}};
  a.repetitions = 2;
  SweepPoint b;
  b.label = "B";
  b.repetitions = 1;
  return {a, b};
}

// Locks the sh.sweep.v1 schema byte for byte. If this fails because the
// schema was changed ON PURPOSE, bump the schema string and update DESIGN.md
// alongside this literal.
TEST(SweepRunnerTest, JsonSchemaGolden) {
  SweepRunner runner({"mini", 7, 1});
  const auto result = runner.run(mini_points(), mini_fn);
  EXPECT_EQ(result.to_json(),
            R"({
  "schema": "sh.sweep.v1",
  "name": "mini",
  "base_seed": 7,
  "total_runs": 3,
  "points": [
    {
      "label": "A",
      "params": {
        "k": "v"
      },
      "repetitions": 2,
      "metrics": {
        "x": {
          "count": 2,
          "mean": 2,
          "stddev": 1.4142135623730951,
          "ci95": 1.9599999999999997,
          "min": 1,
          "max": 3
        }
      }
    },
    {
      "label": "B",
      "params": {},
      "repetitions": 1,
      "metrics": {
        "x": {
          "count": 1,
          "mean": 5,
          "stddev": 0,
          "ci95": 0,
          "min": 5,
          "max": 5
        },
        "y": {
          "count": 1,
          "mean": 0.5,
          "stddev": 0,
          "ci95": 0,
          "min": 0.5,
          "max": 0.5
        }
      }
    }
  ]
}
)");
}

TEST(SweepRunnerTest, SummaryAccessors) {
  SweepRunner runner({"mini", 7, 2});
  const auto result = runner.run(mini_points(), mini_fn);
  EXPECT_EQ(result.total_runs, 3U);
  EXPECT_DOUBLE_EQ(result.summary("A", "x").mean, 2.0);
  EXPECT_DOUBLE_EQ(result.summary("B", "y").mean, 0.5);
  EXPECT_EQ(result.summary("missing", "x").count, 0U);
  EXPECT_EQ(result.find("nope"), nullptr);
}

TEST(SweepRunnerTest, SeedsAreUniquePerRunAndScheduleIndependent) {
  std::vector<SweepPoint> points(5);
  for (int i = 0; i < 5; ++i) {
    points[static_cast<std::size_t>(i)].label = std::to_string(i);
    points[static_cast<std::size_t>(i)].repetitions = 7;
  }
  auto collect = [&](int threads) {
    std::vector<std::uint64_t> seeds(35);
    SweepRunner runner({"seeds", 99, threads});
    runner.run(points, [&](const SweepPoint&, const RunContext& ctx) {
      seeds[ctx.run_index] = ctx.seed;
      MetricSample s;
      s.set("unused", 0.0);
      return s;
    });
    return seeds;
  };
  const auto serial = collect(1);
  EXPECT_EQ(std::set<std::uint64_t>(serial.begin(), serial.end()).size(), 35U);
  EXPECT_EQ(serial, collect(4));
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], util::Rng::derive_seed(99, i));
}

/// A sweep whose repetitions do real seeded work (RNG streams of very
/// different lengths, so threads genuinely interleave) must serialize
/// byte-identically at 1, 2, and 8 threads.
TEST(SweepRunnerTest, JsonByteIdenticalAcrossThreadCounts) {
  std::vector<SweepPoint> points(16);
  for (int i = 0; i < 16; ++i) {
    auto& label = points[static_cast<std::size_t>(i)].label;
    label = "p";
    label += std::to_string(i);
    points[static_cast<std::size_t>(i)].params = {
        {"index", std::to_string(i)}};
    points[static_cast<std::size_t>(i)].repetitions = 3;
  }
  const RunFn fn = [](const SweepPoint& point, const RunContext& ctx) {
    util::Rng rng(ctx.seed);
    // Uneven workloads: point k draws ~k times more randomness.
    const int draws = 500 * (static_cast<int>(ctx.point_index) + 1);
    double sum = 0.0;
    for (int d = 0; d < draws; ++d) sum += rng.normal();
    MetricSample s;
    s.set("sum", sum);
    s.set("label_len", static_cast<double>(point.label.size()));
    return s;
  };
  auto json_at = [&](int threads) {
    SweepRunner runner({"threads", 424242, threads});
    return runner.run(points, fn).to_json();
  };
  const auto one = json_at(1);
  EXPECT_EQ(one, json_at(2));
  EXPECT_EQ(one, json_at(8));
}

/// End-to-end determinism over the real trace generator + rate adapter
/// stack: the exact pipeline the benches and shsweep run.
TEST(SweepRunnerTest, TraceDrivenSweepDeterministicAcrossThreads) {
  std::vector<SweepPoint> points;
  for (const bool mobile : {false, true}) {
    SweepPoint p;
    p.label = mobile ? "mobile" : "static";
    p.repetitions = 2;
    points.push_back(p);
  }
  const RunFn fn = [](const SweepPoint& point, const RunContext& ctx) {
    channel::TraceGeneratorConfig cfg;
    cfg.env = channel::Environment::kOffice;
    cfg.scenario = point.label == "mobile"
                       ? sim::MobilityScenario::all_walking(2 * kSecond)
                       : sim::MobilityScenario::all_static(2 * kSecond);
    cfg.seed = ctx.seed;
    const auto trace = channel::generate_trace(cfg);
    rate::RapidSample rapid;
    const auto run = rate::run_trace(rapid, trace, {});
    MetricSample s;
    s.set("throughput_mbps", run.throughput_mbps);
    s.set("delivery_ratio", run.delivery_ratio);
    return s;
  };
  auto json_at = [&](int threads) {
    SweepRunner runner({"traces", 5, threads});
    return runner.run(points, fn).to_json();
  };
  const auto one = json_at(1);
  EXPECT_EQ(one, json_at(2));
  EXPECT_EQ(one, json_at(8));
}

TEST(SweepRunnerTest, NonPositiveRepetitionsClampToOne) {
  SweepPoint p;
  p.label = "only";
  p.repetitions = 0;
  SweepRunner runner({"clamp", 1, 1});
  const auto result = runner.run({p}, [](const SweepPoint&, const RunContext&) {
    MetricSample s;
    s.set("x", 1.0);
    return s;
  });
  EXPECT_EQ(result.total_runs, 1U);
  EXPECT_EQ(result.points.front().point.repetitions, 1);
}

}  // namespace
}  // namespace sh::exp

// Tests for the trace cache: key identity, hit/miss/eviction
// accounting, in-flight deduplication, and — the property everything else
// exists to protect — byte-identical sweep output with the cache on or off
// at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/trace_cache.h"
#include "channel/trace_generator.h"
#include "exp/sweep.h"
#include "sim/mobility.h"

namespace sh::channel {
namespace {

TraceGeneratorConfig small_config(std::uint64_t seed = 7) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(2 * kSecond);
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// Key

TEST(TraceConfigKeyTest, EqualConfigsShareKey) {
  EXPECT_EQ(trace_config_key(small_config()), trace_config_key(small_config()));
}

TEST(TraceConfigKeyTest, EveryFieldIsDiscriminated) {
  const std::string base = trace_config_key(small_config());
  std::vector<TraceGeneratorConfig> variants;
  {
    auto c = small_config();
    c.env = Environment::kHallway;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.seed = 8;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.slot_duration = 10 * kMillisecond;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.payload_bytes = 256;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.snr_offset_db = 1.0;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.snr_noise_db = 0.0;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.shadow_sigma_scale = 2.0;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.shadow_clock.walking_hz = 9.9;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.geometry.lateral_offset_m = 3.0;
    variants.push_back(c);
  }
  {
    auto c = small_config();
    c.scenario = sim::MobilityScenario::all_walking(2 * kSecond);
    variants.push_back(c);
  }
  for (const auto& v : variants) {
    EXPECT_NE(trace_config_key(v), base);
  }
}

// ---------------------------------------------------------------------------
// Cache behaviour

TEST(TraceCacheTest, HitReturnsSameTraceObject) {
  TraceCache cache(4);
  const auto a = cache.get_or_generate(small_config());
  const auto b = cache.get_or_generate(small_config());
  EXPECT_EQ(a.get(), b.get());  // Shared, not regenerated.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.evictions, 0U);
}

TEST(TraceCacheTest, CachedEqualsFresh) {
  TraceCache cache(4);
  const auto cached = cache.get_or_generate(small_config());
  const auto fresh = generate_trace(small_config());
  ASSERT_EQ(cached->size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(cached->slot(i).fate_mask, fresh.slot(i).fate_mask);
    EXPECT_EQ(cached->slot(i).snr_db, fresh.slot(i).snr_db);
    EXPECT_EQ(cached->slot(i).moving, fresh.slot(i).moving);
  }
}

TEST(TraceCacheTest, FifoEvictionOldestFirst) {
  TraceCache cache(2);
  cache.get_or_generate(small_config(1));
  cache.get_or_generate(small_config(2));
  cache.get_or_generate(small_config(3));  // Evicts seed 1.
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.stats().evictions, 1U);
  cache.get_or_generate(small_config(1));  // Miss again: it was evicted.
  EXPECT_EQ(cache.stats().misses, 4U);
}

TEST(TraceCacheTest, CapacityZeroBypassesEntirely) {
  TraceCache cache(0);
  const auto a = cache.get_or_generate(small_config());
  const auto b = cache.get_or_generate(small_config());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 0U);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0U);
}

TEST(TraceCacheTest, ShrinkingCapacityEvictsImmediately) {
  TraceCache cache(4);
  cache.get_or_generate(small_config(1));
  cache.get_or_generate(small_config(2));
  cache.get_or_generate(small_config(3));
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.stats().evictions, 2U);
}

TEST(TraceCacheTest, InvalidConfigPropagatesAndLeavesNoEntry) {
  TraceCache cache(4);
  auto bad = small_config();
  bad.slot_duration = 0;
  EXPECT_THROW(cache.get_or_generate(bad), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0U);
  // A later valid call for a fixed config must not see a poisoned entry.
  bad.slot_duration = 5 * kMillisecond;
  EXPECT_NO_THROW(cache.get_or_generate(bad));
}

TEST(TraceCacheTest, ConcurrentMissesGenerateOnce) {
  TraceCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PacketFateTrace>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&cache, &results, i] { results[i] = cache.get_or_generate(small_config()); });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// The determinism contract: sweep JSON is byte-identical with the cache on
// or off, at 1, 2, and 8 threads; and a parameter-only sweep actually hits.

std::string run_param_sweep(int threads, TraceCache* cache) {
  // Four points varying only a protocol parameter — they share one channel
  // config, which is exactly the workload the cache exists for. Repetitions
  // vary the seed, so reps never collapse into one trace.
  std::vector<exp::SweepPoint> points;
  for (const int age_ms : {50, 100, 200, 400}) {
    exp::SweepPoint p;
    p.label = "age_" + std::to_string(age_ms);
    p.params = {{"hint_max_age_ms", std::to_string(age_ms)}};
    p.repetitions = 2;
    points.push_back(p);
  }
  exp::SweepConfig config;
  config.name = "cache_equivalence";
  config.base_seed = 99;
  config.threads = threads;
  exp::SweepRunner runner(config);
  const auto result = runner.run(points, [cache](const exp::SweepPoint& point,
                                                 const exp::RunContext& ctx) {
    auto trace_config = small_config();
    // Parameter-only sweep: the trace depends on the repetition, never on
    // the point, so all four points share a config per repetition.
    trace_config.seed = util::Rng::derive_seed(99, ctx.repetition);
    double ratio = 0.0;
    if (cache != nullptr) {
      ratio = cache->get_or_generate(trace_config)->delivery_ratio(3);
    } else {
      ratio = generate_trace(trace_config).delivery_ratio(3);
    }
    const double age = std::stod(point.params[0].second);
    exp::MetricSample sample;
    sample.set("delivery_ratio", ratio);
    sample.set("age_penalty", ratio / (1.0 + age / 1000.0));
    return sample;
  });
  return result.to_json();
}

TEST(TraceCacheSweepTest, JsonByteIdenticalCacheOnOffAcrossThreadCounts) {
  const std::string reference = run_param_sweep(1, nullptr);
  for (const int threads : {1, 2, 8}) {
    TraceCache cache(8);
    EXPECT_EQ(run_param_sweep(threads, nullptr), reference)
        << "cache off, threads=" << threads;
    EXPECT_EQ(run_param_sweep(threads, &cache), reference)
        << "cache on, threads=" << threads;
  }
}

TEST(TraceCacheSweepTest, ParameterOnlySweepHitsAfterFirstGeneration) {
  TraceCache cache(8);
  run_param_sweep(2, &cache);
  const auto stats = cache.stats();
  // 4 points x 2 reps = 8 requests over 2 distinct configs (one per rep).
  EXPECT_EQ(stats.misses, 2U);
  EXPECT_EQ(stats.hits, 6U);
  const double hit_rate = static_cast<double>(stats.hits) /
                          static_cast<double>(stats.hits + stats.misses);
  EXPECT_GE(hit_rate, 0.74);
}

}  // namespace
}  // namespace sh::channel

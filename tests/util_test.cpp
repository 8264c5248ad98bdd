// Unit and property tests for the util library: RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace sh::util {
namespace {

// ---------------------------------------------------------------------------
// Time helpers

TEST(TimeTest, UnitConstantsRelate) {
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(TimeTest, ConstructorsAndConversionsRoundTrip) {
  EXPECT_EQ(milliseconds(5), 5000);
  EXPECT_EQ(seconds(2.5), 2'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 32; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 30U);  // splitmix seeding avoids all-zero state
}

TEST(RngTest, FirstUniformEqualsAFreshGeneratorsFirstDraw) {
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t seed = Rng::derive_seed(5, i);
    Rng rng(seed);
    EXPECT_EQ(Rng::first_uniform(seed), rng.uniform()) << "seed " << seed;
  }
  for (const std::uint64_t seed : {0ULL, 1ULL, ~0ULL}) {
    Rng rng(seed);
    EXPECT_EQ(Rng::first_uniform(seed), rng.uniform()) << "seed " << seed;
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, UniformIntUnbiasedAcrossBuckets) {
  Rng rng(23);
  std::array<int, 7> counts{};
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 6))];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 7, kDraws / 7 * 0.08);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(37);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateProbabilities) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesDecorrelatedStream) {
  Rng parent(43);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(47);
  const auto first = rng();
  rng.reseed(47);
  EXPECT_EQ(rng(), first);
}

// reseed() must restore the full output stream — raw words AND the derived
// distributions (the cached-normal pair must be dropped, or the first
// normal() after reseed would replay stale state).
TEST(RngTest, ReseedRoundTripsWholeStream) {
  Rng rng(101);
  std::vector<std::uint64_t> raw;
  std::vector<double> normals;
  for (int i = 0; i < 16; ++i) raw.push_back(rng());
  normals.push_back(rng.normal());  // leaves a cached second normal behind
  rng.reseed(101);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), raw[static_cast<std::size_t>(i)]);
  EXPECT_DOUBLE_EQ(rng.normal(), normals[0]);
}

// fork() streams must be statistically independent of the parent, not just
// unequal: bound the empirical cross-correlation of paired uniforms.
TEST(RngTest, ForkCrossCorrelationBounded) {
  Rng parent(43);
  Rng child = parent.fork();
  constexpr int kDraws = 20000;
  RunningStats px, cx;
  std::vector<double> ps, cs;
  ps.reserve(kDraws);
  cs.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    ps.push_back(parent.uniform());
    cs.push_back(child.uniform());
    px.add(ps.back());
    cx.add(cs.back());
  }
  double cov = 0.0;
  for (int i = 0; i < kDraws; ++i)
    cov += (ps[static_cast<std::size_t>(i)] - px.mean()) *
           (cs[static_cast<std::size_t>(i)] - cx.mean());
  cov /= kDraws - 1;
  const double corr = cov / (px.stddev() * cx.stddev());
  // Independent streams: |r| ~ N(0, 1/sqrt(n)) ≈ 0.007; 0.03 is > 4 sigma.
  EXPECT_LT(std::fabs(corr), 0.03);
}

TEST(RngTest, UniformIntFullRangeDoesNotDegenerate) {
  // lo..hi spanning all of int64: the range computation wraps to 0 and must
  // take the full-span path rather than dividing by zero.
  Rng rng(71);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 256; ++i) {
    const auto v = rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max());
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(RngTest, UniformIntBoundaryEndpointsReachable) {
  Rng rng(73);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform_int(-1, 0));
  EXPECT_TRUE(seen.count(-1));
  EXPECT_TRUE(seen.count(0));
}

// ---------------------------------------------------------------------------
// Rng::derive_seed (the sweep engine's seed-derivation scheme)

TEST(DeriveSeedTest, PureAndPinned) {
  // Pinned values: the sweep engine's JSON results are only reproducible
  // across builds if the derivation never changes. Update deliberately.
  EXPECT_EQ(Rng::derive_seed(1, 0), 5852151897073586310ULL);
  EXPECT_EQ(Rng::derive_seed(1, 1), 14246792736446105821ULL);
  EXPECT_EQ(Rng::derive_seed(42, 7), 11274275439662196956ULL);
  EXPECT_EQ(Rng::derive_seed(42, 7), Rng::derive_seed(42, 7));
}

TEST(DeriveSeedTest, AdjacentStreamsDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) seeds.insert(Rng::derive_seed(1, i));
  EXPECT_EQ(seeds.size(), 4096U);
}

TEST(DeriveSeedTest, DerivedStreamsDecorrelated) {
  Rng a(Rng::derive_seed(9, 0));
  Rng b(Rng::derive_seed(9, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// RunningStats

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0U);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance of the classic sequence: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sum(), 40.0, 1e-9);
}

TEST(RunningStatsTest, Ci95ShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  Rng rng(53);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(RunningStatsTest, ClearResets) {
  RunningStats stats;
  stats.add(1.0);
  stats.clear();
  EXPECT_TRUE(stats.empty());
}

// ---------------------------------------------------------------------------
// Percentile

TEST(PercentileTest, MedianOddCount) {
  Percentile p;
  for (const double x : {3.0, 1.0, 2.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
}

TEST(PercentileTest, MedianEvenCountInterpolates) {
  Percentile p;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 2.5);
}

TEST(PercentileTest, ExtremesAndClamping) {
  Percentile p;
  for (const double x : {10.0, 20.0, 30.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(p.quantile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.5), 30.0);
}

TEST(PercentileTest, AddAfterQueryResorts) {
  Percentile p;
  p.add(1.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
  p.add(100.0);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(PercentileTest, ExplicitSortMatchesLazyQuery) {
  Percentile lazy;
  Percentile eager;
  Rng rng(71);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    lazy.add(x);
    eager.add(x);
  }
  eager.sort();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(lazy.quantile(q), eager.quantile(q));
  }
}

// Regression for a data race: quantile() used to sort `samples_` in place
// behind `mutable`, so two concurrent const readers raced on the buffer.
// Run under TSan (the `unit` label is in the TSan CI job) this test fails
// on the old implementation and is quiet on the const-pure one.
TEST(PercentileTest, ConcurrentConstQuantileIsRaceFree) {
  Percentile p;
  Rng rng(73);
  for (int i = 0; i < 512; ++i) p.add(rng.uniform(0.0, 1.0));
  const Percentile& shared = p;  // Readers get only const access.

  std::vector<double> medians(4, 0.0);
  std::vector<std::thread> readers;
  readers.reserve(medians.size());
  for (std::size_t t = 0; t < medians.size(); ++t) {
    readers.emplace_back([&shared, &medians, t] {
      double last = 0.0;
      for (int i = 0; i < 50; ++i) last = shared.quantile(0.5);
      medians[t] = last;
    });
  }
  for (auto& r : readers) r.join();
  for (const double m : medians) EXPECT_DOUBLE_EQ(m, medians[0]);
}

// Property: quantile is monotone in q.
TEST(PercentileTest, QuantileMonotoneInQ) {
  Percentile p;
  Rng rng(59);
  for (int i = 0; i < 200; ++i) p.add(rng.uniform(0.0, 100.0));
  double prev = p.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = p.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

// ---------------------------------------------------------------------------
// Ewma

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.1);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(EwmaTest, ConvergesTowardsConstant) {
  Ewma e(0.5);
  e.add(0.0);
  for (int i = 0; i < 30; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(EwmaTest, AlphaOneTracksExactly) {
  Ewma e(1.0);
  e.add(1.0);
  e.add(99.0);
  EXPECT_DOUBLE_EQ(e.value(), 99.0);
}

// ---------------------------------------------------------------------------
// SlidingWindowRate

TEST(SlidingWindowRateTest, EmptyRateIsZero) {
  SlidingWindowRate w(4);
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
  EXPECT_FALSE(w.full());
}

TEST(SlidingWindowRateTest, PartialWindowRate) {
  SlidingWindowRate w(4);
  w.add(true);
  w.add(false);
  EXPECT_DOUBLE_EQ(w.rate(), 0.5);
  EXPECT_EQ(w.size(), 2U);
}

TEST(SlidingWindowRateTest, EvictionKeepsCountConsistent) {
  SlidingWindowRate w(3);
  w.add(true);
  w.add(true);
  w.add(true);
  EXPECT_DOUBLE_EQ(w.rate(), 1.0);
  w.add(false);  // evicts a success
  EXPECT_NEAR(w.rate(), 2.0 / 3.0, 1e-12);
  w.add(false);
  w.add(false);
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
}

// Property: rate always equals the brute-force recount.
TEST(SlidingWindowRateTest, MatchesBruteForceRecount) {
  SlidingWindowRate w(10);
  Rng rng(61);
  std::vector<bool> all;
  for (int i = 0; i < 500; ++i) {
    const bool v = rng.bernoulli(0.37);
    all.push_back(v);
    w.add(v);
    const std::size_t start = all.size() > 10 ? all.size() - 10 : 0;
    std::size_t hits = 0;
    for (std::size_t j = start; j < all.size(); ++j)
      if (all[j]) ++hits;
    const double expected =
        static_cast<double>(hits) / static_cast<double>(all.size() - start);
    ASSERT_NEAR(w.rate(), expected, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.count(4), 1U);
  EXPECT_EQ(h.total(), 2U);
}

// Regression: add() used to cast (x - lo) / width to int64 *before*
// clamping — UB for NaN and for quotients outside int64 range.
TEST(HistogramTest, NanIsDroppedAndCounted) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.dropped(), 2U);
  EXPECT_EQ(h.total(), 1U);
  std::uint64_t binned = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) binned += h.count(b);
  EXPECT_EQ(binned, 1U);
}

TEST(HistogramTest, InfinitiesClampToEdgeBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(4), 1U);
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.total(), 2U);
  EXPECT_EQ(h.dropped(), 0U);
}

TEST(HistogramTest, QuotientBeyondInt64RangeClampsToEdgeBins) {
  // Narrow bins make (x - lo) / width overflow int64 long before x does.
  Histogram h(0.0, 1e-6, 4);
  h.add(1e300);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::max());
  h.add(std::numeric_limits<double>::lowest());
  EXPECT_EQ(h.count(3), 2U);
  EXPECT_EQ(h.count(0), 2U);
  EXPECT_EQ(h.total(), 4U);
}

TEST(HistogramTest, ClearResetsDroppedCount) {
  Histogram h(0.0, 1.0, 2);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(0.5);
  h.clear();
  EXPECT_EQ(h.dropped(), 0U);
  EXPECT_EQ(h.total(), 0U);
  EXPECT_EQ(h.count(0), 0U);
}

TEST(HistogramTest, FractionSumsToOne) {
  Histogram h(0.0, 1.0, 10);
  Rng rng(67);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.fraction(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Table

TEST(TableTest, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
  EXPECT_EQ(t.rows(), 1U);
}

TEST(TableTest, CsvQuotesSpecialCharacters) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pm(1.5, 0.25, 1), "1.5 +/- 0.2");  // printf rounds half-even
}

}  // namespace
}  // namespace sh::util

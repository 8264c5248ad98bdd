// Tests for the 802.11a rate table and airtime math.
#include <cstdint>

#include <gtest/gtest.h>

#include "mac/airtime.h"
#include "mac/rates.h"

namespace sh::mac {
namespace {

TEST(RateTableTest, EightRatesInIncreasingOrder) {
  const auto& table = rate_table();
  ASSERT_EQ(table.size(), 8U);
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_GT(table[i].mbps, table[i - 1].mbps);
    EXPECT_GT(table[i].bits_per_symbol, table[i - 1].bits_per_symbol);
    EXPECT_GT(table[i].min_snr_db, table[i - 1].min_snr_db);
  }
}

TEST(RateTableTest, StandardRateValues) {
  EXPECT_DOUBLE_EQ(rate(0).mbps, 6.0);
  EXPECT_DOUBLE_EQ(rate(1).mbps, 9.0);
  EXPECT_DOUBLE_EQ(rate(2).mbps, 12.0);
  EXPECT_DOUBLE_EQ(rate(3).mbps, 18.0);
  EXPECT_DOUBLE_EQ(rate(4).mbps, 24.0);
  EXPECT_DOUBLE_EQ(rate(5).mbps, 36.0);
  EXPECT_DOUBLE_EQ(rate(6).mbps, 48.0);
  EXPECT_DOUBLE_EQ(rate(7).mbps, 54.0);
}

TEST(RateTableTest, BitsPerSymbolConsistentWithMbps) {
  // 4 us symbols: mbps = bits_per_symbol / 4.
  for (RateIndex r = slowest_rate(); r <= fastest_rate(); ++r) {
    EXPECT_DOUBLE_EQ(rate(r).mbps, rate(r).bits_per_symbol / 4.0);
  }
}

TEST(RateTableTest, ValidityHelpers) {
  EXPECT_TRUE(valid_rate(0));
  EXPECT_TRUE(valid_rate(7));
  EXPECT_FALSE(valid_rate(-1));
  EXPECT_FALSE(valid_rate(8));
  EXPECT_EQ(fastest_rate(), 7);
  EXPECT_EQ(slowest_rate(), 0);
}

// ---------------------------------------------------------------------------
// Frame duration

TEST(AirtimeTest, FrameDurationDecreasesWithRate) {
  for (RateIndex r = 1; r <= fastest_rate(); ++r) {
    EXPECT_LT(frame_duration(r, 1000), frame_duration(r - 1, 1000));
  }
}

TEST(AirtimeTest, FrameDurationIncreasesWithSize) {
  for (RateIndex r = slowest_rate(); r <= fastest_rate(); ++r) {
    EXPECT_LT(frame_duration(r, 100), frame_duration(r, 1500));
  }
}

TEST(AirtimeTest, FrameDurationKnownValue) {
  // 1000 B payload + 28 B MAC overhead = 8224 bits, + 22 service/tail bits
  // = 8246 bits; at 54M (216 b/sym) = ceil(38.2) = 39 symbols = 156 us;
  // plus 20 us preamble = 176 us.
  EXPECT_EQ(frame_duration(7, 1000), 176);
  // At 6M (24 b/sym): ceil(8246/24) = 344 symbols = 1376 + 20 = 1396 us.
  EXPECT_EQ(frame_duration(0, 1000), 1396);
}

TEST(AirtimeTest, ZeroPayloadStillHasOverhead) {
  EXPECT_GT(frame_duration(7, 0), 20);
}

// ---------------------------------------------------------------------------
// ACK duration

TEST(AirtimeTest, AckUsesControlRateLadder) {
  // ACK rate is the highest of 6/12/24 not exceeding the data rate, so all
  // data rates >= 24M share one ACK duration.
  const Duration ack54 = ack_duration(7);
  EXPECT_EQ(ack_duration(6), ack54);
  EXPECT_EQ(ack_duration(4), ack54);
  EXPECT_GT(ack_duration(0), ack54);   // 6M ACK is longer
  EXPECT_GT(ack_duration(2), ack54);   // 12M ACK
  EXPECT_LT(ack_duration(2), ack_duration(0));
}

// ---------------------------------------------------------------------------
// Attempt duration

TEST(AirtimeTest, AttemptIncludesIfsAndBackoff) {
  const MacTiming timing;
  const Duration attempt = attempt_duration(7, 1000, 0);
  const Duration frame = frame_duration(7, 1000);
  EXPECT_GT(attempt, frame + timing.difs + timing.sifs);
}

TEST(AirtimeTest, BackoffGrowsWithRetries) {
  Duration prev = attempt_duration(7, 1000, 0);
  for (int retry = 1; retry <= 6; ++retry) {
    const Duration cur = attempt_duration(7, 1000, retry);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(AirtimeTest, BackoffCapsAtCwMax) {
  // Past the CW cap, attempts stop growing.
  const Duration a = attempt_duration(7, 1000, 10);
  const Duration b = attempt_duration(7, 1000, 12);
  EXPECT_EQ(a, b);
}

TEST(AirtimeTest, AttemptDurationTableEqualsAttemptDuration) {
  for (const int max_retry : {4, kMaxRetry}) {
    for (const int payload : {0, 1000, 1500}) {
      const AttemptDurationTable table(payload, max_retry);
      for (int retry = 0; retry <= max_retry; ++retry) {
        for (RateIndex r = slowest_rate(); r <= fastest_rate(); ++r) {
          EXPECT_EQ(table(r, retry), attempt_duration(r, payload, retry))
              << "rate " << r << ", payload " << payload << ", retry "
              << retry;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Expected tx time

TEST(AirtimeTest, ExpectedTxTimePerfectChannelEqualsOneAttempt) {
  EXPECT_EQ(expected_tx_time(7, 1000, 1.0), attempt_duration(7, 1000, 0));
}

TEST(AirtimeTest, ExpectedTxTimeDecreasesWithDeliveryProbability) {
  const Duration p9 = expected_tx_time(7, 1000, 0.9);
  const Duration p5 = expected_tx_time(7, 1000, 0.5);
  const Duration p1 = expected_tx_time(7, 1000, 0.1);
  EXPECT_LT(p9, p5);
  EXPECT_LT(p5, p1);
}

TEST(AirtimeTest, ExpectedTxTimeZeroProbabilityIsFullChain) {
  // p = 0: the sender pays every attempt in the truncated chain.
  Duration manual = 0;
  for (int k = 0; k <= 4; ++k) manual += attempt_duration(7, 1000, k);
  EXPECT_EQ(expected_tx_time(7, 1000, 0.0, 4), manual);
}

TEST(AirtimeTest, ExpectedTxTimeHalfProbability) {
  // p = 0.5 with max_retries = 1: cost = a0 + 0.5 * a1.
  const double expected =
      static_cast<double>(attempt_duration(7, 1000, 0)) +
      0.5 * static_cast<double>(attempt_duration(7, 1000, 1));
  EXPECT_NEAR(static_cast<double>(expected_tx_time(7, 1000, 0.5, 1)),
              expected, 1.0);
}

// Property sweep: a slower rate with perfect delivery can beat a faster rate
// with poor delivery — the SampleRate decision core.
// gtest names each case after the raw bytes of its parameter, so the padding
// is spelled out and zeroed: otherwise stack garbage leaks into the names.
struct TxTimeCase {
  RateIndex fast;
  std::int32_t pad0 = 0;
  double p_fast;
  RateIndex slow;
  std::int32_t pad1 = 0;
};
static_assert(sizeof(TxTimeCase) == 24, "test names encode the 24-byte layout");
class ExpectedTxTimeCrossover : public ::testing::TestWithParam<TxTimeCase> {};

TEST_P(ExpectedTxTimeCrossover, LossyFastRateLosesToCleanSlowRate) {
  const auto& c = GetParam();
  EXPECT_GT(expected_tx_time(c.fast, 1000, c.p_fast),
            expected_tx_time(c.slow, 1000, 0.98));
}

INSTANTIATE_TEST_SUITE_P(
    Crossovers, ExpectedTxTimeCrossover,
    ::testing::Values(TxTimeCase{.fast = 7, .p_fast = 0.10, .slow = 5},
                      TxTimeCase{.fast = 7, .p_fast = 0.20, .slow = 4},
                      TxTimeCase{.fast = 6, .p_fast = 0.15, .slow = 4},
                      TxTimeCase{.fast = 5, .p_fast = 0.20, .slow = 3},
                      TxTimeCase{.fast = 4, .p_fast = 0.25, .slow = 2}));

}  // namespace
}  // namespace sh::mac

// Tests for the rate-adaptation protocols and the trace-driven runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

#include "channel/trace_generator.h"
#include "mac/airtime.h"
#include "rate/hint_aware.h"
#include "rate/rapid_sample.h"
#include "rate/rraa.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"
#include "rate/trace_runner.h"
#include "util/stats.h"

namespace sh::rate {
namespace {

using channel::Environment;
using channel::TraceGeneratorConfig;
using channel::generate_trace;

// Builds an all-delivered / all-lost trace for direct protocol unit tests.
channel::PacketFateTrace uniform_trace(bool delivered, std::size_t slots = 400,
                                       float snr_db = 25.0F) {
  channel::PacketFateTrace trace;
  for (std::size_t i = 0; i < slots; ++i) {
    channel::TraceSlot slot;
    slot.fate_mask = delivered ? 0xFF : 0;
    slot.snr_db = snr_db;
    trace.push_back(slot);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// RapidSample unit behaviour (the Fig 3-2 algorithm)

TEST(RapidSampleTest, StartsAtFastestRate) {
  RapidSample rs;
  EXPECT_EQ(rs.pick_rate(0), mac::fastest_rate());
}

TEST(RapidSampleTest, StepsDownOnFailure) {
  RapidSample rs;
  rs.on_result(0, 7, false);
  EXPECT_EQ(rs.pick_rate(1), 6);
  rs.on_result(1, 6, false);
  EXPECT_EQ(rs.pick_rate(2), 5);
}

TEST(RapidSampleTest, NeverGoesBelowSlowest) {
  RapidSample rs;
  Time t = 0;
  for (int i = 0; i < 20; ++i) {
    const auto r = rs.pick_rate(t);
    rs.on_result(t, r, false);
    t += 100;
  }
  EXPECT_EQ(rs.pick_rate(t), mac::slowest_rate());
}

TEST(RapidSampleTest, SamplesUpAfterDeltaSuccess) {
  RapidSample rs;
  // Fail down to rate 6, then succeed past delta_success and past
  // delta_fail so rate 7 becomes eligible again.
  rs.on_result(0, 7, false);
  Time t = 1000;
  while (t < 20'000) {  // 20 ms of successes at rate 6
    EXPECT_EQ(rs.pick_rate(t), 6);
    rs.on_result(t, 6, true);
    t += 500;
    if (rs.sampling()) break;
  }
  EXPECT_TRUE(rs.sampling());
  EXPECT_EQ(rs.pick_rate(t), 7);
}

TEST(RapidSampleTest, DoesNotSampleRateFailedWithinDeltaFail) {
  RapidSample rs;
  rs.on_result(0, 7, false);  // rate 7 failed at t=0
  // Succeed at rate 6 for just over delta_success but under delta_fail.
  Time t = 1000;
  while (t < 8'000) {
    rs.on_result(t, 6, true);
    t += 500;
  }
  // 8 ms since the failure: rate 7 is still within delta_fail (10 ms), so
  // the protocol must not be sampling it.
  EXPECT_EQ(rs.pick_rate(t), 6);
}

TEST(RapidSampleTest, FailedSampleRevertsToPreSampleRate) {
  RapidSample rs;
  rs.on_result(0, 7, false);
  Time t = 15'000;  // well past delta_fail
  // Build success history at rate 6 until it samples.
  while (!rs.sampling() && t < 40'000) {
    rs.on_result(t, 6, true);
    t += 500;
  }
  ASSERT_TRUE(rs.sampling());
  const auto sampled = rs.pick_rate(t);
  EXPECT_GT(sampled, 6);
  rs.on_result(t, sampled, false);  // the sample fails
  EXPECT_EQ(rs.pick_rate(t + 1), 6);  // back to pre-sample rate, not -1 step
}

TEST(RapidSampleTest, SuccessfulSampleIsAdopted) {
  RapidSample rs;
  rs.on_result(0, 7, false);
  Time t = 15'000;
  while (!rs.sampling() && t < 40'000) {
    rs.on_result(t, 6, true);
    t += 500;
  }
  ASSERT_TRUE(rs.sampling());
  const auto sampled = rs.pick_rate(t);
  rs.on_result(t, sampled, true);
  EXPECT_EQ(rs.pick_rate(t + 1), sampled);
}

TEST(RapidSampleTest, OpportunisticJumpSkipsRates) {
  RapidSample rs;
  // Fall to the bottom.
  Time t = 0;
  for (int i = 0; i < 10; ++i) {
    rs.on_result(t, rs.pick_rate(t), false);
    t += 300;
  }
  ASSERT_EQ(rs.pick_rate(t), mac::slowest_rate());
  // Succeed at 0 until after every failure is outside delta_fail.
  t += 15'000;
  while (!rs.sampling() && t < 60'000) {
    rs.on_result(t, 0, true);
    t += 500;
  }
  ASSERT_TRUE(rs.sampling());
  // The sample may jump multiple steps at once (not just rate 1).
  EXPECT_EQ(rs.pick_rate(t), mac::fastest_rate());
}

TEST(RapidSampleTest, SlowerRateFailureBlocksHigherSamples) {
  RapidSample rs;
  // Rate 3 fails; even if the current rate is 5 with a long success run,
  // rates above 5 require ALL slower rates clean within delta_fail.
  Time t = 20'000;
  rs.on_result(t, 3, false);
  Time now = t + 2'000;
  for (int i = 0; i < 10; ++i) {
    rs.on_result(now, 5, true);
    now += 500;
  }
  // 7 ms after rate 3's failure: no upward sample allowed.
  EXPECT_EQ(rs.pick_rate(now), 5);
}

TEST(RapidSampleTest, ResetRestoresInitialState) {
  RapidSample rs;
  rs.on_result(0, 7, false);
  rs.reset();
  EXPECT_EQ(rs.pick_rate(0), mac::fastest_rate());
  EXPECT_FALSE(rs.sampling());
}

TEST(RapidSampleTest, RejectsNonPositiveDeltaSuccess) {
  for (const Duration delta : {Duration{0}, -kMillisecond}) {
    RapidSample::Params params;
    params.delta_success = delta;
    EXPECT_THROW(RapidSample{params}, std::invalid_argument) << delta;
  }
}

TEST(RapidSampleTest, RejectsNonPositiveDeltaFail) {
  for (const Duration delta : {Duration{0}, -kMillisecond}) {
    RapidSample::Params params;
    params.delta_fail = delta;
    EXPECT_THROW(RapidSample{params}, std::invalid_argument) << delta;
  }
}

// ---------------------------------------------------------------------------
// SampleRate unit behaviour

TEST(SampleRateTest, StartsAtFastestRate) {
  SampleRateAdapter sr;
  sr.on_packet_start(0);
  EXPECT_EQ(sr.pick_rate(0), mac::fastest_rate());
}

TEST(SampleRateTest, DescendsLadderWhenNothingSucceeds) {
  SampleRateAdapter sr;
  Time t = 0;
  // Hammer failures; the adapter must work its way down the ladder instead
  // of sticking at the top.
  bool reached_bottom = false;
  for (int packet = 0; packet < 200 && !reached_bottom; ++packet) {
    sr.on_packet_start(t);
    const auto r = sr.pick_rate(t);
    sr.on_result(t, r, false);
    t += 400;
    if (r == mac::slowest_rate()) reached_bottom = true;
  }
  EXPECT_TRUE(reached_bottom);
}

TEST(SampleRateTest, PicksRateWithBestAverageTxTime) {
  SampleRateAdapter sr;
  Time t = 0;
  // Rate 4 always succeeds; rate 7 succeeds 1 time in 5. SampleRate should
  // conclude rate 4 has lower average tx time per success.
  for (int i = 0; i < 50; ++i) {
    sr.on_result(t, 4, true);
    sr.on_result(t, 7, i % 5 == 0);
    t += 1000;
  }
  EXPECT_EQ(sr.best_rate(t), 4);
}

TEST(SampleRateTest, FastCleanRateBeatsSlowCleanRate) {
  SampleRateAdapter sr;
  Time t = 0;
  for (int i = 0; i < 50; ++i) {
    sr.on_result(t, 2, true);
    sr.on_result(t, 6, true);
    t += 1000;
  }
  EXPECT_EQ(sr.best_rate(t), 6);
}

TEST(SampleRateTest, WindowExpiryForgetsOldOutcomes) {
  SampleRateAdapter::Params params;
  params.window = kSecond;
  SampleRateAdapter sr(params, util::Rng(1));
  sr.on_result(0, 3, true);
  EXPECT_EQ(sr.best_rate(100), 3);
  // After the window slides past the success, no rate has data; the best
  // falls back to the optimistic fastest.
  EXPECT_EQ(sr.best_rate(2 * kSecond), mac::fastest_rate());
}

TEST(SampleRateTest, SamplingSlotsTryOtherRates) {
  SampleRateAdapter sr;
  Time t = 0;
  // Establish rate 4 as best.
  for (int i = 0; i < 30; ++i) {
    sr.on_result(t, 4, true);
    t += 1000;
  }
  // Drive many packets; roughly 1 in sample_every picks a non-best rate.
  int non_best = 0;
  const int packets = 200;
  for (int i = 0; i < packets; ++i) {
    sr.on_packet_start(t);
    const auto r = sr.pick_rate(t);
    if (r != 4) ++non_best;
    sr.on_result(t, r, r <= 4);  // rates above 4 fail
    t += 500;
  }
  EXPECT_GT(non_best, packets / 30);
  EXPECT_LT(non_best, packets / 3);
}

TEST(SampleRateTest, ChainRetriesUsePrimaryNotSample) {
  SampleRateAdapter::Params params;
  params.sample_every = 2;  // sample frequently to hit the case fast
  SampleRateAdapter sr(params, util::Rng(2));
  Time t = 0;
  for (int i = 0; i < 30; ++i) {
    sr.on_result(t, 4, true);
    t += 1000;
  }
  // Find a packet whose first pick is a sample (not rate 4), fail it, and
  // check the retry goes back to the primary rate.
  for (int packet = 0; packet < 50; ++packet) {
    sr.on_packet_start(t);
    const auto first = sr.pick_rate(t);
    if (first != 4) {
      sr.on_result(t, first, false);
      EXPECT_EQ(sr.pick_rate(t + 100), 4);
      return;
    }
    sr.on_result(t, first, true);
    t += 500;
  }
  FAIL() << "no sampling slot observed in 50 packets";
}

// ---------------------------------------------------------------------------
// SampleRate against its per-rate-deque form: the oracle below is the
// adapter as it stood before its window became one packed FIFO (eight
// deques pruned lazily, one per rate). Every pick_rate and best_rate of the
// two must agree on any stream whose clock never runs backwards.

class DequeSampleRate {
 public:
  DequeSampleRate(SampleRateAdapter::Params params, util::Rng rng)
      : params_(params), rng_(rng) {
    for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate();
         ++r) {
      lossless_us_[static_cast<std::size_t>(r)] = static_cast<double>(
          mac::attempt_duration(r, params_.payload_bytes, /*retry=*/0));
    }
  }

  mac::RateIndex best_rate(Time now) {
    mac::RateIndex best = -1;
    double best_time = std::numeric_limits<double>::infinity();
    for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate();
         ++r) {
      auto& stats = stats_[static_cast<std::size_t>(r)];
      prune(now, stats);
      if (stats.successes == 0) continue;
      const double t = window_tx_time_us(r, stats);
      if (t < best_time) {
        best_time = t;
        best = r;
      }
    }
    if (best >= 0) return best;
    for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate();
         --r) {
      if (stats_[static_cast<std::size_t>(r)].consecutive_failures <
          params_.max_consecutive_failures) {
        return r;
      }
    }
    return mac::slowest_rate();
  }

  mac::RateIndex pick_rate(Time now) {
    mac::RateIndex best = best_rate(now);
    if (chain_failures_ > 0) return best;
    ++packet_counter_;
    if (packet_counter_ % params_.sample_every != 0) return best;
    const double best_avg = avg_tx_time_us(now, best);
    std::array<mac::RateIndex, mac::kNumRates> candidates{};
    std::size_t num_candidates = 0;
    for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate();
         ++r) {
      if (r == best) continue;
      auto& stats = stats_[static_cast<std::size_t>(r)];
      prune(now, stats);
      if (stats.consecutive_failures >= params_.max_consecutive_failures)
        continue;
      if (lossless_us_[static_cast<std::size_t>(r)] >= best_avg) continue;
      candidates[num_candidates++] = r;
    }
    if (num_candidates == 0) return best;
    const auto pick = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(num_candidates) - 1));
    return candidates[pick];
  }

  void on_packet_start(Time /*now*/) { chain_failures_ = 0; }

  void on_result(Time now, mac::RateIndex rate_used, bool acked) {
    auto& stats = stats_[static_cast<std::size_t>(rate_used)];
    stats.outcomes.push_back(Outcome{now, acked});
    if (acked) {
      ++stats.successes;
      stats.consecutive_failures = 0;
      chain_failures_ = 0;
    } else {
      ++stats.consecutive_failures;
      ++chain_failures_;
    }
    prune(now, stats);
  }

  void reset() {
    for (auto& s : stats_) s = RateStats{};
    packet_counter_ = 0;
    chain_failures_ = 0;
  }

 private:
  struct Outcome {
    Time when;
    bool acked;
  };
  struct RateStats {
    std::deque<Outcome> outcomes;
    std::size_t successes = 0;
    int consecutive_failures = 0;
  };

  double window_tx_time_us(mac::RateIndex r, const RateStats& stats) const {
    const double total_airtime = lossless_us_[static_cast<std::size_t>(r)] *
                                 static_cast<double>(stats.outcomes.size());
    return total_airtime / static_cast<double>(stats.successes);
  }

  void prune(Time now, RateStats& stats) {
    while (!stats.outcomes.empty() &&
           now - stats.outcomes.front().when > params_.window) {
      if (stats.outcomes.front().acked) --stats.successes;
      stats.outcomes.pop_front();
    }
    if (stats.outcomes.empty()) stats.consecutive_failures = 0;
  }

  double avg_tx_time_us(Time now, mac::RateIndex r) {
    auto& stats = stats_[static_cast<std::size_t>(r)];
    prune(now, stats);
    if (stats.outcomes.empty()) {
      return lossless_us_[static_cast<std::size_t>(r)];
    }
    if (stats.successes == 0) return std::numeric_limits<double>::infinity();
    return window_tx_time_us(r, stats);
  }

  SampleRateAdapter::Params params_;
  util::Rng rng_;
  std::array<double, mac::kNumRates> lossless_us_{};
  std::array<RateStats, mac::kNumRates> stats_{};
  int packet_counter_ = 0;
  int chain_failures_ = 0;
};

// Drives both adapters through one random stream: retry chains of pick and
// result on a channel whose usable rate wanders, bare results the adapter
// never picked, bare best_rate queries, idle gaps longer than any window,
// repeated timestamps and the odd reset. On a `coarse` clock every step is
// whole milliseconds, so records also land exactly one window before `now`.
// Returns the number of comparisons.
int compare_with_deque_oracle(Duration window, int sample_every, Time start,
                              bool coarse, std::uint64_t seed) {
  SampleRateAdapter::Params params;
  params.window = window;
  params.sample_every = sample_every;
  SampleRateAdapter fifo(params, util::Rng(seed));
  DequeSampleRate oracle(params, util::Rng(seed));
  util::Rng drive(seed ^ 0x5eedULL);
  Time t = start;
  double usable = 5.0;  // rates at or below this mostly deliver
  int compared = 0;
  const auto advance = [&](Duration lo, Duration hi) {
    if (!coarse) return drive.uniform_int(lo, hi);
    return drive.uniform_int(lo / kMillisecond, hi / kMillisecond) *
           kMillisecond;
  };
  const auto check = [&](mac::RateIndex got, mac::RateIndex want,
                         const char* what) {
    ++compared;
    EXPECT_EQ(got, want) << what << " at t=" << t << " (seed " << seed
                         << ", window " << window << ", sample_every "
                         << sample_every << ")";
    return got == want;
  };
  for (int step = 0; step < 6000; ++step) {
    usable = std::clamp(usable + drive.normal() * 0.3, -1.0, 8.0);
    const double u = drive.uniform();
    if (u < 0.80) {
      fifo.on_packet_start(t);
      oracle.on_packet_start(t);
      for (int retry = 0; retry <= 4; ++retry) {
        const mac::RateIndex r = fifo.pick_rate(t);
        if (!check(r, oracle.pick_rate(t), "pick_rate")) return compared;
        const bool acked =
            drive.bernoulli(static_cast<double>(r) <= usable ? 0.9 : 0.1);
        fifo.on_result(t, r, acked);
        oracle.on_result(t, r, acked);
        t += advance(0, 3 * kMillisecond);
        if (acked) break;
      }
    } else if (u < 0.90) {
      const auto r = static_cast<mac::RateIndex>(
          drive.uniform_int(mac::slowest_rate(), mac::fastest_rate()));
      const bool acked = drive.bernoulli(0.5);
      fifo.on_result(t, r, acked);
      oracle.on_result(t, r, acked);
    } else if (u < 0.97) {
      if (!check(fifo.best_rate(t), oracle.best_rate(t), "best_rate")) {
        return compared;
      }
    } else if (u < 0.995) {
      t += advance(window / 2, window + window / 2);
    } else {
      fifo.reset();
      oracle.reset();
    }
  }
  return compared;
}

TEST(SampleRateTest, PackedWindowMatchesPerRateDeques) {
  int compared = 0;
  std::uint64_t seed = 1;
  for (const Duration window : {2 * kSecond, 5 * kSecond, 10 * kSecond}) {
    for (const int sample_every : {2, 10}) {
      for (const Time start : {Time{0}, -7 * kSecond, Time{-1}}) {
        for (const bool coarse : {false, true, false, true}) {
          compared += compare_with_deque_oracle(window, sample_every, start,
                                                coarse, seed++);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(compared, 100000);
}

TEST(SampleRateTest, RejectsTimesItCannotPack) {
  SampleRateAdapter sr;
  for (const Time t : {std::numeric_limits<Time>::max(),
                       std::numeric_limits<Time>::min(),
                       SampleRateAdapter::kMaxTime + 1,
                       SampleRateAdapter::kMinTime - 1}) {
    EXPECT_THROW(sr.on_result(t, 3, true), std::out_of_range) << t;
  }
  sr.on_result(SampleRateAdapter::kMinTime, 3, true);
  EXPECT_EQ(sr.best_rate(SampleRateAdapter::kMinTime), 3);
  sr.reset();
  sr.on_result(SampleRateAdapter::kMaxTime, 4, true);
  EXPECT_EQ(sr.best_rate(SampleRateAdapter::kMaxTime), 4);
}

TEST(SampleRateTest, RejectsSampleEveryBelowTwo) {
  // 0 would divide by zero choosing sampling slots; 1 samples every packet.
  for (const int n : {1, 0, -3}) {
    SampleRateAdapter::Params params;
    params.sample_every = n;
    EXPECT_THROW(SampleRateAdapter(params, util::Rng(1)), std::invalid_argument)
        << n;
  }
}

TEST(SampleRateTest, RejectsNonPositiveWindow) {
  for (const Duration window : {Duration{0}, -kSecond}) {
    SampleRateAdapter::Params params;
    params.window = window;
    EXPECT_THROW(SampleRateAdapter(params, util::Rng(1)), std::invalid_argument)
        << window;
  }
}

// ---------------------------------------------------------------------------
// RRAA unit behaviour

TEST(RraaTest, ThresholdsAreOrdered) {
  Rraa rraa;
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    EXPECT_GE(rraa.mtl(r), 0.0);
    EXPECT_LE(rraa.ori(r), rraa.mtl(r)) << "rate " << r;
  }
  EXPECT_DOUBLE_EQ(rraa.mtl(mac::slowest_rate()), 1.0);
  EXPECT_DOUBLE_EQ(rraa.ori(mac::fastest_rate()), 0.0);
}

TEST(RraaTest, RejectsNonPositiveWindow) {
  for (const int frames : {0, -40}) {
    Rraa::Params params;
    params.window_frames = frames;
    EXPECT_THROW(Rraa{params}, std::invalid_argument) << frames;
  }
}

TEST(RraaTest, HeavyLossMovesDownBeforeWindowEnds) {
  Rraa rraa;
  const auto start = rraa.pick_rate(0);
  Time t = 0;
  int frames = 0;
  while (rraa.pick_rate(t) == start && frames < 40) {
    rraa.on_result(t, start, false);
    t += 400;
    ++frames;
  }
  EXPECT_LT(frames, 40) << "early exit should fire before the full window";
  EXPECT_EQ(rraa.pick_rate(t), start - 1);
}

TEST(RraaTest, CleanWindowMovesUp) {
  Rraa rraa;
  // Knock it down one rate first.
  Time t = 0;
  while (rraa.pick_rate(t) == mac::fastest_rate()) {
    rraa.on_result(t, mac::fastest_rate(), false);
    t += 400;
  }
  const auto lowered = rraa.pick_rate(t);
  // A full loss-free window must raise the rate again.
  for (int i = 0; i < 40; ++i) {
    rraa.on_result(t, lowered, true);
    t += 400;
  }
  EXPECT_EQ(rraa.pick_rate(t), lowered + 1);
}

TEST(RraaTest, ModerateLossHolds) {
  Rraa::Params params;
  Rraa rraa(params);
  // Drop to a mid rate deterministically.
  Time t = 0;
  while (rraa.pick_rate(t) > 4) {
    rraa.on_result(t, rraa.pick_rate(t), false);
    t += 400;
  }
  const auto rate = rraa.pick_rate(t);
  const double mid_loss = (rraa.ori(rate) + rraa.mtl(rate)) / 2.0;
  // Feed a window with loss ratio between ORI and MTL: rate must not move.
  int losses = 0;
  for (int i = 0; i < params.window_frames; ++i) {
    const bool lose =
        (static_cast<double>(losses) / params.window_frames) < mid_loss;
    if (lose) ++losses;
    rraa.on_result(t, rate, !lose);
    t += 400;
  }
  EXPECT_EQ(rraa.pick_rate(t), rate);
}

TEST(RraaTest, StaleFeedbackIgnoredAfterRateChange) {
  Rraa rraa;
  const auto start = rraa.pick_rate(0);
  // Feedback for a different rate must not perturb the current window.
  rraa.on_result(0, start - 2, false);
  rraa.on_result(0, start - 2, false);
  EXPECT_EQ(rraa.pick_rate(0), start);
}

// ---------------------------------------------------------------------------
// RBAR / CHARM

TEST(RbarTest, NoSnrMeansSlowestRate) {
  Rbar rbar;
  EXPECT_EQ(rbar.pick_rate(0), mac::slowest_rate());
}

TEST(RbarTest, TracksLatestSnr) {
  Rbar::Params params;
  params.calibration_bias_db = 0.0;
  Rbar rbar(params);
  rbar.on_snr(0, 30.0);
  const auto high = rbar.pick_rate(0);
  rbar.on_snr(1, 8.0);
  const auto low = rbar.pick_rate(1);
  EXPECT_GT(high, low);
  EXPECT_EQ(high, mac::fastest_rate());
}

TEST(RbarTest, ResetForgetsSnr) {
  Rbar rbar;
  rbar.on_snr(0, 30.0);
  rbar.reset();
  EXPECT_EQ(rbar.pick_rate(1), mac::slowest_rate());
}

TEST(CharmTest, AveragesOverWindow) {
  Charm::Params params;
  params.calibration_bias_db = 0.0;
  Charm charm(params);
  charm.on_snr(0, 10.0);
  charm.on_snr(1, 20.0);
  EXPECT_NEAR(charm.mean_snr_db(), 15.0, 1e-9);
}

TEST(CharmTest, OldSamplesExpire) {
  Charm::Params params;
  params.window = kSecond;
  params.calibration_bias_db = 0.0;
  Charm charm(params);
  charm.on_snr(0, 30.0);
  charm.on_snr(2 * kSecond, 10.0);
  EXPECT_NEAR(charm.mean_snr_db(), 10.0, 1e-9);
}

TEST(CharmTest, RobustToSingleOutlierUnlikeRbar) {
  Rbar::Params rp;
  rp.calibration_bias_db = 0.0;
  Charm::Params cp;
  cp.calibration_bias_db = 0.0;
  Rbar rbar(rp);
  Charm charm(cp);
  // Steady 25 dB with one 5 dB glitch.
  for (Time t = 0; t < 900 * kMillisecond; t += 100 * kMillisecond) {
    rbar.on_snr(t, 25.0);
    charm.on_snr(t, 25.0);
  }
  rbar.on_snr(900 * kMillisecond, 5.0);
  charm.on_snr(900 * kMillisecond, 5.0);
  EXPECT_EQ(rbar.pick_rate(901 * kMillisecond), mac::slowest_rate());
  EXPECT_GT(charm.pick_rate(901 * kMillisecond), 4);
}

TEST(RbarTest, RejectsNonPositivePayload) {
  for (const int payload : {0, -1000}) {
    Rbar::Params params;
    params.payload_bytes = payload;
    EXPECT_THROW(Rbar{params}, std::invalid_argument) << payload;
  }
}

TEST(CharmTest, RejectsNonPositiveWindow) {
  for (const Duration window : {Duration{0}, -kSecond}) {
    Charm::Params params;
    params.window = window;
    EXPECT_THROW(Charm{params}, std::invalid_argument) << window;
  }
}

TEST(CharmTest, RejectsNonPositivePayload) {
  Charm::Params params;
  params.payload_bytes = 0;
  EXPECT_THROW(Charm{params}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// HintAwareRateAdapter

TEST(HintAwareTest, UsesSampleRateWhenStatic) {
  HintAwareRateAdapter hint([](Time) { return false; }, util::Rng(3));
  EXPECT_FALSE(hint.mobile_mode());
  hint.pick_rate(0);
  EXPECT_FALSE(hint.mobile_mode());
}

TEST(HintAwareTest, SwitchesToRapidSampleOnMovement) {
  bool moving = false;
  HintAwareRateAdapter hint([&moving](Time) { return moving; }, util::Rng(4));
  hint.pick_rate(0);
  EXPECT_FALSE(hint.mobile_mode());
  moving = true;
  hint.pick_rate(1);
  EXPECT_TRUE(hint.mobile_mode());
  moving = false;
  hint.pick_rate(2);
  EXPECT_FALSE(hint.mobile_mode());
}

TEST(HintAwareTest, ResetOnSwitchClearsMobileHistory) {
  bool moving = true;
  HintAwareRateAdapter hint([&moving](Time) { return moving; }, util::Rng(5));
  // Drive RapidSample down while mobile.
  Time t = 0;
  for (int i = 0; i < 6; ++i) {
    const auto r = hint.pick_rate(t);
    hint.on_result(t, r, false);
    t += 400;
  }
  EXPECT_LT(hint.pick_rate(t), mac::fastest_rate());
  // Switch to static and back to mobile: RapidSample must start fresh.
  moving = false;
  hint.pick_rate(t + 1);
  moving = true;
  EXPECT_EQ(hint.pick_rate(t + 2), mac::fastest_rate());
}

// ---------------------------------------------------------------------------
// HintAwareRateAdapter graceful degradation (nullopt-answering HintQuery)

TEST(HintAwareTest, HundredPercentDropoutMatchesSampleRate) {
  // The degradation floor, pinned on the golden office traces: an adapter
  // whose hint feed never answers must deliver what plain SampleRate
  // delivers. The contract is >= 0.99x; the implementation actually degrades
  // to the identical adapter, so we assert exact equality too.
  for (const bool mobile : {false, true}) {
    TraceGeneratorConfig cfg;
    cfg.env = Environment::kOffice;
    cfg.scenario = mobile ? sim::MobilityScenario::all_walking(20 * kSecond)
                          : sim::MobilityScenario::all_static(20 * kSecond);
    cfg.seed = 12345;
    const auto trace = generate_trace(cfg);
    RunConfig run;
    run.workload = Workload::kTcp;
    HintAwareRateAdapter dead(
        HintAwareRateAdapter::HintQuery{
            [](Time) { return std::optional<bool>(); }},
        util::Rng(42));
    SampleRateAdapter baseline;
    const double hint_mbps = run_trace(dead, trace, run).throughput_mbps;
    const double base_mbps = run_trace(baseline, trace, run).throughput_mbps;
    EXPECT_GE(hint_mbps, 0.99 * base_mbps) << (mobile ? "mobile" : "static");
    EXPECT_DOUBLE_EQ(hint_mbps, base_mbps) << (mobile ? "mobile" : "static");
    EXPECT_TRUE(dead.degraded());
  }
}

TEST(HintAwareTest, StaleHintExitsRapidSampleWithinHold) {
  // The feed answers "moving" and then goes silent: the adapter may ride
  // RapidSample for stale_hold, but no longer — a stale movement hint must
  // not pin the protocol in its aggressive mode.
  Time silent_after = 5 * kSecond;
  HintAwareRateAdapter hint(
      HintAwareRateAdapter::HintQuery{
          [&silent_after](Time t) -> std::optional<bool> {
            if (t >= silent_after) return std::nullopt;
            return true;
          }},
      util::Rng(7));
  hint.pick_rate(kSecond);
  EXPECT_TRUE(hint.mobile_mode());
  EXPECT_FALSE(hint.degraded());
  // Last answered query before the feed dies: the hold window runs from
  // here (the adapter only learns of the silence at query times).
  hint.pick_rate(silent_after - kMillisecond);
  // Inside the hold window the last mode survives a brief gap...
  hint.pick_rate(silent_after + 500 * kMillisecond);
  EXPECT_TRUE(hint.mobile_mode());
  EXPECT_FALSE(hint.degraded());
  // ...but once the window expires the adapter falls back to SampleRate.
  hint.pick_rate(silent_after + kSecond + kMillisecond);
  EXPECT_FALSE(hint.mobile_mode());
  EXPECT_TRUE(hint.degraded());
}

TEST(HintAwareTest, DegradedAdapterRecoversWhenFeedReturns) {
  std::optional<bool> answer = std::nullopt;
  HintAwareRateAdapter hint(
      HintAwareRateAdapter::HintQuery{[&answer](Time) { return answer; }},
      util::Rng(8));
  hint.pick_rate(0);
  EXPECT_TRUE(hint.degraded());  // never answered: degrade immediately
  answer = true;
  hint.pick_rate(kSecond);
  EXPECT_FALSE(hint.degraded());
  EXPECT_TRUE(hint.mobile_mode());
}

TEST(HintAwareTest, LegacyMovingQueryNeverDegrades) {
  // A bool query cannot answer nullopt, so the degraded path must be
  // unreachable — legacy behavior is bit-identical by construction.
  HintAwareRateAdapter hint([](Time) { return false; }, util::Rng(9));
  for (Time t = 0; t < 30 * kSecond; t += kSecond) {
    hint.pick_rate(t);
    EXPECT_FALSE(hint.degraded());
  }
}

// ---------------------------------------------------------------------------
// Trace runner

TEST(TraceRunnerTest, PerfectChannelDeliversEverything) {
  const auto trace = uniform_trace(true);
  RapidSample rs;
  RunConfig config;
  config.iid_loss_floor = 0.0;
  const auto result = run_trace(rs, trace, config);
  EXPECT_EQ(result.delivered, result.attempts);
  EXPECT_GT(result.throughput_mbps, 10.0);
}

TEST(TraceRunnerTest, DeadChannelDeliversNothing) {
  const auto trace = uniform_trace(false);
  RapidSample rs;
  const auto result = run_trace(rs, trace, RunConfig{});
  EXPECT_EQ(result.delivered, 0U);
  EXPECT_DOUBLE_EQ(result.throughput_mbps, 0.0);
  EXPECT_GT(result.attempts, 0U);
}

TEST(TraceRunnerTest, RejectsLinkRetriesOutsideTheAirtimeRange) {
  // Beyond mac::kMaxRetry the contention window overflows an int; below 0
  // no attempt is made and time never advances.
  const auto trace = uniform_trace(false);
  RapidSample rs;
  RunConfig config;
  for (const int retries : {mac::kMaxRetry + 1, 1000, -1}) {
    config.link_retries = retries;
    EXPECT_THROW(run_trace(rs, trace, config), std::invalid_argument)
        << "link_retries " << retries;
  }
  config.link_retries = mac::kMaxRetry;
  const auto result = run_trace(rs, trace, config);
  EXPECT_GT(result.attempts, 0U);
}

TEST(TraceRunnerTest, RejectsEmptyTrace) {
  // Its throughput would be 0 delivered bits over 0 seconds.
  const channel::PacketFateTrace empty;
  for (const Workload workload : {Workload::kUdp, Workload::kTcp}) {
    RapidSample rs;
    RunConfig config;
    config.workload = workload;
    EXPECT_THROW(run_trace(rs, empty, config), std::invalid_argument);
  }
}

TEST(TraceRunnerTest, RejectsNonPositivePayload) {
  // A negative payload makes attempt airtime negative: time would run
  // backwards and neither workload loop would end.
  const auto trace = uniform_trace(true);
  for (const Workload workload : {Workload::kUdp, Workload::kTcp}) {
    for (const int payload : {0, -1, -10000}) {
      RapidSample rs;
      RunConfig config;
      config.workload = workload;
      config.payload_bytes = payload;
      EXPECT_THROW(run_trace(rs, trace, config), std::invalid_argument)
          << "payload_bytes " << payload;
    }
  }
}

TEST(TraceRunnerTest, UdpOutrunsTcpOnLossyChannel) {
  TraceGeneratorConfig cfg;
  cfg.env = Environment::kOffice;
  cfg.scenario = sim::MobilityScenario::all_walking(10 * kSecond);
  cfg.seed = 6;
  cfg.snr_offset_db = -4.0;
  const auto trace = generate_trace(cfg);
  RunConfig udp;
  udp.workload = Workload::kUdp;
  RunConfig tcp;
  tcp.workload = Workload::kTcp;
  RapidSample a, b;
  EXPECT_GT(run_trace(a, trace, udp).throughput_mbps,
            run_trace(b, trace, tcp).throughput_mbps);
}

TEST(TraceRunnerTest, ThroughputBoundedByRateAndAirtime) {
  const auto trace = uniform_trace(true);
  RapidSample rs;
  RunConfig config;
  config.iid_loss_floor = 0.0;
  const auto result = run_trace(rs, trace, config);
  // Even a perfect channel cannot exceed the 54M goodput ceiling.
  EXPECT_LT(result.throughput_mbps, 54.0);
}

TEST(TraceRunnerTest, LossFloorCostsThroughputViaRetries) {
  // Retries rescue packet delivery, so the floor's cost shows up as burned
  // airtime (lower throughput), not as lost packets.
  const auto trace = uniform_trace(true);
  RapidSample a, b;
  RunConfig clean;
  clean.iid_loss_floor = 0.0;
  RunConfig noisy;
  noisy.iid_loss_floor = 0.10;
  EXPECT_GT(run_trace(a, trace, clean).throughput_mbps,
            run_trace(b, trace, noisy).throughput_mbps);
}

// ---------------------------------------------------------------------------
// Exact-value pins of the replay loop, recorded before run_trace and the
// hinted runner shared one loop. Any change to the order of adapter calls,
// RNG draws or time updates moves these numbers.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

channel::PacketFateTrace pinned_trace() {
  TraceGeneratorConfig cfg;
  cfg.env = Environment::kOffice;
  cfg.scenario = sim::MobilityScenario::static_then_walking(10 * kSecond);
  cfg.seed = 2024;
  cfg.snr_offset_db = -10.0;
  return generate_trace(cfg);
}

TEST(TraceRunnerPinTest, UdpValuesAreExact) {
  RunConfig run;
  run.workload = Workload::kUdp;
  SampleRateAdapter adapter;
  const auto result = run_trace(adapter, pinned_trace(), run);
  EXPECT_EQ(result.attempts, 2552U);
  EXPECT_EQ(result.delivered, 1893U);
  EXPECT_EQ(bits(result.throughput_mbps), 0x3ff83afb7e90ff97ULL);
}

TEST(TraceRunnerPinTest, TcpValuesAreExact) {
  RunConfig run;
  run.workload = Workload::kTcp;
  SampleRateAdapter adapter;
  const auto result = run_trace(adapter, pinned_trace(), run);
  EXPECT_EQ(result.attempts, 1190U);
  EXPECT_EQ(result.delivered, 1160U);
  EXPECT_EQ(bits(result.throughput_mbps), 0x3fedb22d0e560419ULL);
}

// RBAR and CHARM on the same trace, recorded while both still called
// channel::best_rate_for_snr on every pick; their SnrRateMap must keep them.
TEST(TraceRunnerPinTest, RbarValuesAreExact) {
  const auto trace = pinned_trace();
  RunConfig run;
  run.workload = Workload::kUdp;
  Rbar udp;
  const auto u = run_trace(udp, trace, run);
  EXPECT_EQ(u.attempts, 3790U);
  EXPECT_EQ(u.delivered, 2883U);
  EXPECT_EQ(bits(u.throughput_mbps), 0x40027381d7dbf488ULL);
  run.workload = Workload::kTcp;
  Rbar tcp;
  const auto c = run_trace(tcp, trace, run);
  EXPECT_EQ(c.attempts, 174U);
  EXPECT_EQ(c.delivered, 152U);
  EXPECT_EQ(bits(c.throughput_mbps), 0x3fbf212d77318fc5ULL);
}

TEST(TraceRunnerPinTest, CharmValuesAreExact) {
  const auto trace = pinned_trace();
  RunConfig run;
  run.workload = Workload::kUdp;
  Charm udp;
  const auto u = run_trace(udp, trace, run);
  EXPECT_EQ(u.attempts, 3694U);
  EXPECT_EQ(u.delivered, 2705U);
  EXPECT_EQ(bits(u.throughput_mbps), 0x40014fdf3b645a1dULL);
  run.workload = Workload::kTcp;
  Charm tcp;
  const auto c = run_trace(tcp, trace, run);
  EXPECT_EQ(c.attempts, 739U);
  EXPECT_EQ(c.delivered, 688U);
  EXPECT_EQ(bits(c.throughput_mbps), 0x3fe19ce075f6fd22ULL);
}

// ---------------------------------------------------------------------------
// The paper's protocol evaluator: each field is exactly a fresh replay.

HintAwareRateAdapter::HintQuery lagged_query(
    const channel::PacketFateTrace& trace) {
  return HintAwareRateAdapter::HintQuery{
      [&trace](Time t) -> std::optional<bool> {
        return trace.moving(std::max<Time>(0, t - 150 * kMillisecond));
      }};
}

TEST(PaperProtocolsTest, EachFieldMatchesAFreshReplay) {
  const auto trace = pinned_trace();
  for (const Workload workload : {Workload::kUdp, Workload::kTcp}) {
    RunConfig run;
    run.workload = workload;
    const auto got = run_paper_protocols(trace, run, lagged_query(trace));
    HintAwareRateAdapter hint(lagged_query(trace), util::Rng(42));
    EXPECT_EQ(got.hint, run_trace(hint, trace, run).throughput_mbps);
    RapidSample rapid;
    EXPECT_EQ(got.rapid, run_trace(rapid, trace, run).throughput_mbps);
    EXPECT_EQ(got.sample, best_samplerate_mbps(trace, run));
    Rraa rraa;
    EXPECT_EQ(got.rraa, run_trace(rraa, trace, run).throughput_mbps);
    Rbar rbar;
    EXPECT_EQ(got.rbar, run_trace(rbar, trace, run).throughput_mbps);
    Charm charm;
    EXPECT_EQ(got.charm, run_trace(charm, trace, run).throughput_mbps);
  }
}

TEST(PaperProtocolsTest, SampleIsTheBestOfThreeWindows) {
  const auto trace = pinned_trace();
  RunConfig run;
  run.workload = Workload::kTcp;
  double best = 0.0;
  for (const double window_s : {2.0, 5.0, 10.0}) {
    SampleRateAdapter::Params params;
    params.window = seconds(window_s);
    SampleRateAdapter adapter(params, util::Rng(42));
    best = std::max(best, run_trace(adapter, trace, run).throughput_mbps);
  }
  EXPECT_EQ(best_samplerate_mbps(trace, run), best);
  EXPECT_EQ(run_paper_protocols(trace, run, lagged_query(trace)).sample,
            best);
}

TEST(PaperProtocolsTest, OnlyHintAwareHearsTheQuery) {
  // A query that never answers degrades HintAware; the baselines take no
  // hints and must not move.
  const auto trace = pinned_trace();
  RunConfig run;
  run.workload = Workload::kTcp;
  const auto lagged = run_paper_protocols(trace, run, lagged_query(trace));
  const auto silent = run_paper_protocols(
      trace, run, HintAwareRateAdapter::HintQuery{[](Time) {
        return std::optional<bool>();
      }});
  EXPECT_EQ(silent.rapid, lagged.rapid);
  EXPECT_EQ(silent.sample, lagged.sample);
  EXPECT_EQ(silent.rraa, lagged.rraa);
  EXPECT_EQ(silent.rbar, lagged.rbar);
  EXPECT_EQ(silent.charm, lagged.charm);
}

// ---------------------------------------------------------------------------
// The paper's protocol ranking, as properties over generated traces.

struct EnvCase {
  Environment env;
};
class ProtocolRanking : public ::testing::TestWithParam<EnvCase> {};

TEST_P(ProtocolRanking, RapidSampleWinsMobile) {
  util::RunningStats rapid, sample;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    TraceGeneratorConfig cfg;
    cfg.env = GetParam().env;
    cfg.scenario = sim::MobilityScenario::all_walking(15 * kSecond);
    cfg.seed = 1000 + seed * 11;
    cfg.snr_offset_db = static_cast<double>(seed % 3) - 1.0;
    const auto trace = generate_trace(cfg);
    RunConfig run;
    run.workload = Workload::kTcp;
    RapidSample rs;
    rapid.add(run_trace(rs, trace, run).throughput_mbps);
    SampleRateAdapter sr;
    sample.add(run_trace(sr, trace, run).throughput_mbps);
  }
  EXPECT_GT(rapid.mean(), 1.1 * sample.mean());
}

TEST_P(ProtocolRanking, SampleRateWinsStatic) {
  util::RunningStats rapid, sample;
  // Static placements vary a lot trace to trace (a frozen fade can park a
  // realization anywhere); the ranking is a statement about the average, so
  // average over a decent trace count like the paper's 10-20 per point.
  for (std::uint64_t seed = 0; seed < 14; ++seed) {
    TraceGeneratorConfig cfg;
    cfg.env = GetParam().env;
    cfg.scenario = sim::MobilityScenario::all_static(15 * kSecond);
    cfg.seed = 2000 + seed * 11;
    cfg.snr_offset_db = static_cast<double>(seed % 3) - 1.0;
    const auto trace = generate_trace(cfg);
    RunConfig run;
    run.workload = Workload::kTcp;
    RapidSample rs;
    rapid.add(run_trace(rs, trace, run).throughput_mbps);
    SampleRateAdapter sr;
    sample.add(run_trace(sr, trace, run).throughput_mbps);
  }
  EXPECT_GT(sample.mean(), rapid.mean());
}

TEST_P(ProtocolRanking, HintAwareWinsMixed) {
  util::RunningStats hint, rapid, sample;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    TraceGeneratorConfig cfg;
    cfg.env = GetParam().env;
    cfg.scenario =
        sim::MobilityScenario::static_then_walking(20 * kSecond, seed % 2 == 1);
    cfg.seed = 3000 + seed * 11;
    cfg.snr_offset_db = static_cast<double>(seed % 3) - 1.0;
    const auto trace = generate_trace(cfg);
    RunConfig run;
    run.workload = Workload::kTcp;
    HintAwareRateAdapter ha(
        [&trace](Time t) {
          return trace.moving(std::max<Time>(0, t - 150 * kMillisecond));
        },
        util::Rng(42));
    hint.add(run_trace(ha, trace, run).throughput_mbps);
    RapidSample rs;
    rapid.add(run_trace(rs, trace, run).throughput_mbps);
    SampleRateAdapter sr;
    sample.add(run_trace(sr, trace, run).throughput_mbps);
  }
  EXPECT_GT(hint.mean(), rapid.mean());
  EXPECT_GT(hint.mean(), sample.mean());
}

INSTANTIATE_TEST_SUITE_P(Environments, ProtocolRanking,
                         ::testing::Values(EnvCase{Environment::kOffice},
                                           EnvCase{Environment::kHallway}));

}  // namespace
}  // namespace sh::rate

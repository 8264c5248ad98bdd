// SampleRate (Bicket, MIT 2005): the static-channel workhorse.
//
// Picks the rate with the lowest average transmission time per successfully
// delivered packet over a sliding history window (10 seconds by default),
// and spends a fraction of packets sampling other rates that could plausibly
// do better. Long history smooths over short-term fading — excellent when
// static, and exactly what goes stale when the device moves (paper §3.5).
//
// The window length is SampleRate's key parameter; the thesis post-processes
// each trace to pick the best value, so the benches sweep `window` and report
// the per-trace best, reproducing that favourable treatment.
//
// Precondition of every call that takes `now`: it is no earlier than the
// `now` of any earlier call since construction or the last reset()
// (rate::replay's clock only moves forward). The history is then one
// time-ordered FIFO across all rates, and expiring its front at `now` is
// exactly what pruning each rate's own history at `now` would do.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "rate/adapter.h"
#include "util/rng.h"

namespace sh::rate {

class SampleRateAdapter final : public RateAdapter {
 public:
  struct Params {
    Duration window = 10 * kSecond;
    int sample_every = 10;          ///< Every Nth packet samples a rate.
    int payload_bytes = 1000;
    int max_consecutive_failures = 4;  ///< Excludes a rate from sampling.
  };

  /// The times a window record can hold (about ±18,000 years).
  static constexpr Time kMinTime = -(Time{1} << 59);
  static constexpr Time kMaxTime = (Time{1} << 59) - 1;

  SampleRateAdapter() : SampleRateAdapter(Params{}, util::Rng{42}) {}
  /// Throws std::invalid_argument unless window > 0 and sample_every >= 2.
  SampleRateAdapter(Params params, util::Rng rng);

  std::string_view name() const override { return "SampleRate"; }
  void on_packet_start(Time now) override;
  mac::RateIndex pick_rate(Time now) override;
  /// Throws std::out_of_range unless kMinTime <= now <= kMaxTime.
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void reset() override;

  /// Current best rate by average tx time (what a non-sample packet uses).
  mac::RateIndex best_rate(Time now);

  const Params& params() const noexcept { return params_; }

 private:
  /// One attempt in the window, packed into 8 bytes:
  /// when << 4 | rate << 1 | acked (arithmetic shift back out).
  struct Record {
    std::int64_t bits;
    static Record pack(Time when, std::size_t rate, bool acked) noexcept {
      return Record{static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(when) << 4) | (std::uint64_t{rate} << 1) |
          (acked ? 1U : 0U))};
    }
    Time when() const noexcept { return bits >> 4; }
    std::size_t rate() const noexcept {
      return static_cast<std::size_t>((bits >> 1) & 7);
    }
    bool acked() const noexcept { return (bits & 1) != 0; }
  };
  static_assert(mac::kNumRates <= 8, "a Record holds the rate in 3 bits");

  struct RateStats {
    std::size_t attempts = 0;
    std::size_t successes = 0;
    int consecutive_failures = 0;
  };

  /// Expires the records older than the window at `now`, then refreshes the
  /// average of every rate whose counters moved since the last prune, and
  /// with them the best rate.
  void prune(Time now);
  /// Average airtime per delivered packet at `r` from its counters:
  /// lossless * attempts / successes, +inf without a success.
  double window_tx_time_us(std::size_t r) const;

  Params params_;
  util::Rng rng_;
  /// mac::attempt_duration(r, payload, 0) per rate, fixed by params_.
  std::array<double, mac::kNumRates> lossless_us_{};
  std::array<RateStats, mac::kNumRates> stats_{};
  /// window_tx_time_us(r), current as of the last prune.
  std::array<double, mac::kNumRates> avg_us_{};
  /// The rate with the lowest avg_us_ (the lowest such rate on a tie) and
  /// its average; -1 and +inf while no rate has a success in the window.
  mac::RateIndex best_ = -1;
  double best_avg_ = 0.0;
  /// The window: records_[head_..] in time order. The expired prefix is
  /// erased when the vector is full and the prefix is at least half of it.
  std::vector<Record> records_;
  std::size_t head_ = 0;
  unsigned dirty_ = 0;  ///< Bit r: rate r's counters moved since prune.
  int sample_countdown_ = 0;  ///< Packets until the next sampling slot.
  int chain_failures_ = 0;  ///< Failures within the current retry chain.
};

}  // namespace sh::rate

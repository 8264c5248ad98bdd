// The hint-aware bit rate adaptation protocol (paper §3.2).
//
// Runs SampleRate while the receiver is static and RapidSample while it is
// mobile, switching on the receiver's movement hint (delivered over the Hint
// Protocol; here abstracted as a query function so the harness can wire it
// to the receiver's detector as the sender learns it (the hinted runner), to
// a faulty hint feed, or to ground truth for oracle ablations). On each
// switch the newly activated protocol is reset: the channel regime just
// changed, so history accumulated under the other regime is not just useless
// but misleading.
//
// Graceful degradation: a HintQuery may answer nullopt — "I no longer know"
// — when the hint feed is dead or stale. The adapter then holds its current
// mode for `stale_hold` (a brief gap should not thrash the protocol) and
// afterwards falls back to SampleRate, the hint-free baseline, until the
// feed recovers. A plain MovingQuery never answers nullopt, so legacy users
// never enter the degraded path and behave exactly as before.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "rate/adapter.h"
#include "rate/rapid_sample.h"
#include "rate/sample_rate.h"

namespace sh::rate {

class HintAwareRateAdapter final : public RateAdapter {
 public:
  /// Returns the receiver's movement state as known at `now`.
  using MovingQuery = std::function<bool(Time)>;

  /// Movement query that can admit ignorance: nullopt means no sufficiently
  /// fresh hint exists. Distinct struct (not an alias) so a bool-returning
  /// lambda cannot ambiguously convert to both query forms.
  struct HintQuery {
    std::function<std::optional<bool>(Time)> fn;
  };

  struct Params {
    RapidSample::Params rapid{};
    SampleRateAdapter::Params sample_rate{};
    bool reset_on_switch = true;  ///< Ablation knob.
    /// How long a nullopt-answering query may ride the last known mode
    /// before the adapter degrades to SampleRate.
    Duration stale_hold = kSecond;
  };

  HintAwareRateAdapter(MovingQuery query, util::Rng rng)
      : HintAwareRateAdapter(std::move(query), rng, Params{}) {}
  HintAwareRateAdapter(MovingQuery query, util::Rng rng, Params params);
  HintAwareRateAdapter(HintQuery query, util::Rng rng)
      : HintAwareRateAdapter(std::move(query), rng, Params{}) {}
  HintAwareRateAdapter(HintQuery query, util::Rng rng, Params params);

  std::string_view name() const override { return "HintAware"; }
  void on_packet_start(Time now) override;
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void on_snr(Time now, double snr_db) override;
  void reset() override;

  bool mobile_mode() const noexcept { return mobile_mode_; }
  /// True while the adapter is running its hint-free fallback because the
  /// query stopped answering.
  bool degraded() const noexcept { return degraded_; }

 private:
  RateAdapter& active() noexcept;
  void maybe_switch(Time now);

  HintQuery query_;
  Params params_;
  RapidSample rapid_;
  SampleRateAdapter sample_rate_;
  bool mobile_mode_ = false;
  bool degraded_ = false;
  bool have_signal_ = false;
  Time last_signal_ = 0;
};

}  // namespace sh::rate

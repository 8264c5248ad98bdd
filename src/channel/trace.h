// Packet-fate trace: the paper's experimental substrate.
//
// The paper's measurement rig cycles through all eight 802.11a rates once per
// ~5 ms and logs, for every 5 ms slot, whether a 1000-byte packet at each rate
// was received. Their modified ns-3 then bypasses the PHY and replays the
// recorded fates. PacketFateTrace is exactly that artifact: per-slot fates at
// every rate, plus the slot's ground-truth SNR (consumed by the SNR-based
// protocols RBAR/CHARM) and ground-truth motion flag (consumed by evaluation,
// never by protocols — protocols only see sensor-derived hints).
#pragma once

#include <array>
#include <iosfwd>
#include <optional>
#include <vector>

#include "mac/rates.h"
#include "util/time.h"

namespace sh::channel {

struct TraceSlot {
  std::array<bool, mac::kNumRates> delivered{};
  float snr_db = 0.0F;
  bool moving = false;
};

class PacketFateTrace {
 public:
  explicit PacketFateTrace(Duration slot_duration = 5 * kMillisecond)
      : slot_duration_(slot_duration) {}

  void reserve(std::size_t slots) { slots_.reserve(slots); }
  void push_back(const TraceSlot& slot) { slots_.push_back(slot); }

  std::size_t size() const noexcept { return slots_.size(); }
  bool empty() const noexcept { return slots_.empty(); }
  Duration slot_duration() const noexcept { return slot_duration_; }
  Duration duration() const noexcept {
    return slot_duration_ * static_cast<Duration>(slots_.size());
  }

  const TraceSlot& slot(std::size_t i) const { return slots_.at(i); }

  /// Slot index covering time `t`; clamped to the last slot for t past the
  /// end so replay of a slightly-overrunning experiment stays defined.
  std::size_t slot_index(Time t) const noexcept;

  /// Fate of a packet sent at time `t` and rate `rate`. Packets in the same
  /// slot at the same rate share fate (as in the paper's replay).
  bool delivered(Time t, mac::RateIndex rate) const;
  double snr_db(Time t) const;
  bool moving(Time t) const;

  /// Fraction of slots delivered at `rate` over the whole trace.
  double delivery_ratio(mac::RateIndex rate) const;

  /// Plain-text serialization (one line per slot: fates bitmask, snr,
  /// moving). Round-trips exactly. load() rejects a bad header, an empty
  /// trace and fewer slots than the header declares.
  void save(std::ostream& os) const;
  static std::optional<PacketFateTrace> load(std::istream& is);

 private:
  Duration slot_duration_;
  std::vector<TraceSlot> slots_;
};

}  // namespace sh::channel

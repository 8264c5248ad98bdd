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

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "mac/rates.h"
#include "util/time.h"

namespace sh::channel {

// One 5 ms slot in 8 bytes: the fates of all eight rates share one byte.
// Field order matters: the float first keeps the struct free of padding.
struct TraceSlot {
  float snr_db = 0.0F;
  /// Bit r set: a frame at rate r was delivered in this slot.
  std::uint8_t fate_mask = 0;
  bool moving = false;

  /// `rate` must be valid (mac::valid_rate); PacketFateTrace's readers
  /// check it in every build.
  bool delivered(mac::RateIndex rate) const noexcept {
    return ((fate_mask >> rate) & 1U) != 0;
  }

  bool operator==(const TraceSlot&) const = default;
};
static_assert(mac::kNumRates == 8, "one fate bit per rate in a byte");
static_assert(sizeof(TraceSlot) == 8, "TraceSlot must stay 8 bytes");

[[noreturn]] void throw_invalid_rate(const char* where);

/// Checked in every build: an invalid rate would shift past the fate mask.
/// Throws std::invalid_argument naming `where`.
inline void check_rate(mac::RateIndex rate, const char* where) {
  if (!mac::valid_rate(rate)) [[unlikely]] throw_invalid_rate(where);
}

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

  /// Bytes the trace holds: the object plus its slot storage.
  std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) + slots_.capacity() * sizeof(TraceSlot);
  }

  /// Slot index covering time `t`; clamped to the last slot for t past the
  /// end so replay of a slightly-overrunning experiment stays defined.
  std::size_t slot_index(Time t) const noexcept {
    if (slots_.empty() || t <= 0) return 0;
    const auto idx = static_cast<std::size_t>(t / slot_duration_);
    return idx < slots_.size() ? idx : slots_.size() - 1;
  }

  // The per-attempt readers of every replay, inline. An invalid rate throws
  // std::invalid_argument.

  /// Fate of a packet sent at time `t` and rate `rate`. Packets in the same
  /// slot at the same rate share fate (as in the paper's replay).
  bool delivered(Time t, mac::RateIndex rate) const {
    check_rate(rate, "PacketFateTrace::delivered");
    return slots_.at(slot_index(t)).delivered(rate);
  }
  double snr_db(Time t) const { return slots_.at(slot_index(t)).snr_db; }
  bool moving(Time t) const { return slots_.at(slot_index(t)).moving; }

  /// Fraction of slots delivered at `rate` over the whole trace.
  double delivery_ratio(mac::RateIndex rate) const;

  /// Plain-text serialization (one line per slot: fate mask, snr, moving).
  /// Round-trips exactly. load() rejects a bad header, an empty trace, fewer
  /// slots than the header declares, a fate mask outside 0..255, a moving
  /// flag other than 0 or 1, and anything but whitespace after the slots.
  void save(std::ostream& os) const;
  static std::optional<PacketFateTrace> load(std::istream& is);

 private:
  Duration slot_duration_;
  std::vector<TraceSlot> slots_;
};

}  // namespace sh::channel

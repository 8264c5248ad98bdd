#include "channel/trace.h"

#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace sh::channel {

std::size_t PacketFateTrace::slot_index(Time t) const noexcept {
  if (slots_.empty() || t <= 0) return 0;
  const auto idx = static_cast<std::size_t>(t / slot_duration_);
  return idx < slots_.size() ? idx : slots_.size() - 1;
}

bool PacketFateTrace::delivered(Time t, mac::RateIndex rate) const {
  assert(mac::valid_rate(rate));
  return slots_.at(slot_index(t)).delivered[static_cast<std::size_t>(rate)];
}

double PacketFateTrace::snr_db(Time t) const {
  return slots_.at(slot_index(t)).snr_db;
}

bool PacketFateTrace::moving(Time t) const {
  return slots_.at(slot_index(t)).moving;
}

double PacketFateTrace::delivery_ratio(mac::RateIndex rate) const {
  assert(mac::valid_rate(rate));
  if (slots_.empty()) return 0.0;
  std::size_t delivered_count = 0;
  for (const auto& s : slots_)
    if (s.delivered[static_cast<std::size_t>(rate)]) ++delivered_count;
  return static_cast<double>(delivered_count) /
         static_cast<double>(slots_.size());
}

void PacketFateTrace::save(std::ostream& os) const {
  // Full float precision so save/load round-trips bit-exactly.
  os.precision(9);
  os << "sensorhints-trace v1\n";
  os << slot_duration_ << ' ' << slots_.size() << '\n';
  for (const auto& s : slots_) {
    unsigned mask = 0;
    for (int r = 0; r < mac::kNumRates; ++r)
      if (s.delivered[static_cast<std::size_t>(r)]) mask |= 1U << r;
    os << mask << ' ' << s.snr_db << ' ' << (s.moving ? 1 : 0) << '\n';
  }
}

std::optional<PacketFateTrace> PacketFateTrace::load(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  if (magic != "sensorhints-trace v1") return std::nullopt;
  Duration slot_duration = 0;
  std::size_t count = 0;
  if (!(is >> slot_duration >> count) || slot_duration <= 0 || count == 0) {
    return std::nullopt;
  }
  // The header's count is not trusted for an up-front reserve: a corrupt
  // count must fail on the missing slots, not in the allocator.
  PacketFateTrace trace(slot_duration);
  for (std::size_t i = 0; i < count; ++i) {
    unsigned mask = 0;
    float snr = 0.0F;
    int moving = 0;
    if (!(is >> mask >> snr >> moving)) return std::nullopt;
    TraceSlot slot;
    for (int r = 0; r < mac::kNumRates; ++r)
      slot.delivered[static_cast<std::size_t>(r)] = (mask >> r) & 1U;
    slot.snr_db = snr;
    slot.moving = moving != 0;
    trace.push_back(slot);
  }
  return trace;
}

}  // namespace sh::channel

#include "channel/trace.h"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace sh::channel {

void throw_invalid_rate(const char* where) {
  throw std::invalid_argument(std::string(where) + ": invalid rate");
}

double PacketFateTrace::delivery_ratio(mac::RateIndex rate) const {
  check_rate(rate, "PacketFateTrace::delivery_ratio");
  if (slots_.empty()) return 0.0;
  std::size_t delivered_count = 0;
  for (const auto& s : slots_)
    if (s.delivered(rate)) ++delivered_count;
  return static_cast<double>(delivered_count) /
         static_cast<double>(slots_.size());
}

void PacketFateTrace::save(std::ostream& os) const {
  // Full float precision so save/load round-trips bit-exactly.
  os.precision(9);
  os << "sensorhints-trace v1\n";
  os << slot_duration_ << ' ' << slots_.size() << '\n';
  for (const auto& s : slots_) {
    os << static_cast<unsigned>(s.fate_mask) << ' ' << s.snr_db << ' '
       << (s.moving ? 1 : 0) << '\n';
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
    // Read signed, so "-1" fails the range check instead of wrapping into a
    // valid-looking mask; the check comes before the narrowing to a byte.
    int mask = 0;
    float snr = 0.0F;
    int moving = 0;
    if (!(is >> mask >> snr >> moving)) return std::nullopt;
    if (mask < 0 || mask > 0xFF || (moving != 0 && moving != 1)) {
      return std::nullopt;
    }
    TraceSlot slot;
    slot.snr_db = snr;
    slot.fate_mask = static_cast<std::uint8_t>(mask);
    slot.moving = moving == 1;
    trace.push_back(slot);
  }
  if (!(is >> std::ws).eof()) return std::nullopt;
  return trace;
}

}  // namespace sh::channel

#include "channel/trace_stats.h"

#include <stdexcept>

namespace sh::channel {

LossCorrelation loss_correlation(const std::vector<bool>& delivered,
                                 int max_lag) {
  if (max_lag < 1) {
    throw std::invalid_argument("loss_correlation: max_lag must be >= 1");
  }
  LossCorrelation out;
  const std::size_t n = delivered.size();
  std::size_t losses = 0;
  for (bool d : delivered)
    if (!d) ++losses;
  out.unconditional_loss =
      n == 0 ? 0.0 : static_cast<double>(losses) / static_cast<double>(n);

  out.conditional_loss.resize(static_cast<std::size_t>(max_lag),
                              out.unconditional_loss);
  for (int k = 1; k <= max_lag; ++k) {
    std::size_t base = 0;   // packets i that were lost and have an i+k
    std::size_t joint = 0;  // ... where i+k was also lost
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) < n; ++i) {
      if (delivered[i]) continue;
      ++base;
      if (!delivered[i + static_cast<std::size_t>(k)]) ++joint;
    }
    if (base > 0) {
      out.conditional_loss[static_cast<std::size_t>(k - 1)] =
          static_cast<double>(joint) / static_cast<double>(base);
    }
  }
  return out;
}

std::vector<DeliveryPoint> delivery_series(const PacketFateTrace& trace,
                                           mac::RateIndex rate,
                                           Duration bucket) {
  check_rate(rate, "delivery_series");
  if (bucket <= 0) {
    throw std::invalid_argument("delivery_series: bucket must be positive");
  }
  std::vector<DeliveryPoint> out;
  const auto slots_per_bucket = static_cast<std::size_t>(
      bucket / trace.slot_duration());
  if (slots_per_bucket == 0 || trace.empty()) return out;

  for (std::size_t start = 0; start + slots_per_bucket <= trace.size();
       start += slots_per_bucket) {
    std::size_t delivered_count = 0;
    std::size_t moving_count = 0;
    for (std::size_t i = start; i < start + slots_per_bucket; ++i) {
      const auto& slot = trace.slot(i);
      if (slot.delivered(rate)) ++delivered_count;
      if (slot.moving) ++moving_count;
    }
    DeliveryPoint point;
    point.time_s = to_seconds(static_cast<Time>(start) * trace.slot_duration());
    point.delivery_ratio = static_cast<double>(delivered_count) /
                           static_cast<double>(slots_per_bucket);
    point.moving = moving_count * 2 >= slots_per_bucket;
    out.push_back(point);
  }
  return out;
}

}  // namespace sh::channel

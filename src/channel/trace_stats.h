// Trace statistics used by the measurement figures: loss autocorrelation
// (Fig 3-1) and bucketed delivery-ratio time series (Fig 4-1).
#pragma once

#include <vector>

#include "channel/trace.h"

namespace sh::channel {

struct LossCorrelation {
  /// cond_loss[k-1] = P(packet i+k lost | packet i lost), k = 1..max_lag.
  std::vector<double> conditional_loss;
  double unconditional_loss = 0.0;
};

/// Computes loss autocorrelation from a sequence of per-packet fates
/// (true = delivered). Lags with no conditioning events report the
/// unconditional loss. Throws std::invalid_argument if max_lag < 1.
LossCorrelation loss_correlation(const std::vector<bool>& delivered,
                                 int max_lag);

struct DeliveryPoint {
  double time_s;
  double delivery_ratio;
  bool moving;
};

/// Per-bucket delivery ratio at one rate over a trace (bucket defaults to the
/// paper's 1 second). `moving` is the majority ground-truth motion flag of
/// the bucket. Throws std::invalid_argument for an invalid rate or a
/// non-positive bucket.
std::vector<DeliveryPoint> delivery_series(const PacketFateTrace& trace,
                                           mac::RateIndex rate,
                                           Duration bucket = kSecond);

}  // namespace sh::channel

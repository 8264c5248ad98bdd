// Probing-rate evaluation (paper §4.1): how accurately does a given probing
// rate estimate the true link delivery probability?
//
// Methodology, following the paper exactly: sub-sample the dense 200/s
// stream at the candidate rate; after each sub-sampled probe, the observed
// estimate is the delivery fraction of the last `window` (10) sub-sampled
// probes, and it is compared against the actual probability (last 10 dense
// probes at that instant). The reported error is the mean absolute
// difference over all samples.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "topo/probe_series.h"
#include "util/stats.h"

namespace sh::topo {

/// Highest probing rate the microsecond clock can space out: one probe per
/// microsecond.
inline constexpr double kMaxProbesPerS = 1e6;

/// Probe times for a fixed probing rate over [0, total). Throws
/// std::invalid_argument unless 0 < probes_per_s <= kMaxProbesPerS.
std::vector<Time> fixed_probe_schedule(Duration total, double probes_per_s);

/// Mean absolute estimation error at `probes_per_s`, paper methodology.
/// Also exposes the error-sample spread for the Fig 4-2/4-3 error bars.
/// Throws std::invalid_argument for a probing rate fixed_probe_schedule
/// rejects or a window <= 0.
struct ProbingError {
  double mean_abs_error = 0.0;
  double stddev = 0.0;
  std::size_t samples = 0;
};
ProbingError probing_error(const ProbeSeries& series, double probes_per_s,
                           int window = 10);

/// Estimate + actual time series for a given probe schedule, sampled every
/// `sample_interval` (the Fig 4-4/4-5/4-6 curves). Throws
/// std::invalid_argument unless window > 0 and sample_interval > 0.
struct EstimateSeries {
  std::vector<double> time_s;
  std::vector<double> estimate;  ///< Estimator view (NaN until warm).
  std::vector<double> actual;    ///< Ground truth from the dense stream.
  std::vector<bool> moving;      ///< Ground-truth motion at each sample.
  std::size_t probes_sent = 0;
};
EstimateSeries estimate_over_schedule(const ProbeSeries& series,
                                      std::span<const Time> schedule,
                                      int window = 10,
                                      Duration sample_interval = kSecond);

/// Mean |estimate - actual| over the warm part of an EstimateSeries.
double series_error(const EstimateSeries& series);

}  // namespace sh::topo

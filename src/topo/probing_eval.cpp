#include "topo/probing_eval.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace sh::topo {
namespace {

// Checked in every build: above 1e6 probes/s the microsecond interval
// truncates to 0 and the schedule loop never ends; the negated forms
// reject NaN too.
void check_probe_rate(double probes_per_s) {
  if (!(probes_per_s > 0.0 && probes_per_s <= kMaxProbesPerS)) {
    throw std::invalid_argument(
        "probing: probes_per_s must be in (0, 1e6]");
  }
}

void check_window(int window) {
  if (window <= 0) {
    throw std::invalid_argument("probing: window must be positive");
  }
}

}  // namespace

std::vector<Time> fixed_probe_schedule(Duration total, double probes_per_s) {
  check_probe_rate(probes_per_s);
  std::vector<Time> schedule;
  const auto interval = static_cast<Duration>(1e6 / probes_per_s);
  for (Time t = 0; t < total; t += interval) schedule.push_back(t);
  return schedule;
}

ProbingError probing_error(const ProbeSeries& series, double probes_per_s,
                           int window) {
  check_window(window);
  const auto schedule = fixed_probe_schedule(series.duration(), probes_per_s);

  util::SlidingWindowRate observed(static_cast<std::size_t>(window));
  util::RunningStats error_stats;
  for (const Time t : schedule) {
    const std::size_t i = series.index_at(t);
    observed.add(series.fate(i));
    if (!observed.full()) continue;
    if (i + 1 < static_cast<std::size_t>(window)) continue;
    const double actual = series.actual_probability(i, window);
    error_stats.add(std::fabs(observed.rate() - actual));
  }

  ProbingError out;
  out.mean_abs_error = error_stats.mean();
  out.stddev = error_stats.stddev();
  out.samples = error_stats.count();
  return out;
}

EstimateSeries estimate_over_schedule(const ProbeSeries& series,
                                      std::span<const Time> schedule,
                                      int window, Duration sample_interval) {
  check_window(window);
  if (sample_interval <= 0) {
    throw std::invalid_argument(
        "estimate_over_schedule: sample_interval must be positive");
  }
  EstimateSeries out;
  out.probes_sent = schedule.size();

  util::SlidingWindowRate observed(static_cast<std::size_t>(window));
  std::size_t next_probe = 0;
  for (Time t = sample_interval; t <= series.duration();
       t += sample_interval) {
    while (next_probe < schedule.size() && schedule[next_probe] < t) {
      observed.add(series.fate(series.index_at(schedule[next_probe])));
      ++next_probe;
    }
    const std::size_t i = series.index_at(t - 1);
    out.time_s.push_back(to_seconds(t));
    out.estimate.push_back(observed.full()
                               ? observed.rate()
                               : std::numeric_limits<double>::quiet_NaN());
    out.actual.push_back(i + 1 >= static_cast<std::size_t>(window)
                             ? series.actual_probability(i, window)
                             : std::numeric_limits<double>::quiet_NaN());
    out.moving.push_back(series.moving(i));
  }
  return out;
}

double series_error(const EstimateSeries& series) {
  util::RunningStats stats;
  for (std::size_t i = 0; i < series.estimate.size(); ++i) {
    if (std::isnan(series.estimate[i]) || std::isnan(series.actual[i]))
      continue;
    stats.add(std::fabs(series.estimate[i] - series.actual[i]));
  }
  return stats.mean();
}

}  // namespace sh::topo

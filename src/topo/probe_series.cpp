#include "topo/probe_series.h"

#include <stdexcept>

namespace sh::topo {

ProbeSeries::ProbeSeries(Duration interval, std::vector<bool> fates,
                         std::vector<bool> moving)
    : interval_(interval), fates_(std::move(fates)), moving_(std::move(moving)) {
  // Checked in every build: index_at divides by the interval, and every
  // accessor assumes one motion flag per fate.
  if (interval_ <= 0) {
    throw std::invalid_argument("ProbeSeries: interval must be positive");
  }
  if (fates_.size() != moving_.size()) {
    throw std::invalid_argument(
        "ProbeSeries: fates and moving flags differ in size");
  }
}

ProbeSeries ProbeSeries::from_trace(const channel::PacketFateTrace& trace,
                                    mac::RateIndex rate) {
  channel::check_rate(rate, "ProbeSeries::from_trace");
  std::vector<bool> fates;
  std::vector<bool> moving;
  fates.reserve(trace.size());
  moving.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    fates.push_back(trace.slot(i).delivered(rate));
    moving.push_back(trace.slot(i).moving);
  }
  return ProbeSeries(trace.slot_duration(), std::move(fates),
                     std::move(moving));
}

std::size_t ProbeSeries::index_at(Time t) const noexcept {
  if (fates_.empty() || t <= 0) return 0;
  const auto idx = static_cast<std::size_t>(t / interval_);
  return idx < fates_.size() ? idx : fates_.size() - 1;
}

double ProbeSeries::actual_probability(std::size_t i, int window) const {
  // Checked in every build with plain compares (the probing evaluation
  // calls this once per probe). A non-positive window would convert to a
  // huge size_t below; the window must end at i inside the series.
  if (window <= 0) {
    throw std::invalid_argument(
        "ProbeSeries::actual_probability: window must be positive");
  }
  if (i >= fates_.size() || i + 1 < static_cast<std::size_t>(window)) {
    throw std::out_of_range(
        "ProbeSeries::actual_probability: window outside the series");
  }
  std::size_t delivered = 0;
  for (std::size_t j = i + 1 - static_cast<std::size_t>(window); j <= i; ++j)
    if (fates_[j]) ++delivered;
  return static_cast<double>(delivered) / static_cast<double>(window);
}

}  // namespace sh::topo

#include "vanet/link_tracker.h"

#include <stdexcept>
#include <utility>

#include "core/hints.h"

namespace sh::vanet {

LinkTracker::LinkTracker(Params params, exp::ThreadPool* pool)
    : params_(params),
      pool_(pool),
      noise_rng_(params.noise_seed),
      hash_(params.range_m) {}

void LinkTracker::observe(Time now, const std::vector<VehicleState>& snapshot) {
  if (streaming_ && now < last_now_) {
    throw std::invalid_argument("LinkTracker::observe: time went backwards");
  }
  if (streaming_ && snapshot.size() != num_vehicles_) {
    throw std::invalid_argument(
        "LinkTracker::observe: vehicle count changed within a stream");
  }
  hash_.build(snapshot);
  const auto connected = hash_.pairs_within(snapshot, params_.range_m, pool_);
  streaming_ = true;
  last_now_ = now;
  num_vehicles_ = snapshot.size();

  // Merge the (a, b)-sorted connected set against the (a, b)-sorted active
  // table. Walking both in id order makes every downstream effect — closing
  // records, birth-noise RNG draws, the event stream — a function of the
  // pair ids alone, never of scan discovery order.
  const auto close_link = [&](const LinkRecord& rec) {
    completed_.push_back(rec);
    if (params_.record_events) {
      events_.push_back(
          LinkEvent{now, false, rec.vehicle_a, rec.vehicle_b, 0.0});
    }
  };
  const auto key = [](const LinkRecord& rec) {
    return VehiclePair{rec.vehicle_a, rec.vehicle_b};
  };
  next_active_.clear();
  // Exact growth, never more links than this step's pairs: letting both
  // tables grow by doubling raised a 10k-vehicle run's peak RSS by ~4%.
  next_active_.reserve(connected.size());
  auto it = active_.cbegin();
  for (const auto& pair : connected) {
    for (; it != active_.cend() && key(*it) < pair; ++it) close_link(*it);
    if (it != active_.cend() && key(*it) == pair) {
      next_active_.push_back(*it);
      next_active_.back().end = now;
      ++it;
      continue;
    }
    LinkRecord rec;
    rec.vehicle_a = pair.first;
    rec.vehicle_b = pair.second;
    rec.start = now;
    rec.end = now;
    rec.heading_diff_start_deg = core::heading_difference(
        snapshot[static_cast<std::size_t>(pair.first)].heading_deg +
            noise_rng_.normal(0.0, params_.heading_noise_deg),
        snapshot[static_cast<std::size_t>(pair.second)].heading_deg +
            noise_rng_.normal(0.0, params_.heading_noise_deg));
    next_active_.push_back(rec);
    if (params_.record_events) {
      events_.push_back(LinkEvent{now, true, pair.first, pair.second,
                                  rec.heading_diff_start_deg});
    }
  }
  for (; it != active_.cend(); ++it) close_link(*it);
  active_.swap(next_active_);
}

std::vector<LinkRecord> LinkTracker::finish() {
  // Links still up close at their last observed timestamp, in id order.
  completed_.insert(completed_.end(), active_.begin(), active_.end());
  active_.clear();
  streaming_ = false;
  return std::move(completed_);
}

std::vector<LinkRecord> extract_links(const TrajectoryLog& log, double range_m,
                                      double heading_noise_deg,
                                      std::uint64_t noise_seed) {
  LinkTracker tracker(
      LinkTracker::Params{range_m, heading_noise_deg, noise_seed, false});
  for (std::size_t step = 0; step < log.num_steps(); ++step) {
    tracker.observe(static_cast<Time>(step) * log.step(), log.snapshot(step));
  }
  return tracker.finish();
}

}  // namespace sh::vanet

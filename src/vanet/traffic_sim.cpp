#include "vanet/traffic_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "exp/thread_pool.h"

namespace sh::vanet {

namespace {

/// Vehicles per sharded-step block. Fixed — never derived from the thread
/// count — so the block decomposition is the same no matter how many
/// workers execute it (not that it matters for state: vehicles are fully
/// independent; the constant only sizes tasks). Small, so that a pool
/// balances the tasks: a 10k-vehicle step is 40 of them, where 5 would
/// split 3:2 over two workers.
constexpr std::size_t kStepBlock = 256;

}  // namespace

TrajectoryLog::TrajectoryLog(int num_vehicles, Duration step)
    : num_vehicles_(num_vehicles), step_(step) {
  if (num_vehicles <= 0) {
    throw std::invalid_argument("TrajectoryLog: num_vehicles must be > 0");
  }
  if (step <= 0) {
    throw std::invalid_argument("TrajectoryLog: step must be > 0");
  }
}

void TrajectoryLog::append(std::vector<VehicleState> snapshot) {
  if (snapshot.size() != static_cast<std::size_t>(num_vehicles_)) {
    throw std::invalid_argument(
        "TrajectoryLog::append: snapshot size != num_vehicles");
  }
  snapshots_.push_back(std::move(snapshot));
}

const VehicleState& TrajectoryLog::at(std::size_t step_index,
                                      int vehicle) const {
  return snapshots_.at(step_index).at(static_cast<std::size_t>(vehicle));
}

TrafficSim::TrafficSim(const RoadNetwork& net, std::uint64_t seed,
                       Params params)
    : net_(net), params_(params) {
  if (params_.num_vehicles <= 0) {
    throw std::invalid_argument("TrafficSim: num_vehicles must be > 0");
  }
  if (net_.num_intersections() <= 0) {
    throw std::invalid_argument("TrafficSim: network has no intersections");
  }
  // Negated so that NaN fails too.
  if (!(params_.min_speed_mps <= params_.max_speed_mps)) {
    throw std::invalid_argument(
        "TrafficSim: min_speed_mps must be <= max_speed_mps");
  }
  vehicles_.resize(static_cast<std::size_t>(params_.num_vehicles));
  state_.resize(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    auto& v = vehicles_[i];
    v.rng.reseed(util::Rng::derive_seed(seed, i));
    v.cruise_speed = v.rng.uniform(params_.min_speed_mps, params_.max_speed_mps);
    const auto start = static_cast<RoadNetwork::Intersection>(
        v.rng.uniform_int(0, net_.num_intersections() - 1));
    state_[i].position = net_.position(start);
    v.path = {start};
    set_waypoint(v, 1);  // Past the end: forces a fresh path on the first step.
  }
}

void TrafficSim::set_waypoint(Vehicle& v, std::size_t index) const {
  v.next_waypoint = index;
  if (index < v.path.size()) v.target = net_.position(v.path[index]);
}

void TrafficSim::assign_new_path(Vehicle& v) {
  const auto from = v.path.empty()
                        ? static_cast<RoadNetwork::Intersection>(v.rng.uniform_int(
                              0, net_.num_intersections() - 1))
                        : v.path.back();
  for (int attempts = 0; attempts < 16; ++attempts) {
    const auto to = static_cast<RoadNetwork::Intersection>(
        v.rng.uniform_int(0, net_.num_intersections() - 1));
    if (to == from) continue;
    auto path = net_.shortest_path(from, to);
    if (path.size() >= 2) {
      v.path = std::move(path);
      set_waypoint(v, 1);
      return;
    }
  }
  // Degenerate network; stay parked at the current position.
  set_waypoint(v, v.path.size());
}

void TrafficSim::follow_road_from(Vehicle& v, RoadNetwork::Intersection node,
                                  double heading_deg) {
  const auto neighbors = net_.neighbors(node);
  if (neighbors.empty()) return;

  // Candidates are the neighbors other than the node we came from, in
  // neighbor order — or, at a dead end, that node alone. They are counted
  // and indexed in place rather than collected.
  const RoadNetwork::Intersection prev = v.prev_node;
  std::size_t candidates = 0;
  for (const auto n : neighbors) candidates += n != prev ? 1 : 0;
  const auto candidate = [&](std::size_t k) {
    for (const auto n : neighbors) {
      if (n != prev && k-- == 0) return n;
    }
    return prev;
  };

  RoadNetwork::Intersection chosen = candidate(0);
  if (candidates > 1 && v.rng.bernoulli(params_.turn_probability)) {
    chosen = candidate(static_cast<std::size_t>(v.rng.uniform_int(
        0, static_cast<std::int64_t>(candidates) - 1)));
  } else if (candidates > 1) {
    // Stay on the road: pick the neighbor whose direction deviates least
    // from the current heading.
    double best_dev = 1e9;
    for (const auto n : neighbors) {
      if (n == prev) continue;
      const double h = heading_of(net_.position(node), net_.position(n));
      double dev = std::fabs(h - heading_deg);
      if (dev > 180.0) dev = 360.0 - dev;
      if (dev < best_dev) {
        best_dev = dev;
        chosen = n;
      }
    }
  }
  v.prev_node = node;
  v.path.assign({node, chosen});  // Keeps the path's storage.
  set_waypoint(v, 1);
}

void TrafficSim::advance(Vehicle& v, VehicleState& s, double speed_mps,
                         double dt_s) {
  double remaining = speed_mps * dt_s;
  while (remaining > 0.0) {
    if (v.next_waypoint >= v.path.size()) {
      if (params_.routing == Routing::kFollowRoad) {
        follow_road_from(v, v.path.empty() ? 0 : v.path.back(),
                         s.heading_deg);
      } else {
        assign_new_path(v);
      }
      if (v.next_waypoint >= v.path.size()) return;  // parked
    }
    const Vec2 target = v.target;
    const double dist = distance(s.position, target);
    if (dist > 1e-9) s.heading_deg = heading_of(s.position, target);
    if (dist > remaining) {
      const double frac = remaining / dist;
      s.position.x += (target.x - s.position.x) * frac;
      s.position.y += (target.y - s.position.y) * frac;
      return;
    }
    s.position = target;
    remaining -= dist;
    set_waypoint(v, v.next_waypoint + 1);
    // Arrived at an intersection: maybe wait at a light.
    if (v.rng.bernoulli(params_.stop_probability)) {
      v.stopped_for = v.rng.uniform_int(params_.min_stop, params_.max_stop);
      return;
    }
  }
}

void TrafficSim::step_block(std::size_t lo, std::size_t hi) {
  constexpr double kDt = 1.0;  // 1 Hz simulation, like the paper's samples.
  for (std::size_t i = lo; i < hi; ++i) {
    auto& v = vehicles_[i];
    auto& s = state_[i];
    if (v.stopped_for > 0) {
      v.stopped_for -= kSecond;
      s.speed_mps = 0.0;
      continue;
    }
    double speed =
        v.cruise_speed * (1.0 + v.rng.normal(0.0, params_.speed_jitter));
    if (speed < 1.0) speed = 1.0;
    advance(v, s, speed, kDt);
    // A vehicle that just stopped at a light reports 0.
    s.speed_mps = v.stopped_for > 0 ? 0.0 : speed;
  }
}

void TrafficSim::step() { step_block(0, vehicles_.size()); }

void TrafficSim::step(exp::ThreadPool& pool) {
  const std::size_t n = vehicles_.size();
  const std::size_t blocks = (n + kStepBlock - 1) / kStepBlock;
  if (pool.thread_count() <= 1 || blocks <= 1) {
    step();
    return;
  }
  pool.parallel_for(blocks, [this, n](std::size_t block) {
    step_block(block * kStepBlock, std::min(n, (block + 1) * kStepBlock));
  });
}

TrajectoryLog TrafficSim::run(Duration total) {
  TrajectoryLog log(params_.num_vehicles, kSecond);
  log.append(snapshot());
  for (Time t = 0; t < total; t += kSecond) {
    step();
    log.append(snapshot());
  }
  return log;
}

TrajectoryLog TrafficSim::run(Duration total, exp::ThreadPool& pool) {
  TrajectoryLog log(params_.num_vehicles, kSecond);
  log.append(snapshot());
  for (Time t = 0; t < total; t += kSecond) {
    step(pool);
    log.append(snapshot());
  }
  return log;
}

}  // namespace sh::vanet

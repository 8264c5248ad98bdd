// Vehicle traffic simulation over a road network.
//
// Each vehicle picks a random destination intersection, follows the shortest
// path at its own cruising speed (with second-to-second variation and
// stop-light pauses at intersections), then picks a new destination —
// producing the taxi-like movement whose position samples the paper's
// evaluation consumed. The simulator records a 1 Hz trajectory log
// (position, heading, speed per vehicle) which the link and route analyses
// replay offline.
//
// Scale: every vehicle owns an independent RNG stream seeded with
// derive_seed(base_seed, vehicle_id) and never reads another vehicle's
// state, so a step can shard across exp::ThreadPool over fixed-size vehicle
// blocks and stay byte-identical to the serial step at any thread count —
// the deterministic-sharding pattern from the sweep engine (DESIGN.md
// "Determinism contract") applied to mobility. The hot per-vehicle output
// (position, heading, reported speed) lives in one contiguous VehicleState
// array that the step writes in place, so a snapshot is a single copy.
#pragma once

#include <vector>

#include "sim/ids.h"
#include "util/rng.h"
#include "vanet/road_network.h"

namespace sh::exp {
class ThreadPool;
}

namespace sh::vanet {

struct VehicleState {
  Vec2 position{};
  double heading_deg = 0.0;
  double speed_mps = 0.0;
};

/// 1 Hz snapshots of every vehicle over a run.
class TrajectoryLog {
 public:
  /// Throws std::invalid_argument unless num_vehicles > 0 and step > 0.
  TrajectoryLog(int num_vehicles, Duration step);

  /// Throws std::invalid_argument unless the snapshot holds exactly
  /// num_vehicles() vehicles.
  void append(std::vector<VehicleState> snapshot);

  int num_vehicles() const noexcept { return num_vehicles_; }
  std::size_t num_steps() const noexcept { return snapshots_.size(); }
  Duration step() const noexcept { return step_; }
  Duration duration() const noexcept {
    return step_ * static_cast<Duration>(snapshots_.size());
  }

  const VehicleState& at(std::size_t step_index, int vehicle) const;
  const std::vector<VehicleState>& snapshot(std::size_t step_index) const {
    return snapshots_.at(step_index);
  }

 private:
  int num_vehicles_;
  Duration step_;
  std::vector<std::vector<VehicleState>> snapshots_;
};

class TrafficSim {
 public:
  /// How vehicles pick their way through the network:
  ///  * kRandomTrips — shortest path to a random destination, then repeat
  ///    (commuter-style trips; natural on grids);
  ///  * kFollowRoad — keep to the best-aligned edge at each intersection,
  ///    turning onto a crossing road with `turn_probability` (arterial
  ///    cruising; what taxi traces look like on chords_city networks).
  enum class Routing { kRandomTrips, kFollowRoad };

  struct Params {
    int num_vehicles = 100;
    Routing routing = Routing::kRandomTrips;
    double turn_probability = 0.12;  ///< kFollowRoad: turn at intersections.
    double min_speed_mps = 10.0;  ///< Per-vehicle cruising speed range
    double max_speed_mps = 14.0;  ///< (roughly 36-50 km/h urban arterials).
    double speed_jitter = 0.08;   ///< Relative second-to-second variation.
    double stop_probability = 0.05;  ///< Chance of stopping at a light.
    Duration min_stop = 2 * kSecond;
    Duration max_stop = 4 * kSecond;
  };

  /// Throws std::invalid_argument unless num_vehicles > 0, the network has
  /// an intersection to start from, and min_speed_mps <= max_speed_mps
  /// (NaN included).
  TrafficSim(const RoadNetwork& net, std::uint64_t seed)
      : TrafficSim(net, seed, Params{}) {}
  TrafficSim(const RoadNetwork& net, std::uint64_t seed, Params params);

  /// Advances all vehicles by one 1-second step.
  void step();

  /// Same step, sharded over `pool` in fixed-size vehicle blocks. Each
  /// vehicle draws only from its own RNG stream and writes only its own
  /// state, so the result is byte-identical to step() at any thread count.
  void step(exp::ThreadPool& pool);

  /// Runs for `total` simulated time and returns the 1 Hz trajectory log
  /// (including the initial state). With a pool, steps are sharded.
  TrajectoryLog run(Duration total);
  TrajectoryLog run(Duration total, exp::ThreadPool& pool);

  /// Every vehicle's state, vehicle id = index; reported speed is 0 while
  /// stopped at a light.
  std::vector<VehicleState> snapshot() const { return state_; }

 private:
  /// What a vehicle needs to move besides its VehicleState: the RNG stream
  /// and the route.
  struct Vehicle {
    util::Rng rng;  ///< Private stream: derive_seed(base_seed, vehicle_id).
    std::vector<RoadNetwork::Intersection> path;  ///< Remaining waypoints.
    std::size_t next_waypoint = 0;
    /// Position of path[next_waypoint] while next_waypoint < path.size().
    Vec2 target{};
    RoadNetwork::Intersection prev_node = -1;  ///< kFollowRoad state.
    double cruise_speed = 12.0;
    Duration stopped_for = 0;  ///< Remaining stop-light wait.
  };

  /// Heads `v` for path[index], refreshing the cached target.
  void set_waypoint(Vehicle& v, std::size_t index) const;
  void assign_new_path(Vehicle& v);
  /// kFollowRoad: picks the next waypoint after arriving at `node` with
  /// heading `heading_deg`.
  void follow_road_from(Vehicle& v, RoadNetwork::Intersection node,
                        double heading_deg);
  /// Moves `v` (state `s`) at `speed_mps` for `dt_s` seconds.
  void advance(Vehicle& v, VehicleState& s, double speed_mps, double dt_s);
  /// Advances vehicles [lo, hi) — the unit both step() overloads share.
  void step_block(std::size_t lo, std::size_t hi);

  const RoadNetwork& net_;
  Params params_;
  std::vector<Vehicle> vehicles_;
  std::vector<VehicleState> state_;  ///< Parallel to vehicles_.
};

}  // namespace sh::vanet

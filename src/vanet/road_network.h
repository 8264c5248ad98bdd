// Road network: the substrate under the vehicular experiments.
//
// The paper's evaluation uses taxi GPS traces map-matched to real roads; we
// substitute a Manhattan-style grid (the urban setting the taxis drove in)
// with uniform block spacing. Vehicles travel along edges and turn at
// intersections, which yields the property Table 5.1 depends on: motion is
// constrained to a common set of one-dimensional segments, so heading
// differences predict link lifetimes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/time.h"

namespace sh::vanet {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Vec2& a, const Vec2& b) noexcept;

/// Heading of the direction a->b in degrees clockwise from north (+y).
double heading_of(const Vec2& from, const Vec2& to) noexcept;

/// Merges points closer than 1 m: find_or_add(pos) returns the index of the
/// lowest-index stored point within 1 m of `pos` (distance() < 1.0), or
/// appends `pos` and returns its index. Points are bucketed into 1 m cells,
/// so a lookup reads only the 3 x 3 cells around `pos`. chords_city merges
/// its road crossings through it.
class PointMerger {
 public:
  /// Appends to `points`, which must outlive the merger and be empty.
  explicit PointMerger(std::vector<Vec2>& points) : points_(points) {}

  int find_or_add(const Vec2& pos);

 private:
  std::vector<Vec2>& points_;
  /// Cell key -> the newest point in the cell; next_[i] is the point added
  /// before i in i's cell, or -1.
  std::unordered_map<std::uint64_t, int> newest_;
  std::vector<int> next_;
};

/// Intersections and the roads between them. The adjacency is one flat CSR
/// pair: node i's neighbors are targets_[offsets_[i], offsets_[i + 1]), in
/// the order its builder connected them — TrafficSim's road following and
/// shortest_path's BFS both read that order, so it is part of the output.
///
/// Every builder checks its arguments in every build type and throws
/// std::invalid_argument for a bad shape, spacing or fraction; ids outside
/// [0, num_intersections()) throw std::out_of_range.
class RoadNetwork {
 public:
  using Intersection = int;

  /// Builds a `cols` x `rows` grid (each at least 2) with `spacing_m` metres
  /// between neighboring intersections. Neighbor order: west, east, south,
  /// north.
  static RoadNetwork grid(int cols, int rows, double spacing_m);

  /// Like grid(), but every intersection is displaced by up to
  /// `jitter_frac * spacing_m` (in [0, 0.5)) in each axis — an irregular
  /// urban street pattern where road segments take varied orientations (real
  /// city grids are not axis-aligned; Table 5.1's intermediate
  /// heading-difference buckets only exist because of this variety).
  static RoadNetwork irregular_grid(int cols, int rows, double spacing_m,
                                    double jitter_frac, std::uint64_t seed);

  /// Arterial-city model: `num_roads` (at least 2) long straight roads
  /// crossing a `size_m` x `size_m` area at random angles and offsets;
  /// intersections wherever two roads cross. This is the structure of the
  /// paper's taxi arterials: vehicles share long one-dimensional segments at
  /// a spread of orientations, so a pair's heading difference maps directly
  /// onto how fast their trajectories diverge — the physics behind Table
  /// 5.1's roughly halving median duration per 10-degree bucket.
  /// Road angles cluster around two perpendicular principal directions with
  /// `cluster_spread_deg` (>= 0) of scatter (real street networks have
  /// dominant orientations); `1 - cluster_frac` (in [0, 1]) of the roads are
  /// diagonals at uniform angles. The scatter within a cluster is what
  /// populates the small heading-difference buckets with genuinely diverging
  /// road pairs.
  static RoadNetwork chords_city(int num_roads, double size_m,
                                 std::uint64_t seed,
                                 double cluster_frac = 0.7,
                                 double cluster_spread_deg = 8.0);

  /// City-grid model for metro-scale runs: a `districts_cols` x
  /// `districts_rows` lattice of districts (each at least 1), each
  /// `blocks_per_district` (at least 2) blocks on a side with `block_m`-metre
  /// blocks. The district boundary lines are arterials — straight, never
  /// thinned — while interior local streets are jittered off the lattice
  /// (varied orientations, like irregular_grid; `jitter_frac` in [0, 0.5))
  /// and randomly thinned by `local_drop_frac` (in [0, 1); real districts are
  /// not full lattices). Construction is O(intersections), so a 100k-vehicle
  /// metro (hundreds of thousands of nodes) builds in milliseconds — unlike
  /// chords_city, whose O(roads²) crossing search stops scaling around a few
  /// hundred roads. Neighbor order: south, west, east, north, then the
  /// street that reconnects a node thinning stranded.
  static RoadNetwork city_grid(int districts_cols, int districts_rows,
                               int blocks_per_district, double block_m,
                               std::uint64_t seed,
                               double local_drop_frac = 0.15,
                               double jitter_frac = 0.12);

  /// city_grid sized for `vehicles` (at least 1) at the evaluation's taxi
  /// density (the 100-vehicle / 3 km chords_city setting, ~11 vehicles per
  /// km²), so link statistics stay comparable as the fleet grows: 100
  /// vehicles get a ~3 km city, 10k a ~30 km metro, 100k a ~95 km region.
  static RoadNetwork city_for_scale(int vehicles, std::uint64_t seed);

  int num_intersections() const noexcept {
    return static_cast<int>(positions_.size());
  }
  const Vec2& position(Intersection i) const {
    return positions_.at(static_cast<std::size_t>(i));
  }
  std::span<const Intersection> neighbors(Intersection i) const {
    // Checked against the node count: size_t(-1) + 1 would wrap to 0.
    if (i < 0 || i >= num_intersections()) throw_bad_id("neighbors", i);
    const auto node = static_cast<std::size_t>(i);
    return {targets_.data() + offsets_[node],
            targets_.data() + offsets_[node + 1]};
  }

  /// Shortest path by hop count (uniform edge lengths), BFS. Includes both
  /// endpoints; empty if unreachable or from == to.
  std::vector<Intersection> shortest_path(Intersection from,
                                          Intersection to) const;

  double spacing_m() const noexcept { return spacing_m_; }

 private:
  /// A (node, neighbor) entry, in the order a builder connected them.
  using Append = std::pair<Intersection, Intersection>;

  /// Lays `appends` out as offsets_/targets_ with a stable counting pass, so
  /// each node's neighbors keep their append order.
  void set_adjacency(std::span<const Append> appends);

  [[noreturn]] static void throw_bad_id(const char* what, Intersection i);

  std::vector<Vec2> positions_;
  std::vector<std::uint32_t> offsets_;  ///< num_intersections() + 1 entries.
  std::vector<Intersection> targets_;   ///< Two entries per road segment.
  double spacing_m_ = 0.0;
};

}  // namespace sh::vanet
